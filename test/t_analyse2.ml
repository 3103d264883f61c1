(* Tests for the dataflow-lint layer added on top of the preflight passes:
   the interval / fixpoint core, the AC-connectivity view of Topology and
   the Ac.Singular pre-check, the A/R analysis-card lint, the Verilog-A AST
   round trip and its V-code lint, and the SARIF + baseline CI surface. *)

module Diagnostic = Yield_analyse.Diagnostic
module Interval = Yield_analyse.Interval
module Ac_tran_lint = Yield_analyse.Ac_tran_lint
module Va_lint = Yield_analyse.Va_lint
module Baseline = Yield_analyse.Baseline
module Sarif = Yield_analyse.Sarif
module Circuit = Yield_spice.Circuit
module Device = Yield_spice.Device
module Dcop = Yield_spice.Dcop
module Ac = Yield_spice.Ac
module Mna = Yield_spice.Mna
module Topology = Yield_spice.Topology
module Netlist = Yield_spice.Netlist
module Verilog_a = Yield_behavioural.Verilog_a
module Json = Yield_obs.Json

let codes diags = List.map (fun d -> d.Diagnostic.code) (Diagnostic.sort diags)

let has_code code diags =
  List.exists (fun d -> d.Diagnostic.code = code) diags

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* dune runtest runs inside _build/default/test and the example fixtures are
   not part of any dune target, so resolve them against the source root *)
let fixture rel =
  let rec go dir =
    let cand = Filename.concat dir rel in
    if Sys.file_exists cand then cand
    else
      let parent = Filename.dirname dir in
      if parent = dir then rel else go parent
  in
  go (Sys.getcwd ())

(* ---------- interval arithmetic ---------- *)

let test_interval_outward () =
  (* 0.1 +. 0.2 <> 0.3 in floats; the outward-rounded sum must still
     enclose the real-number result *)
  let s = Interval.add (Interval.point 0.1) (Interval.point 0.2) in
  Alcotest.(check bool) "encloses 0.3" true (Interval.contains s 0.3);
  Alcotest.(check bool) "strictly widened" true (Interval.width s > 0.);
  let p = Interval.mul (Interval.point 10e3) (Interval.point 1e-9) in
  Alcotest.(check bool) "encloses tau" true (Interval.contains p 1e-5);
  (* the zero factor is exact: 0 * [-inf, inf] must collapse to (an ulp
     around) 0, not NaN and not the whole line *)
  let z = Interval.mul Interval.zero Interval.whole in
  Alcotest.(check bool) "0 * whole contains 0" true (Interval.contains z 0.);
  Alcotest.(check bool) "0 * whole is an ulp around 0" true
    (z.Interval.hi < 1e-300 && z.Interval.lo > -1e-300)

let test_interval_sets () =
  let a = Interval.of_bounds 1. 2. and b = Interval.of_bounds 5. 3. in
  Alcotest.(check bool) "of_bounds reorders" true (Interval.contains b 4.);
  Alcotest.(check bool) "disjoint" true (Interval.disjoint a b);
  let h = Interval.hull a b in
  Alcotest.(check bool) "subset of hull" true (Interval.subset a h);
  Alcotest.(check bool) "hull is exact" true
    (h.Interval.lo = 1. && h.Interval.hi = 5.);
  Alcotest.(check bool) "intersect empty" true
    (Interval.intersect a b = None);
  (* an interval spanning zero inverts to the whole line *)
  let inv = Interval.inv (Interval.of_bounds (-1.) 1.) in
  Alcotest.(check bool) "inv through zero" true
    (Interval.subset Interval.whole inv);
  match Interval.make 2. 1. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "make accepted lo > hi"

let test_fixpoint () =
  (* reachability: 0 -> 1 -> 2, node 3 isolated; seed out of range ignored *)
  let edges =
    [ Interval.Fixpoint.edge 0 1; Interval.Fixpoint.edge 1 2 ]
  in
  let r = Interval.Fixpoint.reachable ~size:4 ~edges ~seeds:[ 0; 99 ] in
  Alcotest.(check (list bool)) "reachable" [ true; true; true; false ]
    (Array.to_list r);
  (* max-propagation through a cycle still terminates (finite lattice) *)
  let edges =
    [
      Interval.Fixpoint.edge 0 1;
      Interval.Fixpoint.edge 1 2;
      Interval.Fixpoint.edge 2 1;
    ]
  in
  let out =
    Interval.Fixpoint.solve ~size:3 ~edges ~init:[| 7; 0; 0 |] ~join:max
      ~equal:Int.equal
  in
  Alcotest.(check (list int)) "max flows" [ 7; 7; 7 ] (Array.to_list out)

(* ---------- AC topology + Ac.Singular pre-check ---------- *)

let test_ac_vs_dc_issues () =
  (* a node held only between capacitors has no DC path but a perfectly
     good AC one *)
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"V1" ~ac:1. "in" "0" 1.;
  Circuit.add_capacitor c ~name:"C1" "in" "mid" 1e-9;
  Circuit.add_capacitor c ~name:"C2" "mid" "0" 1e-9;
  Alcotest.(check bool) "DC sees the break" true
    (List.exists
       (function Topology.No_dc_path { node } -> node = "mid" | _ -> false)
       (Topology.dc_issues c));
  Alcotest.(check (list string)) "AC is clean" []
    (List.map Topology.issue_to_string (Topology.ac_issues c));
  (* a current-source-only node is singular in both views *)
  let c2 = Circuit.create () in
  Circuit.add_vsource c2 ~name:"V1" ~ac:1. "in" "0" 1.;
  Circuit.add_resistor c2 ~name:"R1" "in" "0" 1e3;
  Circuit.add_isource c2 ~name:"I1" "float" "0" 1e-6;
  Alcotest.(check bool) "AC sees the float" true
    (List.exists
       (function Topology.No_ac_path { node } -> node = "float" | _ -> false)
       (Topology.ac_issues c2))

let test_ac_transfer_singular () =
  (* a valid operating point from a healthy divider ... *)
  let good = Circuit.create () in
  Circuit.add_vsource good ~name:"V1" ~ac:1. "in" "0" 1.;
  Circuit.add_resistor good ~name:"R1" "in" "out" 1e3;
  Circuit.add_resistor good ~name:"R2" "out" "0" 1e3;
  let op =
    match Dcop.solve good with
    | Ok op -> op
    | Error _ -> Alcotest.fail "divider should solve"
  in
  let freqs = [| 10.; 100. |] in
  let bode = Ac.transfer good op ~out:(Circuit.node good "out") ~freqs in
  Alcotest.(check int) "healthy transfer" 2 (Array.length bode.Ac.response);
  (* ... and a structurally AC-singular circuit with the same node and
     vsource counts: transfer must refuse before assembling anything *)
  let bad = Circuit.create () in
  Circuit.add_vsource bad ~name:"V1" ~ac:1. "in" "0" 1.;
  Circuit.add_resistor bad ~name:"R1" "in" "0" 1e3;
  Circuit.add_isource bad ~name:"I1" "out" "0" 1e-6;
  match Ac.transfer bad op ~out:(Circuit.node bad "out") ~freqs with
  | exception Ac.Singular msg ->
      Alcotest.(check bool) "names the node" true (contains ~sub:"out" msg)
  | _ -> Alcotest.fail "AC-singular circuit accepted"

(* A sys runs the structural checks once, when it is built; solves through
   it must still refuse what the per-call checks refuse.  Only a dense sys
   is built here: its pattern does not depend on the issues. *)
let test_sys_cached_prechecks () =
  let no_dc = Circuit.create () in
  Circuit.add_vsource no_dc ~name:"V1" ~ac:1. "in" "0" 1.;
  Circuit.add_capacitor no_dc ~name:"C1" "in" "mid" 1e-9;
  Circuit.add_capacitor no_dc ~name:"C2" "mid" "0" 1e-9;
  let sys = Mna.sys no_dc in
  let names = List.map Topology.issue_to_string in
  Alcotest.(check (list string)) "cached DC issues"
    (names (Topology.dc_issues no_dc)) (names (Mna.sys_dc_issues sys));
  Alcotest.(check (list string)) "cached AC issues" [] (names (Mna.sys_ac_issues sys));
  (match Dcop.solve ~sys no_dc with
  | Error (Dcop.Singular_system msg) ->
      Alcotest.(check bool) "names the node" true (contains ~sub:"mid" msg)
  | Error e -> Alcotest.failf "wrong error: %s" (Dcop.error_to_string e)
  | Ok _ -> Alcotest.fail "DC-singular circuit solved through a sys");
  (* the operating point of a healthy divider: the check fires before
     anything of it is read *)
  let good = Circuit.create () in
  Circuit.add_vsource good ~name:"V1" ~ac:1. "in" "0" 1.;
  Circuit.add_resistor good ~name:"R1" "in" "out" 1e3;
  Circuit.add_resistor good ~name:"R2" "out" "0" 1e3;
  let op =
    match Dcop.solve good with
    | Ok op -> op
    | Error _ -> Alcotest.fail "divider should solve"
  in
  let no_ac = Circuit.create () in
  Circuit.add_vsource no_ac ~name:"V1" ~ac:1. "in" "0" 1.;
  Circuit.add_resistor no_ac ~name:"R1" "in" "0" 1e3;
  Circuit.add_isource no_ac ~name:"I1" "out" "0" 1e-6;
  let sys = Mna.sys no_ac in
  match Ac.transfer ~sys no_ac op ~out:(Circuit.node no_ac "out") ~freqs:[| 10. |] with
  | exception Ac.Singular msg ->
      Alcotest.(check bool) "names the node" true (contains ~sub:"out" msg)
  | _ -> Alcotest.fail "AC-singular circuit accepted through a sys"

(* ---------- AC / transient analysis-card lint ---------- *)

let rc ?(ac = 1.) () =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"V1" ~ac "in" "0" 1.;
  Circuit.add_resistor c ~name:"R1" "in" "out" 10e3;
  Circuit.add_capacitor c ~name:"C1" "out" "0" 1e-9;
  c

let ac_card ?(per_decade = 10) ?(f_lo = 10.) ?(f_hi = 1e6) out =
  Netlist.Ac_analysis { per_decade; f_lo; f_hi; out }

let test_ac_lint_codes () =
  let clean = Ac_tran_lint.check (rc ()) [ ac_card "out" ] in
  Alcotest.(check (list string)) "RC sweep is clean" [] (codes clean);
  Alcotest.(check (list string)) "no AC excitation" [ "A001" ]
    (codes (Ac_tran_lint.check (rc ~ac:0. ()) [ ac_card "out" ]));
  Alcotest.(check (list string)) "unknown out node" [ "A002" ]
    (codes (Ac_tran_lint.check (rc ()) [ ac_card "nope" ]));
  Alcotest.(check (list string)) "inverted sweep" [ "A004" ]
    (codes (Ac_tran_lint.check (rc ()) [ ac_card ~f_lo:1e6 ~f_hi:10. "out" ]));
  (* tau = 10k * 1n = 1e-5 s puts the pole near 16 kHz; a sweep parked
     nine decades above it can only see the asymptote *)
  let far = Ac_tran_lint.check (rc ()) [ ac_card ~f_lo:1e12 ~f_hi:1e13 "out" ] in
  Alcotest.(check (list string)) "sweep misses the pole" [ "A005" ] (codes far);
  Alcotest.(check int) "A005 is a warning" 1 (Diagnostic.exit_code far)

let test_ac_lint_unreachable_fixture () =
  let diags = Ac_tran_lint.check_file (fixture "examples/netlists/ac_bad_probe.cir") in
  Alcotest.(check bool) "proves the dead probe" true (has_code "A003" diags);
  Alcotest.(check int) "fixture fails" 2 (Diagnostic.exit_code diags);
  Alcotest.(check (list string)) "shipped lowpass stays clean" []
    (codes (Ac_tran_lint.check_file (fixture "examples/netlists/rc_lowpass.cir")))

(* the two malformed .ac fixtures: lint reports A004 on the card's span,
   and the grid they would need is refused outright, so `yieldlab
   netlist` cannot sweep a degenerate grid in their place *)
let test_ac_lint_malformed_sweep_fixtures () =
  List.iter
    (fun (name, line) ->
      let diags = Ac_tran_lint.check_file (fixture ("examples/netlists/" ^ name)) in
      Alcotest.(check (list string)) (name ^ " codes") [ "A004" ] (codes diags);
      Alcotest.(check (list (option int))) (name ^ " line") [ Some line ]
        (List.map (fun d -> d.Diagnostic.line) diags);
      Alcotest.(check int) (name ^ " fails") 2 (Diagnostic.exit_code diags))
    [ ("ac_bad_dec.cir", 8); ("ac_bad_range.cir", 7) ];
  let refused what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "Ac.default_freqs accepted %s" what
  in
  refused "dec 0" (fun () -> Ac.default_freqs ~per_decade:0 ~f_lo:10. ~f_hi:1e6 ());
  refused "dec -1" (fun () ->
      Ac.default_freqs ~per_decade:(-1) ~f_lo:10. ~f_hi:1e6 ());
  refused "a reversed range" (fun () ->
      Ac.default_freqs ~per_decade:20 ~f_lo:1e6 ~f_hi:10. ());
  Alcotest.(check int) "a good card's grid" 101
    (Array.length (Ac.default_freqs ~per_decade:20 ~f_lo:10. ~f_hi:1e6 ()))

(* the five non-finite / non-positive device decks: netlist lint refuses
   each with its code, saying "non-finite" when that is the fault, and the
   interval analyses leave the device out instead of raising on it *)
let test_device_value_fixtures () =
  List.iter
    (fun (name, code, non_finite) ->
      let path = fixture ("examples/netlists/" ^ name) in
      let diags = Yield_analyse.Netlist_lint.check_file path in
      Alcotest.(check (list string)) (name ^ " codes") [ code ] (codes diags);
      Alcotest.(check int) (name ^ " fails") 2 (Diagnostic.exit_code diags);
      let message = (List.hd diags).Diagnostic.message in
      let says s =
        let n = String.length s in
        let rec at i =
          i + n <= String.length message && (String.sub message i n = s || at (i + 1))
        in
        at 0
      in
      Alcotest.(check bool) (name ^ " says non-finite") non_finite (says "non-finite");
      match Ac_tran_lint.check_file path with
      | diags ->
          Alcotest.(check int) (name ^ " A/R codes") 0 (Diagnostic.exit_code diags)
      | exception e ->
          Alcotest.failf "%s: Ac_tran_lint raised %s" name (Printexc.to_string e))
    [
      ("dev_bad_w_nan.cir", "N004", true);
      ("dev_bad_w_inf.cir", "N004", true);
      ("dev_bad_w_zero.cir", "N004", false);
      ("dev_bad_r_inf.cir", "N005", true);
      ("dev_bad_c_inf.cir", "N006", true);
    ];
  (* the model core refuses the same geometry *)
  let nmos = Yield_process.Tech.c35.Yield_process.Tech.nmos in
  List.iter
    (fun (w, l) ->
      match Yield_spice.Mosfet.eval nmos ~w ~l ~vgs:1. ~vds:1. ~vbs:0. with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "Mosfet.eval accepted w=%g l=%g" w l)
    [ (nan, 1e-6); (infinity, 1e-6); (1e-5, neg_infinity); (0., 1e-6); (1e-5, -1e-6) ]

let test_tran_lint_codes () =
  let pulse =
    Device.Pulse
      {
        v1 = 0.;
        v2 = 1.;
        delay = 1e-6;
        rise = 1e-7;
        fall = 1e-7;
        width = 1e-5;
        period = 0.;
      }
  in
  let driven () =
    let c = Circuit.create () in
    Circuit.add_vsource c ~name:"V1" ~wave:pulse "in" "0" 0.;
    Circuit.add_resistor c ~name:"R1" "in" "out" 10e3;
    Circuit.add_capacitor c ~name:"C1" "out" "0" 1e-9;
    c
  in
  let tran ?(dt = 1e-7) ?(t_stop = 1e-4) out =
    Netlist.Tran_analysis { dt; t_stop; out }
  in
  Alcotest.(check (list string)) "well-posed tran is clean" []
    (codes (Ac_tran_lint.check (driven ()) [ tran "out" ]));
  Alcotest.(check (list string)) "degenerate card" [ "R001" ]
    (codes (Ac_tran_lint.check (driven ()) [ tran ~dt:0. "out" ]));
  Alcotest.(check (list string)) "unknown node" [ "R004" ]
    (codes (Ac_tran_lint.check (driven ()) [ tran "nope" ]));
  (* dt = 1 ms against tau <= 1e-5 s: provably undersampled *)
  let coarse =
    Ac_tran_lint.check (driven ()) [ tran ~dt:1e-3 ~t_stop:1e-1 "out" ]
  in
  Alcotest.(check (list string)) "undersampled" [ "R002" ] (codes coarse);
  Alcotest.(check int) "R002 is a warning" 1 (Diagnostic.exit_code coarse);
  Alcotest.(check (list string)) "DC-only stimulus" [ "R003" ]
    (codes (Ac_tran_lint.check (rc ()) [ tran "out" ]))

(* ---------- Verilog-A AST: golden, printing, parsing ---------- *)

(* [print_source (module_ast ())] must reproduce the historical string
   emitter byte for byte; the digest pins the full 1980-byte text without
   embedding it here.  If an emission change is intentional, re-run
   [Digest.to_hex (Digest.string (module_text ~control:"3E" ()))]. *)
let test_va_golden () =
  let text = Verilog_a.module_text ~control:"3E" () in
  Alcotest.(check int) "golden length" 1980 (String.length text);
  Alcotest.(check string) "golden digest" "70cc11e0b905756ebb10decb3b97e03f"
    (Digest.to_hex (Digest.string text))

let test_va_printer_spacing () =
  let open Verilog_a in
  let expr =
    Bin
      ( Add,
        Bin (Mul, Neg (Ident "gain"), Access ("V", "inp")),
        Paren (Bin (Div, Ident "x", Num "2.0")) )
  in
  let src =
    {
      header = [];
      includes = [];
      modules =
        [
          {
            module_name = "m";
            ports = [ "inp" ];
            items =
              [
                Port_decl (Input, [ "inp" ]);
                Discipline_decl ("electrical", [ "inp" ]);
                Analog [ Contribution { access = "V"; node = "inp"; rhs = expr } ];
              ];
          };
        ];
    }
  in
  (* * and / are tight, + and - are spaced, parens survive *)
  Alcotest.(check bool) "operator spacing" true
    (contains ~sub:"V(inp) <+ -gain*V(inp) + (x/2.0);" (print_source src))

let test_va_parse_roundtrip () =
  let text = Verilog_a.module_text ~control:"3E" () in
  let ast = Verilog_a.parse text in
  (match ast.Verilog_a.modules with
  | [ m ] ->
      Alcotest.(check string) "module name" "ota_behavioural"
        m.Verilog_a.module_name;
      Alcotest.(check (list string)) "ports" [ "inp"; "out" ]
        m.Verilog_a.ports
  | _ -> Alcotest.fail "expected one module");
  Alcotest.(check int) "includes survive" 2
    (List.length ast.Verilog_a.includes);
  (* parse is lossy (comments, alignment), but print . parse must be a
     fixed point: re-parsing the re-print gives the same AST *)
  let printed = Verilog_a.print_source ast in
  Alcotest.(check bool) "parse/print fixed point" true
    (Verilog_a.parse printed = ast)

let test_va_parse_errors () =
  let try_parse s =
    match Verilog_a.parse s with
    | exception Verilog_a.Parse_error { line; _ } -> Some line
    | _ -> None
  in
  Alcotest.(check (option int)) "truncated module" (Some 1)
    (try_parse "module m(a);");
  Alcotest.(check bool) "garbage statement" true
    (try_parse "module m(a);\ninput a;\nanalog begin\n<+ 3;\nend\nendmodule\n"
    <> None)

(* ---------- Verilog-A lint ---------- *)

let parse_va = Verilog_a.parse

let test_va_lint_ports_and_defs () =
  (* no discipline on a port is a warning; branch access to an
     undisciplined net is an error *)
  let src =
    parse_va
      "module m(a);\ninput a;\nanalog begin\nV(a) <+ 1.0;\nend\nendmodule\n"
  in
  let diags = Va_lint.check src in
  Alcotest.(check bool) "V001 fires" true (has_code "V001" diags);
  Alcotest.(check int) "branch access makes it an error" 2
    (Diagnostic.exit_code diags);
  (* use before assignment, and a write to a parameter *)
  let src =
    parse_va
      (String.concat "\n"
         [
           "module m(a);";
           "input a;";
           "electrical a;";
           "parameter real g = 2.0;";
           "real x;";
           "real dead;";
           "analog begin";
           "x = x + 1.0;";
           "g = 3.0;";
           "dead = 1.0;";
           "V(a) <+ x;";
           "end";
           "endmodule";
         ]
      ^ "\n")
  in
  let diags = Va_lint.check src in
  Alcotest.(check bool) "use-before-assign / param write" true
    (has_code "V007" diags);
  Alcotest.(check bool) "declared-never-read" true (has_code "V008" diags)

let test_va_lint_fixture () =
  (* the shipped negative fixture carries exactly the three documented
     mistakes: 2-D query vs 1-token control, missing table, dead variable *)
  let diags = Va_lint.check_file (fixture "examples/va/ota_perf.va") in
  Alcotest.(check bool) "V004 arity" true (has_code "V004" diags);
  Alcotest.(check bool) "V005 missing table" true (has_code "V005" diags);
  Alcotest.(check bool) "V008 dead variable" true (has_code "V008" diags);
  Alcotest.(check int) "fixture fails without its baseline" 2
    (Diagnostic.exit_code diags);
  (* and its baseline accepts all of them, so CI sees a clean run.  The
     baseline was written from the repo root, so fingerprints carry the
     repo-relative path: normalise the resolved path back before matching,
     as running from the root (the CI call) does naturally *)
  let diags =
    List.map
      (fun d -> { d with Diagnostic.file = Some "examples/va/ota_perf.va" })
      diags
  in
  match Baseline.load ~path:(fixture "examples/va/ota_perf.baseline.json") with
  | Error e -> Alcotest.fail e
  | Ok base ->
      let fresh, suppressed = Baseline.partition base diags in
      Alcotest.(check int) "everything suppressed" 0 (List.length fresh);
      Alcotest.(check int) "three known findings" 3 (List.length suppressed)

let test_va_lint_emitted_module_clean () =
  Alcotest.(check (list string)) "emitted module lints clean" []
    (codes (Va_lint.check (Verilog_a.module_ast ~control:"3E" ())))

let with_temp_dir f =
  let dir = Filename.temp_file "yieldlab_va" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_va_lint_spec_window () =
  (* a 1-D table sampled on [0, 10]: a parameter whose spec window pokes
     outside that domain is exactly what V006 exists to catch *)
  with_temp_dir (fun dir ->
      let tbl =
        Yield_table.Tbl_io.create ~columns:[| "x"; "y" |]
          ~rows:
            (Array.init 11 (fun i -> [| float_of_int i; float_of_int i |]))
      in
      Yield_table.Tbl_io.write ~path:(Filename.concat dir "t.tbl") tbl;
      let src =
        parse_va
          (String.concat "\n"
             [
               "module m(a);";
               "input a;";
               "electrical a;";
               "parameter real p = 5.0;";
               "real y;";
               "analog begin";
               "y = $table_model(p, \"t.tbl\", \"3E\");";
               "V(a) <+ y;";
               "end";
               "endmodule";
             ]
          ^ "\n")
      in
      Alcotest.(check (list string)) "inside the domain: clean" []
        (codes (Va_lint.check ~dir ~specs:[ ("p", (1., 9.)) ] src));
      let diags = Va_lint.check ~dir ~specs:[ ("p", (5., 25.)) ] src in
      Alcotest.(check (list string)) "window escapes the domain" [ "V006" ]
        (codes diags);
      Alcotest.(check int) "V006 is a warning" 1 (Diagnostic.exit_code diags))

(* ---------- baseline ---------- *)

let diag ?(file = "a.cir") ?(code = "A003") ?(subject = "probe") message =
  Diagnostic.make ~file ~code ~severity:Diagnostic.Error ~subject message

let test_baseline_fingerprint () =
  (* pinned: fingerprints are an on-disk interface shared with SARIF *)
  Alcotest.(check string) "stable hash" "b0c0058c50009ce8"
    (Baseline.fingerprint (diag "unreachable"));
  Alcotest.(check string) "message is not part of identity"
    (Baseline.fingerprint (diag "unreachable"))
    (Baseline.fingerprint (diag "reworded message"));
  Alcotest.(check bool) "file is part of identity" true
    (Baseline.fingerprint (diag ~file:"b.cir" "unreachable")
    <> Baseline.fingerprint (diag "unreachable"))

let test_baseline_partition_roundtrip () =
  let known = diag "known" and fresh = diag ~subject:"new_node" "fresh" in
  let base = Baseline.of_diags [ known ] in
  let f, s = Baseline.partition base [ known; fresh ] in
  Alcotest.(check int) "one fresh" 1 (List.length f);
  Alcotest.(check int) "one suppressed" 1 (List.length s);
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "base.json" in
      Baseline.save ~path base;
      (match Baseline.load ~path with
      | Error e -> Alcotest.fail e
      | Ok loaded ->
          Alcotest.(check (list string)) "round trip"
            (Baseline.fingerprints base)
            (Baseline.fingerprints loaded));
      (* a future-versioned file must be rejected, not half-read *)
      let oc = open_out path in
      output_string oc "{\"version\": 2, \"fingerprints\": []}";
      close_out oc;
      match Baseline.load ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted an unknown baseline version")

(* ---------- SARIF ---------- *)

let test_sarif_render () =
  let d = diag "node probe is unreachable" in
  let s = Json.to_string (Sarif.render ~suppressed:[ diag ~code:"V008" "x" ] [ d ]) in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("has " ^ sub) true (contains ~sub s))
    [
      "\"version\":\"2.1.0\"";
      "sarif-2.1.0.json";
      "\"name\":\"yieldlab\"";
      "\"ruleId\":\"A003\"";
      "\"level\":\"error\"";
      "\"uri\":\"a.cir\"";
      "\"yieldlab/v1\":\"b0c0058c50009ce8\"";
      "\"suppressions\":[{\"kind\":\"external\"}]";
    ];
  Alcotest.(check bool) "empty report still renders a run" true
    (contains ~sub:"\"results\":[]" (Json.to_string (Sarif.render [])))

let suites =
  [
    ( "analyse.interval",
      [
        Alcotest.test_case "outward rounding" `Quick test_interval_outward;
        Alcotest.test_case "set operations" `Quick test_interval_sets;
        Alcotest.test_case "fixpoint driver" `Quick test_fixpoint;
      ] );
    ( "spice.ac_topology",
      [
        Alcotest.test_case "AC vs DC issue sets" `Quick test_ac_vs_dc_issues;
        Alcotest.test_case "transfer pre-check raises Singular" `Quick
          test_ac_transfer_singular;
        Alcotest.test_case "sys-cached prechecks fire" `Quick
          test_sys_cached_prechecks;
      ] );
    ( "analyse.ac_tran",
      [
        Alcotest.test_case "A codes" `Quick test_ac_lint_codes;
        Alcotest.test_case "A003 fixture + clean lowpass" `Quick
          test_ac_lint_unreachable_fixture;
        Alcotest.test_case "R codes" `Quick test_tran_lint_codes;
        Alcotest.test_case "A004 fixtures + grid refusal" `Quick
          test_ac_lint_malformed_sweep_fixtures;
        Alcotest.test_case "N004-N006 non-finite fixtures" `Quick
          test_device_value_fixtures;
      ] );
    ( "behavioural.verilog_a_ast",
      [
        Alcotest.test_case "golden emission digest" `Quick test_va_golden;
        Alcotest.test_case "printer spacing rules" `Quick
          test_va_printer_spacing;
        Alcotest.test_case "parse round trip" `Quick test_va_parse_roundtrip;
        Alcotest.test_case "parse errors carry lines" `Quick
          test_va_parse_errors;
      ] );
    ( "analyse.va",
      [
        Alcotest.test_case "ports and def-use" `Quick
          test_va_lint_ports_and_defs;
        Alcotest.test_case "negative fixture + baseline" `Quick
          test_va_lint_fixture;
        Alcotest.test_case "emitted module lints clean" `Quick
          test_va_lint_emitted_module_clean;
        Alcotest.test_case "V006 spec window vs domain" `Quick
          test_va_lint_spec_window;
      ] );
    ( "analyse.baseline",
      [
        Alcotest.test_case "fingerprint identity" `Quick
          test_baseline_fingerprint;
        Alcotest.test_case "partition and persistence" `Quick
          test_baseline_partition_roundtrip;
      ] );
    ( "analyse.sarif",
      [ Alcotest.test_case "render golden fields" `Quick test_sarif_render ] );
  ]
