(* Tests for the yield_analyse preflight static analysis: the diagnostics
   core, the three lint passes, and — most importantly — the lint<->runtime
   contracts: whatever the linter calls an error must actually fail in the
   corresponding runtime component, and vice versa. *)

module Diagnostic = Yield_analyse.Diagnostic
module Netlist_lint = Yield_analyse.Netlist_lint
module Table_lint = Yield_analyse.Table_lint
module Config_lint = Yield_analyse.Config_lint
module Circuit = Yield_spice.Circuit
module Dcop = Yield_spice.Dcop
module Topology = Yield_spice.Topology
module Tech = Yield_process.Tech
module Tbl_io = Yield_table.Tbl_io
module Fault = Yield_resilience.Fault
module Config = Yield_core.Config
module Flow = Yield_core.Flow

let codes diags = List.map (fun d -> d.Diagnostic.code) (Diagnostic.sort diags)

let has_code code diags =
  List.exists (fun d -> d.Diagnostic.code = code) diags

let check_codes what expected diags =
  Alcotest.(check (list string)) what expected (codes diags)

(* ---------- diagnostics core ---------- *)

let d ?file ?line code severity subject =
  Diagnostic.make ?file ?line ~code ~severity ~subject "msg"

let test_sort_and_exit_codes () =
  let info = d "C005" Diagnostic.Info "dir" in
  let warn = d "N001" Diagnostic.Warning "n" in
  let err = d "T003" Diagnostic.Error "gain" in
  check_codes "severity order" [ "T003"; "N001"; "C005" ] [ info; warn; err ];
  Alcotest.(check int) "clean" 0 (Diagnostic.exit_code []);
  Alcotest.(check int) "info only" 0 (Diagnostic.exit_code [ info ]);
  Alcotest.(check int) "warning" 1 (Diagnostic.exit_code [ info; warn ]);
  Alcotest.(check int) "error" 2 (Diagnostic.exit_code [ warn; err ]);
  Alcotest.(check int) "count" 1 (Diagnostic.count Diagnostic.Error [ warn; err ])

let test_text_rendering () =
  let diag =
    Diagnostic.make ~file:"a.cir" ~line:12 ~code:"N002"
      ~severity:Diagnostic.Error ~subject:"g" "node g has no DC path to ground"
  in
  Alcotest.(check string)
    "to_text" "a.cir:12: error N002 [g]: node g has no DC path to ground"
    (Diagnostic.to_text diag);
  Alcotest.(check string)
    "summary only" "0 error(s), 0 warning(s), 0 info"
    (Diagnostic.list_to_text [])

(* the JSON shape is a stable machine interface: CI jobs and scripts match
   on it, so any change here is a breaking change *)
let test_json_golden () =
  let diags =
    [
      d "N001" Diagnostic.Warning "nx";
      Diagnostic.make ~file:"m.tbl" ~line:3 ~code:"T003"
        ~severity:Diagnostic.Error ~subject:"gain" "duplicate abscissa";
    ]
  in
  Alcotest.(check string)
    "list_to_json"
    "{\"version\":2,\"findings\":[{\"code\":\"T003\",\"severity\":\"error\",\"subject\":\"gain\",\"message\":\"duplicate abscissa\",\"file\":\"m.tbl\",\"line\":3,\"span\":null},{\"code\":\"N001\",\"severity\":\"warning\",\"subject\":\"nx\",\"message\":\"msg\",\"file\":null,\"line\":null,\"span\":null}],\"errors\":1,\"warnings\":1,\"infos\":0,\"worst\":\"error\"}"
    (Yield_obs.Json.to_string (Diagnostic.list_to_json diags))

(* ---------- netlist lint <-> Dcop contract ---------- *)

(* a resistive divider with a MOSFET whose gate connects to nothing else:
   the gate node has no DC path to ground AND is referenced only once *)
let floating_gate_circuit () =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"VDD" "vdd" "0" 3.3;
  Circuit.add_resistor c ~name:"R1" "vdd" "out" 10e3;
  Circuit.add_mosfet c ~name:"M1" ~d:"out" ~g:"gfloat" ~s:"0" ~b:"0"
    ~model:Tech.c35.Tech.nmos ~w:10e-6 ~l:1e-6;
  c

let test_floating_gate_contract () =
  let c = floating_gate_circuit () in
  let diags = Netlist_lint.check c in
  Alcotest.(check bool) "lint flags N002" true (has_code "N002" diags);
  Alcotest.(check bool) "lint flags N001" true (has_code "N001" diags);
  Alcotest.(check int) "exit code" 2 (Diagnostic.exit_code diags);
  (* the contract: what the linter calls an error must fail in Dcop, as a
     permanent (structural) failure, not a transient non-convergence *)
  match Dcop.solve c with
  | Ok _ -> Alcotest.fail "Dcop accepted a floating-gate circuit"
  | Error (Dcop.Singular_system _ as e) ->
      Alcotest.(check bool)
        "classified permanent" true
        (Dcop.classify_error e = Yield_resilience.Retry.Permanent)
  | Error (Dcop.No_convergence _) ->
      Alcotest.fail "structural failure misclassified as non-convergence"

let test_vsource_loop_contract () =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"V1" "a" "0" 1.;
  Circuit.add_vsource c ~name:"V2" "a" "0" 2.;
  Circuit.add_resistor c ~name:"R1" "a" "0" 1e3;
  let diags = Netlist_lint.check c in
  Alcotest.(check bool) "lint flags N003" true (has_code "N003" diags);
  match Dcop.solve c with
  | Ok _ -> Alcotest.fail "Dcop accepted a voltage-source loop"
  | Error (Dcop.Singular_system _) -> ()
  | Error e -> Alcotest.failf "unexpected error %s" (Dcop.error_to_string e)

let test_clean_circuit_clean_lint () =
  (* the contract's other direction on a known-good netlist: lint is clean
     and Dcop converges *)
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"V1" "in" "0" 1.;
  Circuit.add_resistor c ~name:"R1" "in" "out" 1e3;
  Circuit.add_resistor c ~name:"R2" "out" "0" 1e3;
  check_codes "no findings" [] (Netlist_lint.check c);
  match Dcop.solve c with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "Dcop failed: %s" (Dcop.error_to_string e)

let test_device_value_lint () =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"V1" "in" "0" 1.;
  Circuit.add_resistor c ~name:"R1" "in" "out" 0.;
  Circuit.add_resistor c ~name:"R2" "out" "0" 1e3;
  Circuit.add_mosfet c ~name:"M1" ~d:"out" ~g:"in" ~s:"0" ~b:"0"
    ~model:Tech.c35.Tech.nmos ~w:10e-6 ~l:0.1e-6;
  let diags = Netlist_lint.check ~tech:Tech.c35 c in
  Alcotest.(check bool) "N005 zero resistor" true (has_code "N005" diags);
  Alcotest.(check bool) "N007 sub-minimum L" true (has_code "N007" diags)

let test_symmetric_pair_lint () =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"VDD" "vdd" "0" 3.3;
  Circuit.add_resistor c ~name:"RB" "vdd" "g" 100e3;
  Circuit.add_resistor c ~name:"RG" "g" "0" 100e3;
  Circuit.add_mosfet c ~name:"x1.M1" ~d:"vdd" ~g:"g" ~s:"0" ~b:"0"
    ~model:Tech.c35.Tech.nmos ~w:10e-6 ~l:1e-6;
  Circuit.add_mosfet c ~name:"x1.M2" ~d:"vdd" ~g:"g" ~s:"0" ~b:"0"
    ~model:Tech.c35.Tech.nmos ~w:20e-6 ~l:1e-6;
  let diags = Netlist_lint.check ~pairs:[ ("M1", "M2") ] c in
  Alcotest.(check bool)
    "N008 via prefixed names" true (has_code "N008" diags);
  (* matched dimensions: no finding *)
  let c2 = Circuit.create () in
  Circuit.add_mosfet c2 ~name:"M1" ~d:"0" ~g:"0" ~s:"0" ~b:"0"
    ~model:Tech.c35.Tech.nmos ~w:10e-6 ~l:1e-6;
  Circuit.add_mosfet c2 ~name:"M2" ~d:"0" ~g:"0" ~s:"0" ~b:"0"
    ~model:Tech.c35.Tech.nmos ~w:10e-6 ~l:1e-6;
  Alcotest.(check bool)
    "matched pair clean" false
    (has_code "N008" (Netlist_lint.check ~pairs:[ ("M1", "M2") ] c2))

let test_ota_testbench_lints_clean () =
  (* the flow's own preflight subject: the shipped OTA testbench at its
     default sizing must produce zero findings *)
  let circuit, _ = Yield_circuits.Ota_testbench.build Yield_circuits.Ota.default_params in
  check_codes "OTA testbench clean" []
    (Netlist_lint.check ~tech:Tech.c35
       ~pairs:Yield_circuits.Ota.symmetric_pairs circuit)

let test_netlist_check_file () =
  let path = Filename.temp_file "yieldlab" ".cir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "V1 in 0 1.0\nR1 in out 1k\nR2 out 0 1k\n";
      close_out oc;
      check_codes "file clean" [] (Netlist_lint.check_file path);
      let oc = open_out path in
      output_string oc "V1 in 0 1.0\nR1 in out not-a-number\n";
      close_out oc;
      match Netlist_lint.check_file path with
      | [ diag ] ->
          Alcotest.(check string) "N000" "N000" diag.Diagnostic.code;
          Alcotest.(check (option int)) "line" (Some 2) diag.Diagnostic.line;
          (match diag.Diagnostic.span with
          | Some s ->
              Alcotest.(check int) "span line" 2 s.Diagnostic.start_line;
              Alcotest.(check bool) "span col" true (s.Diagnostic.start_col > 1)
          | None -> Alcotest.fail "N000 should carry a span")
      | diags -> Alcotest.failf "expected one N000, got %d findings" (List.length diags))

(* ---------- table lint <-> Tbl_io contract ---------- *)

let tbl ~columns rows =
  Tbl_io.create ~columns:(Array.of_list columns)
    ~rows:(Array.of_list (List.map Array.of_list rows))

let test_table_monotone_contract () =
  let bad =
    tbl ~columns:[ "gain"; "dgain" ]
      [ [ 50.; 1. ]; [ 52.; 2. ]; [ 52.; 3. ]; [ 55.; 4. ] ]
  in
  let diags = Table_lint.check ~axes:[ "gain" ] bad in
  Alcotest.(check bool) "lint flags T003" true (has_code "T003" diags);
  (* the contract: the linter and the strict reader agree, via the shared
     Tbl_io.monotone_column implementation *)
  let path = Filename.temp_file "yieldlab" ".tbl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tbl_io.write ~path bad;
      (match Tbl_io.read_strict ~path ~axes:[ "gain" ] with
      | Ok _ -> Alcotest.fail "read_strict accepted a duplicate abscissa"
      | Error e ->
          Alcotest.(check bool)
            "error mentions the column" true
            (String.length (Tbl_io.read_error_to_string e) > 0));
      Alcotest.(check bool)
        "check_file agrees" true
        (has_code "T003" (Table_lint.check_file ~axes:[ "gain" ] path));
      (* and the good table passes both *)
      let good =
        tbl ~columns:[ "gain"; "dgain" ]
          [ [ 50.; 1. ]; [ 52.; 2. ]; [ 55.; 4. ] ]
      in
      Tbl_io.write ~path good;
      (match Tbl_io.read_strict ~path ~axes:[ "gain" ] with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "read_strict rejected a good table: %s"
                     (Tbl_io.read_error_to_string e));
      check_codes "good table clean" []
        (Table_lint.check_file ~axes:[ "gain" ] path))

let test_table_value_lints () =
  let nan_table =
    tbl ~columns:[ "x"; "y" ] [ [ 0.; 1. ]; [ 1.; Float.nan ] ]
  in
  Alcotest.(check bool)
    "T002 NaN cell" true
    (has_code "T002" (Table_lint.check nan_table));
  let short = tbl ~columns:[ "x" ] [ [ 0. ] ] in
  Alcotest.(check bool)
    "T005 single row" true
    (has_code "T005" (Table_lint.check short));
  let dup =
    tbl ~columns:[ "x"; "x" ] [ [ 0.; 1. ]; [ 1.; 2. ] ]
  in
  Alcotest.(check bool)
    "T006 duplicate column" true
    (has_code "T006" (Table_lint.check dup))

let test_table_control_lints () =
  let t = tbl ~columns:[ "x"; "y" ] [ [ 0.; 1. ]; [ 1.; 2. ] ] in
  Alcotest.(check bool)
    "consistent control clean" false
    (has_code "T004" (Table_lint.check ~axes:[ "x" ] ~control:"3E" t));
  Alcotest.(check bool)
    "token count mismatch" true
    (has_code "T004" (Table_lint.check ~axes:[ "x" ] ~control:"3E,1C" t));
  Alcotest.(check bool)
    "garbage control" true
    (has_code "T004" (Table_lint.check ~axes:[ "x" ] ~control:"9Z" t))

let test_spec_coverage () =
  let t007 =
    Table_lint.spec_coverage ~control:"3E" ~axis:"gain" ~lo:45. ~hi:60.
      ~query:70. ()
  in
  Alcotest.(check bool) "outside domain under 3E" true (has_code "T007" t007);
  check_codes "inside domain" []
    (Table_lint.spec_coverage ~control:"3E" ~axis:"gain" ~lo:45. ~hi:60.
       ~query:50. ());
  check_codes "clamping control extrapolates" []
    (Table_lint.spec_coverage ~control:"3C" ~axis:"gain" ~lo:45. ~hi:60.
       ~query:70. ())

(* ---------- config lint ---------- *)

let view =
  {
    Config_lint.population = 100;
    generations = 100;
    mc_samples = 200;
    front_stride = 1;
    control = "3E";
    seed = 2008;
    jobs = 1;
    fingerprint = "v1;test";
  }

let test_config_lint () =
  check_codes "paper-scale clean" [] (Config_lint.check view);
  Alcotest.(check bool)
    "C001 non-positive" true
    (has_code "C001" (Config_lint.check { view with Config_lint.population = 0 }));
  (* C002: below the degradation threshold every point is skipped — error;
     just above it — warning *)
  let starved = Config_lint.check { view with Config_lint.mc_samples = 4 } in
  Alcotest.(check int) "C002 starved is an error" 2 (Diagnostic.exit_code starved);
  Alcotest.(check bool) "C002" true (has_code "C002" starved);
  let tight =
    Config_lint.check
      { view with Config_lint.mc_samples = Config_lint.min_valid_mc_samples }
  in
  Alcotest.(check int) "C002 tight is a warning" 1 (Diagnostic.exit_code tight);
  Alcotest.(check bool)
    "C003 oversized stride" true
    (has_code "C003" (Config_lint.check { view with Config_lint.front_stride = 60 }));
  Alcotest.(check bool)
    "C004 bad control" true
    (has_code "C004" (Config_lint.check { view with Config_lint.control = "bogus" }))

(* one non-positive-count check, shared by the preflight's scale fields
   and the count flags optimize and mc refuse before simulating *)
let test_positive_counts () =
  let texts diags = List.map Diagnostic.to_text diags in
  Alcotest.(check (list string)) "zero flag refused"
    [ "error C001 [--population]: --population must be positive (got 0)" ]
    (texts (Config_lint.positive ~subject:"--population" 0));
  Alcotest.(check (list string)) "negative flag refused"
    [ "error C001 [--samples]: --samples must be positive (got -4)" ]
    (texts (Config_lint.positive ~subject:"--samples" (-4)));
  Alcotest.(check (list string)) "positive accepted" []
    (texts (Config_lint.positive ~subject:"--generations" 1));
  Alcotest.(check int) "an error: exit 2" 2
    (Diagnostic.exit_code (Config_lint.positive ~subject:"--samples" 0));
  Alcotest.(check (list string)) "the preflight's own finding"
    (texts (Config_lint.positive ~subject:"mc_samples" 0))
    (texts (Config_lint.check { view with Config_lint.mc_samples = 0 }))

let test_config_lint_checkpoint () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "yieldlab-analyse-%d" (Unix.getpid ()))
  in
  Yield_resilience.Atomic_io.mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      (* missing dir: informational "fresh" finding *)
      let fresh =
        Config_lint.check ~checkpoint_dir:(dir ^ "-nonexistent") view
      in
      Alcotest.(check bool) "C005 fresh" true (has_code "C005" fresh);
      Alcotest.(check int) "fresh is clean" 0 (Diagnostic.exit_code fresh);
      (* a checkpoint recorded under a different fingerprint: error *)
      let c = Yield_resilience.Checkpoint.create ~dir in
      (match Yield_resilience.Checkpoint.check_fingerprint c "v1;other" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "seeding the checkpoint failed: %s" e);
      let mismatch = Config_lint.check ~checkpoint_dir:dir view in
      Alcotest.(check bool) "C005 mismatch" true (has_code "C005" mismatch);
      Alcotest.(check int) "mismatch is an error" 2
        (Diagnostic.exit_code mismatch))

(* ---------- fault-spec lint ---------- *)

let test_fault_spec_lint () =
  (* the registry holds every point the host modules registered at module
     init: the documented CLI names must all be present *)
  let known = Fault.known () in
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " registered") true (List.mem p known))
    [
      "dcop.solve"; "dcop.newton"; "dcop.gmin"; "ac.solve"; "mc.sample";
      "tbl.write"; "flow.wbga.generation"; "flow.mc.point";
    ];
  check_codes "valid spec clean" []
    (Config_lint.check_fault_spec "dcop.solve:rate=0.2,seed=42;tbl.write:at=1");
  Alcotest.(check bool)
    "F001 parse error" true
    (has_code "F001" (Config_lint.check_fault_spec "dcop.solve:rate=???"));
  (let diags = Config_lint.check_fault_spec "dcop.solv:rate=0.1" in
   Alcotest.(check bool) "F002 typo" true (has_code "F002" diags);
   Alcotest.(check int) "typo is an error" 2 (Diagnostic.exit_code diags));
  let dead = Config_lint.check_fault_spec "dcop.solve:rate=0" in
  Alcotest.(check bool) "F003 never fires" true (has_code "F003" dead);
  Alcotest.(check int) "dead schedule is a warning" 1
    (Diagnostic.exit_code dead)

(* ---------- flow preflight ---------- *)

let test_flow_preflight_rejects () =
  (* mc_samples below the degradation threshold can only starve: the
     preflight must abort before any simulation runs *)
  let config = { Config.fast_scale with Config.mc_samples = 4 } in
  match Flow.run config with
  | exception Flow.Refused diags ->
      Alcotest.(check bool) "carries the finding" true (has_code "C002" diags);
      Alcotest.(check int) "an error: exit 2" 2 (Diagnostic.exit_code diags)
  | _ -> Alcotest.fail "preflight accepted a starving configuration"

let suites =
  [
    ( "analyse.diagnostic",
      [
        Alcotest.test_case "sort and exit codes" `Quick
          test_sort_and_exit_codes;
        Alcotest.test_case "text rendering" `Quick test_text_rendering;
        Alcotest.test_case "JSON golden" `Quick test_json_golden;
      ] );
    ( "analyse.netlist",
      [
        Alcotest.test_case "floating gate: lint + Dcop agree" `Quick
          test_floating_gate_contract;
        Alcotest.test_case "vsource loop: lint + Dcop agree" `Quick
          test_vsource_loop_contract;
        Alcotest.test_case "clean circuit, clean lint" `Quick
          test_clean_circuit_clean_lint;
        Alcotest.test_case "device value checks" `Quick test_device_value_lint;
        Alcotest.test_case "symmetric pairs" `Quick test_symmetric_pair_lint;
        Alcotest.test_case "OTA testbench lints clean" `Quick
          test_ota_testbench_lints_clean;
        Alcotest.test_case "check_file" `Quick test_netlist_check_file;
      ] );
    ( "analyse.table",
      [
        Alcotest.test_case "monotone axis: lint + read_strict agree" `Quick
          test_table_monotone_contract;
        Alcotest.test_case "NaN / short / duplicate columns" `Quick
          test_table_value_lints;
        Alcotest.test_case "control consistency" `Quick
          test_table_control_lints;
        Alcotest.test_case "spec coverage under 3E" `Quick test_spec_coverage;
      ] );
    ( "analyse.config",
      [
        Alcotest.test_case "scale and control checks" `Quick test_config_lint;
        Alcotest.test_case "positive counts" `Quick test_positive_counts;
        Alcotest.test_case "checkpoint dry-run" `Quick
          test_config_lint_checkpoint;
        Alcotest.test_case "fault-spec validation" `Quick test_fault_spec_lint;
      ] );
    ( "analyse.preflight",
      [
        Alcotest.test_case "Flow.run rejects a starving config" `Quick
          test_flow_preflight_rejects;
      ] );
  ]
