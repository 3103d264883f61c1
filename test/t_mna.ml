(* Tests for the compiled MNA stamp plan: every assembled value slot and
   right-hand-side bit against the closure-based reference assembly in
   mna_ref.ml, every Mosfet.eval field against the reference model, the
   step-response and noise digests recorded before the plan existed, the
   words an assembly may allocate, and the binding of a plan to its
   system. *)

module Vec = Yield_numeric.Vec
module Linsys = Yield_numeric.Linsys
module Circuit = Yield_spice.Circuit
module Device = Yield_spice.Device
module Mna = Yield_spice.Mna
module Mosfet = Yield_spice.Mosfet
module Dcop = Yield_spice.Dcop
module Rng = Yield_stats.Rng
module Variation = Yield_process.Variation
module Gtb = Yield_circuits.Testbench
module Ota_tb = Gtb.Make (Yield_circuits.Ota)
module Miller_tb = Gtb.Make (Yield_circuits.Miller)

(* ---------- digests of whole analyses ---------- *)

(* MD5 of "%h;" over the floats in order *)
let digest_floats floats =
  let b = Buffer.create 4096 in
  List.iter (fun a -> Array.iter (fun x -> Printf.bprintf b "%h;" x) a) floats;
  Digest.to_hex (Digest.string (Buffer.contents b))

let step_digest = function
  | Some (times, values) -> digest_floats [ times; values ]
  | None -> Alcotest.fail "step response failed"

let noise_digest = function
  | Some (pairs, rms) ->
      digest_floats [ Array.map fst pairs; Array.map snd pairs; [| rms |] ]
  | None -> Alcotest.fail "noise analysis failed"

let test_digests () =
  let check what want got = Alcotest.(check string) what want got in
  check "ota step_response" "7c17a7e381cc8d5a02674e54e89d737c"
    (step_digest (Ota_tb.step_response Yield_circuits.Ota.default_params));
  check "miller step_response" "1e9c8d005d2c73cd7e0dbbffc7b5004e"
    (step_digest (Miller_tb.step_response Yield_circuits.Miller.default_params));
  check "ota input_referred_noise" "3a89c82a5eae59c54779a43c44e015cd"
    (noise_digest
       (Ota_tb.input_referred_noise Yield_circuits.Ota.default_params));
  check "miller input_referred_noise" "f451eb924c1a563f0b483888800e3483"
    (noise_digest
       (Miller_tb.input_referred_noise Yield_circuits.Miller.default_params))

(* ---------- assembled slots against the reference assembly ---------- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Where two NaNs of opposite sign meet in one operation, x86 returns the
   first operand's, so the sign of the result is the operand order the
   compiler picked for that instruction: the source fixes it for neither
   the replay nor the reference.  Inputs that make such NaNs are compared
   up to the NaN's sign; every other input bit for bit. *)
let same_up_to_nan_sign a b = same_bits a b || (Float.is_nan a && Float.is_nan b)

let check_floats ?(same = same_bits) what expect got =
  Alcotest.(check int) (what ^ " length") (Array.length expect) (Array.length got);
  Array.iteri
    (fun k e ->
      if not (same e got.(k)) then
        Alcotest.failf "%s.(%d) = %h, reference %h" what k got.(k) e)
    expect

let check_complexes what expect got =
  check_floats (what ^ " re") (Array.map (fun z -> z.Complex.re) expect)
    (Array.map (fun z -> z.Complex.re) got);
  check_floats (what ^ " im") (Array.map (fun z -> z.Complex.im) expect)
    (Array.map (fun z -> z.Complex.im) got)

let testbenches () =
  [
    ("ota", fst (Ota_tb.build Yield_circuits.Ota.default_params));
    ("miller", fst (Miller_tb.build Yield_circuits.Miller.default_params));
  ]

let initial_guess circuit layout =
  let x = Vec.create (Mna.size layout) in
  List.iter
    (fun (node, v) -> if node <> Device.ground then x.(node - 1) <- v)
    (Circuit.nodesets circuit);
  x

(* One damped Newton run from the initial guess at a fixed gmin and source
   scale, assembling every iterate into two workspaces of one sys: by the
   plan replay and by the reference.  Returns the last iterate. *)
let newton_compare ?same what ?models circuit sys ~source_scale ~gmin
    ~iterations x0 =
  let layout = Mna.sys_layout sys in
  let rs = Mna.sys_real sys and reference = Mna.sys_real sys in
  let x = Array.copy x0 in
  for it = 1 to iterations do
    let what = Printf.sprintf "%s iteration %d" what it in
    let rhs =
      Mna.assemble_dc_into rs ?models circuit layout ~x ~source_scale ~gmin
    in
    let rhs' =
      Mna_ref.assemble_dc_into reference ?models circuit layout ~x ~source_scale
        ~gmin
    in
    check_floats ?same (what ^ " values") reference.Linsys.values
      rs.Linsys.values;
    check_floats ?same (what ^ " rhs") rhs' rhs;
    match rs.Linsys.solve rhs with
    | exception Yield_numeric.Lu.Singular _ -> ()
    | x_new ->
        Array.iteri
          (fun k xk ->
            let dk = xk -. x.(k) in
            let dk =
              if k < Mna.n_nodes layout then Float.max (-0.5) (Float.min 0.5 dk)
              else dk
            in
            x.(k) <- x.(k) +. dk)
          x_new
  done;
  x

let check_ac_slots what ?models circuit sys ~x =
  let layout = Mna.sys_layout sys in
  let ops_list = Mna.mos_operating_points ?models circuit ~x in
  let ops name = List.assoc name ops_list in
  let cs = Mna.sys_complex sys and cref = Mna.sys_complex sys in
  let rhs = Mna.assemble_ac_into cs circuit layout ~ops in
  let rhs' = Mna_ref.assemble_ac_into cref circuit layout ~ops in
  check_floats (what ^ " G") cref.Linsys.gvalues cs.Linsys.gvalues;
  check_floats (what ^ " C") cref.Linsys.cvalues cs.Linsys.cvalues;
  check_complexes (what ^ " ac rhs") rhs' rhs

let test_slots_bit_exact backend () =
  List.iter
    (fun (name, circuit) ->
      let sys = Mna.sys ~backend circuit in
      let what = Linsys.backend_name backend ^ " " ^ name in
      let x0 = initial_guess circuit (Mna.sys_layout sys) in
      (* the nominal damped Newton run, then the homotopy stages Dcop
         falls back on: the gmin ladder and the source ramp *)
      let x =
        newton_compare (what ^ " newton") circuit sys ~source_scale:1.
          ~gmin:1e-12 ~iterations:25 x0
      in
      check_ac_slots (what ^ " nominal") circuit sys ~x;
      List.iter
        (fun gmin ->
          ignore
            (newton_compare
               (Printf.sprintf "%s gmin %g" what gmin)
               circuit sys ~source_scale:1. ~gmin ~iterations:3 x0))
        [ 1e-3; 1e-5; 1e-7; 1e-9; 1e-11 ];
      List.iter
        (fun source_scale ->
          ignore
            (newton_compare
               (Printf.sprintf "%s source %g" what source_scale)
               circuit sys ~source_scale ~gmin:1e-12 ~iterations:3 x0))
        [ 0.05; 0.1; 0.2; 0.4; 0.6; 0.8; 0.9 ];
      (* a NaN or infinite guess: inf - inf and the sign flips of the
         model meet NaNs of both signs, see [same_up_to_nan_sign] *)
      List.iter
        (fun (label, v) ->
          ignore
            (newton_compare ~same:same_up_to_nan_sign
               (Printf.sprintf "%s %s guess" what label)
               circuit sys ~source_scale:1. ~gmin:1e-12 ~iterations:1
               (Array.mapi (fun k x -> if k mod 2 = 0 then v else x) x0)))
        [ ("nan", nan); ("-nan", -.nan); ("inf", infinity) ];
      (* per-sample model overrides, as every Monte Carlo sample assembles *)
      for seed = 1 to 4 do
        let models =
          Variation.overrides Variation.default_spec (Rng.create seed) circuit
        in
        let what = Printf.sprintf "%s overrides %d" what seed in
        let x =
          newton_compare what ~models circuit sys ~source_scale:1. ~gmin:1e-12
            ~iterations:12 x0
        in
        check_ac_slots what ~models circuit sys ~x
      done)
    (testbenches ())

(* One NaN per slot: a NaN resistor, transconductance and capacitor on
   positions no other stamp shares.  The sign of each assembled NaN is
   then fixed by the operand form alone: [-.g] flips it, [-1. *. g] keeps
   it. *)
let test_nan_operand_forms () =
  List.iter
    (fun v ->
      let c = Circuit.create () in
      Circuit.add_vsource c ~name:"V1" ~ac:1. "a" "0" 1.;
      Circuit.add_resistor c ~name:"R1" "a" "b" v;
      Circuit.add_resistor c ~name:"R2" "b" "0" 1e3;
      Circuit.add_resistor c ~name:"R3" "c" "0" 1e3;
      Circuit.add_resistor c ~name:"R4" "d" "0" 1e3;
      Circuit.add_vccs c ~name:"G1" ~out_p:"c" ~out_n:"0" ~in_p:"a" ~in_n:"d" v;
      Circuit.add_capacitor c ~name:"C1" "a" "b" v;
      List.iter
        (fun backend ->
          let sys = Mna.sys ~backend c in
          let what = Printf.sprintf "%s %h" (Linsys.backend_name backend) v in
          ignore
            (newton_compare what c sys ~source_scale:1. ~gmin:1e-12 ~iterations:1
               (Array.make (Mna.size (Mna.sys_layout sys)) 0.));
          check_ac_slots what c sys ~x:(Array.make (Mna.size (Mna.sys_layout sys)) 0.))
        [ Linsys.Dense; Linsys.Csr ])
    [ nan; -.nan ]

(* ---------- Mosfet.eval against the reference model ---------- *)

let check_op ?(same = same_bits) what (e : Mosfet.op) (g : Mosfet.op) =
  let field name a b =
    if not (same a b) then
      Alcotest.failf "%s: %s = %h, reference %h" what name b a
  in
  field "ids" e.ids g.ids;
  field "gm" e.gm g.gm;
  field "gds" e.gds g.gds;
  field "gmb" e.gmb g.gmb;
  field "vth" e.vth g.vth;
  field "vdsat" e.vdsat g.vdsat;
  field "vgs" e.vgs g.vgs;
  field "vds" e.vds g.vds;
  field "vbs" e.vbs g.vbs;
  field "cgs" e.cgs g.cgs;
  field "cgd" e.cgd g.cgd;
  field "cdb" e.cdb g.cdb;
  field "csb" e.csb g.csb;
  if e.region <> g.region then
    Alcotest.failf "%s: region %s, reference %s" what
      (Mosfet.region_to_string g.region)
      (Mosfet.region_to_string e.region)

let test_eval_bit_exact () =
  let tech = Yield_process.Tech.c35 in
  let st = Random.State.make [| 18 |] in
  let range lo hi = lo +. Random.State.float st (hi -. lo) in
  let compare_at what model ~w ~l ~vgs ~vds ~vbs =
    let finite = Float.is_finite vgs && Float.is_finite vds && Float.is_finite vbs in
    check_op
      ~same:(if finite then same_bits else same_up_to_nan_sign)
      what
      (Mna_ref.eval model ~w ~l ~vgs ~vds ~vbs)
      (Mosfet.eval model ~w ~l ~vgs ~vds ~vbs)
  in
  List.iter
    (fun (pol, model) ->
      for k = 1 to 2000 do
        let w = range 0.5e-6 200e-6 and l = range 0.35e-6 10e-6 in
        (* biases from ordinary operation out to every edge: reversed vds,
           overdrives far past |x/2| = 40 on both sides of the softplus,
           and forward body bias beyond phi, where the sqrt clamps *)
        let vgs = range (-6.) 6. and vds = range (-4.) 4. in
        let vbs = if k mod 4 = 0 then range 0.6 3. else range (-3.) 0.2 in
        compare_at (Printf.sprintf "%s #%d" pol k) model ~w ~l ~vgs ~vds ~vbs
      done;
      List.iteri
        (fun k (vgs, vds, vbs) ->
          compare_at (Printf.sprintf "%s edge %d" pol k) model ~w:10e-6 ~l:1e-6
            ~vgs ~vds ~vbs)
        [
          (0.9, 0., 0.);
          (0.9, -0., 0.);
          (40., 1., 0.);
          (-40., 1., 0.);
          (1.2, -3., 0.);
          (1.2, 1., model.Mosfet.phi);
          (1.2, 1., 5.);
          (nan, 1., 0.);
          (1., nan, 0.);
          (1., 1., nan);
          (infinity, 1., 0.);
          (1., neg_infinity, 0.);
        ])
    [ ("nmos", tech.Yield_process.Tech.nmos); ("pmos", tech.Yield_process.Tech.pmos) ]

(* ---------- allocation and binding ---------- *)

let words f =
  ignore (Sys.opaque_identity (f ()));
  let runs = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int runs

(* An assembly allocates its right-hand side and one Mosfet buffer, and
   nothing per device: at most 64 words on either testbench, and the same
   words again with 16 more MOSFETs on the same nodes. *)
let test_assembly_allocation () =
  let nmos = Yield_process.Tech.c35.Yield_process.Tech.nmos in
  let assembly_words circuit ~x =
    List.map
      (fun backend ->
        let sys = Mna.sys ~backend circuit in
        let layout = Mna.sys_layout sys in
        let rs = Mna.sys_real sys and cs = Mna.sys_complex sys in
        let ops_list = Mna.mos_operating_points circuit ~x in
        let ops name = List.assoc name ops_list in
        ( Linsys.backend_name backend,
          words (fun () ->
              Mna.assemble_dc_into rs circuit layout ~x ~source_scale:1.
                ~gmin:1e-12),
          words (fun () -> Mna.assemble_ac_into cs circuit layout ~ops) ))
      [ Linsys.Dense; Linsys.Csr ]
  in
  List.iter
    (fun (name, build) ->
      let circuit, out = build () in
      let x =
        match Dcop.solve circuit with
        | Ok op -> op.Dcop.x
        | Error e -> Alcotest.fail (Dcop.error_to_string e)
      in
      let base = assembly_words circuit ~x in
      List.iter
        (fun (backend, dc, ac) ->
          let what = backend ^ " " ^ name in
          if dc > 64. then Alcotest.failf "%s: a DC assembly allocated %g words" what dc;
          if ac > 64. then Alcotest.failf "%s: an AC assembly allocated %g words" what ac)
        base;
      let more, _ = build () in
      for k = 1 to 16 do
        Circuit.add_mosfet more ~name:(Printf.sprintf "MX%d" k) ~d:out ~g:out
          ~s:"0" ~b:"0" ~model:nmos ~w:1e-6 ~l:1e-6
      done;
      Alcotest.(check int) (name ^ " devices added")
        (Array.length (Circuit.devices circuit) + 16)
        (Array.length (Circuit.devices more));
      List.iter2
        (fun (backend, dc, ac) (_, dc', ac') ->
          let what = backend ^ " " ^ name ^ " + 16 MOSFETs" in
          Alcotest.(check (float 0.)) (what ^ " DC words") dc dc';
          Alcotest.(check (float 0.)) (what ^ " AC words") ac ac')
        base (assembly_words more ~x))
    [
      ("ota", fun () -> Ota_tb.build Yield_circuits.Ota.default_params);
      ("miller", fun () -> Miller_tb.build Yield_circuits.Miller.default_params);
    ]

(* A plan replays only into workspaces of the sys that built it, even a
   sys of the same circuit and backend. *)
let test_cross_sys_refused () =
  let circuit = fst (Miller_tb.build Yield_circuits.Miller.default_params) in
  List.iter
    (fun backend ->
      let a = Mna.sys ~backend circuit and b = Mna.sys ~backend circuit in
      let layout = Mna.sys_layout a in
      let x = Array.make (Mna.size layout) 0. in
      let refused what f =
        match f () with
        | exception Invalid_argument _ -> ()
        | _ ->
            Alcotest.failf "%s %s: a workspace of another sys was accepted"
              (Linsys.backend_name backend) what
      in
      refused "dc" (fun () ->
          ignore
            (Mna.assemble_dc_into (Mna.sys_real b) circuit layout ~x
               ~source_scale:1. ~gmin:1e-12));
      refused "ac" (fun () ->
          ignore
            (Mna.assemble_ac_into (Mna.sys_complex b) circuit layout
               ~ops:(fun _ -> Alcotest.fail "stamped before the check")));
      refused "device" (fun () ->
          Mna.stamp_device_dc (Mna.sys_real b) layout circuit 0 ~x
            ~scratch:(Mosfet.buffer ()) (Array.make (Mna.size layout) 0.));
      (* the sys's own workspaces are accepted *)
      ignore
        (Mna.assemble_dc_into (Mna.sys_real a) circuit layout ~x ~source_scale:1.
           ~gmin:1e-12))
    [ Linsys.Dense; Linsys.Csr ]

let suites =
  [
    ( "spice.mna_plan",
      [
        Alcotest.test_case "dense slots bit-exact (ota, miller)" `Quick
          (test_slots_bit_exact Linsys.Dense);
        Alcotest.test_case "csr slots bit-exact (ota, miller)" `Quick
          (test_slots_bit_exact Linsys.Csr);
        Alcotest.test_case "NaN operand forms" `Quick test_nan_operand_forms;
        Alcotest.test_case "eval fields bit-exact" `Quick test_eval_bit_exact;
        Alcotest.test_case "step and noise digests" `Quick test_digests;
        Alcotest.test_case "assembly allocation" `Quick test_assembly_allocation;
        Alcotest.test_case "cross-sys replay refused" `Quick
          test_cross_sys_refused;
      ] );
  ]
