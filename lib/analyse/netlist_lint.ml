module Circuit = Yield_spice.Circuit
module Device = Yield_spice.Device
module Mosfet = Yield_spice.Mosfet
module Ast = Yield_spice.Netlist_ast
module Parser = Yield_spice.Netlist_parser
module Elab = Yield_spice.Netlist_elab
module Topology = Yield_spice.Topology
module Tech = Yield_process.Tech

let diag = Diagnostic.make

(* spans for circuit-level findings come from the elaboration provenance
   tables, when the circuit was read from a file *)
let node_span origin name =
  Option.bind origin (fun (o : Elab.origin) ->
      Option.map Diagnostic.span_of_ast (Hashtbl.find_opt o.Elab.nodes name))

let device_span origin name =
  Option.bind origin (fun (o : Elab.origin) ->
      Option.map Diagnostic.span_of_ast (Hashtbl.find_opt o.Elab.devices name))

let structural ?file ?origin circuit =
  List.map
    (fun issue ->
      match issue with
      | Topology.No_dc_path { node } ->
          diag ?file ?span:(node_span origin node) ~code:"N002"
            ~severity:Diagnostic.Error ~subject:node
            (Topology.issue_to_string issue
            ^ " — the MNA system is singular; Dcop will fail")
      | Topology.No_ac_path { node } ->
          (* dc_issues never produces this (AC edges are a superset of DC
             edges, so an AC-floating node is DC-floating too and reported
             as N002); keep the match exhaustive for the strict build *)
          diag ?file ?span:(node_span origin node) ~code:"N002"
            ~severity:Diagnostic.Error ~subject:node
            (Topology.issue_to_string issue
            ^ " — the MNA system is singular; Dcop will fail")
      | Topology.Vsource_loop { through } ->
          diag ?file ?span:(device_span origin through) ~code:"N003"
            ~severity:Diagnostic.Error ~subject:through
            (Topology.issue_to_string issue
            ^ " — the MNA system is singular; Dcop will fail"))
    (Topology.dc_issues circuit)

let dangling ?file ?origin circuit =
  List.map
    (fun (node, device) ->
      diag ?file ?span:(node_span origin node) ~code:"N001"
        ~severity:Diagnostic.Warning ~subject:node
        (Printf.sprintf
           "node %s is referenced only by device %s — dangling terminal?"
           node device))
    (Topology.dangling_nodes circuit)

(* N004-N006 refuse every value the simulator cannot use: the solver
   refuses the same decks ([yieldlab netlist] exits 2 on them), and the
   interval lints skip the devices they name *)
let fault ~finite ~otherwise = if finite then otherwise else "non-finite"

let device_values ?file ?origin ?tech circuit =
  let out = ref [] in
  let push d = out := d :: !out in
  Array.iter
    (fun dev ->
      match dev with
      | Device.Mosfet { name; w; l; _ } ->
          let span = device_span origin name in
          if not (Mosfet.valid_geometry w l) then
            push
              (diag ?file ?span ~code:"N004" ~severity:Diagnostic.Error
                 ~subject:name
                 (Printf.sprintf "MOSFET %s has %s geometry (w=%g m, l=%g m)"
                    name
                    (fault
                       ~finite:(Float.is_finite w && Float.is_finite l)
                       ~otherwise:"non-positive")
                    w l))
          else begin
            match tech with
            | Some t when l < t.Tech.l_min || w < t.Tech.l_min ->
                push
                  (diag ?file ?span ~code:"N007" ~severity:Diagnostic.Warning
                     ~subject:name
                     (Printf.sprintf
                        "MOSFET %s (w=%g m, l=%g m) is below the %s minimum \
                         channel length %g m"
                        name w l t.Tech.name t.Tech.l_min))
            | Some _ | None -> ()
          end
      | Device.Resistor { name; ohms; _ } ->
          if not (Float.is_finite ohms && ohms > 0.) then
            push
              (diag ?file
                 ?span:(device_span origin name)
                 ~code:"N005" ~severity:Diagnostic.Error ~subject:name
                 (Printf.sprintf "resistor %s has %s resistance %g Ohm" name
                    (fault ~finite:(Float.is_finite ohms) ~otherwise:"non-positive")
                    ohms))
      | Device.Capacitor { name; farads; _ } ->
          if not (Float.is_finite farads && farads >= 0.) then
            push
              (diag ?file
                 ?span:(device_span origin name)
                 ~code:"N006" ~severity:Diagnostic.Error ~subject:name
                 (Printf.sprintf "capacitor %s has %s capacitance %g F" name
                    (fault ~finite:(Float.is_finite farads) ~otherwise:"negative")
                    farads))
      | Device.Vsource _ | Device.Isource _ | Device.Vccs _ -> ())
    (Circuit.devices circuit);
  List.rev !out

(* a pair name matches the device called exactly that, or with any
   "<prefix>." in front (builder and subckt-flattening prefixes) *)
let name_matches ~pair_name device_name =
  device_name = pair_name
  ||
  let np = String.length pair_name and nd = String.length device_name in
  nd > np + 1
  && device_name.[nd - np - 1] = '.'
  && String.sub device_name (nd - np) np = pair_name

let mosfets_named circuit pair_name =
  Array.to_list (Circuit.devices circuit)
  |> List.filter_map (fun dev ->
         match dev with
         | Device.Mosfet { name; w; l; _ } when name_matches ~pair_name name ->
             Some (name, w, l)
         | _ -> None)

let symmetric_pairs ?file ?origin circuit pairs =
  List.concat_map
    (fun (a, b) ->
      match (mosfets_named circuit a, mosfets_named circuit b) with
      | (na, wa, la) :: _, (nb, wb, lb) :: _ when wa <> wb || la <> lb ->
          [
            diag ?file
              ?span:(device_span origin na)
              ~code:"N008" ~severity:Diagnostic.Warning
              ~subject:(na ^ "/" ^ nb)
              (Printf.sprintf
                 "symmetric pair %s/%s mismatched: w=%g/%g m, l=%g/%g m" na nb
                 wa wb la lb);
          ]
      | _ -> [])
    pairs

let check ?file ?origin ?tech ?(pairs = []) circuit =
  structural ?file ?origin circuit
  @ device_values ?file ?origin ?tech circuit
  @ dangling ?file ?origin circuit
  @ symmetric_pairs ?file ?origin circuit pairs

(* ---------- AST checks: hierarchy and parameters, pre-elaboration ---------- *)

let at span = Printf.sprintf "line %d:%d" span.Ast.start_line span.Ast.start_col

(* every card of the netlist with the scope it appears in: "" for top level,
   the subckt name otherwise *)
let scoped_cards (ast : Ast.t) =
  List.concat_map
    (fun stmt ->
      match stmt with
      | Ast.Card { card; span } -> [ ("", card, span) ]
      | Ast.Subckt { name; body; _ } ->
          List.filter_map
            (fun s ->
              match s with
              | Ast.Card { card; span } -> Some (name.id, card, span)
              | Ast.Subckt _ -> None)
            body)
    ast.statements

let duplicate_devices ?file ast =
  (* (scope, name) -> first definition span; a second definition in the same
     scope is a hard error — elaboration would refuse the flat circuit *)
  let seen : (string * string, Ast.span) Hashtbl.t = Hashtbl.create 32 in
  List.filter_map
    (fun (scope, card, span) ->
      match Ast.card_name card with
      | None -> None
      | Some name -> begin
          let key = (scope, name.Ast.id) in
          match Hashtbl.find_opt seen key with
          | None ->
              Hashtbl.add seen key span;
              None
          | Some first ->
              Some
                (diag ?file
                   ~span:(Diagnostic.span_of_ast name.Ast.ispan)
                   ~related:
                     [
                       {
                         Diagnostic.rel_file = None;
                         rel_span = Diagnostic.span_of_ast first;
                         note = "first definition";
                       };
                     ]
                   ~code:"N009" ~severity:Diagnostic.Error ~subject:name.Ast.id
                   (Printf.sprintf
                      "duplicate device name %s%s (first defined at %s)"
                      name.Ast.id
                      (if scope = "" then "" else " in .subckt " ^ scope)
                      (at first)))
        end)
    (scoped_cards ast)

let subckt_checks ?file (ast : Ast.t) =
  let defs =
    List.filter_map
      (fun stmt ->
        match stmt with
        | Ast.Subckt { name; ports; _ } -> Some (name, ports)
        | Ast.Card _ -> None)
      ast.statements
  in
  let instances =
    List.filter_map
      (fun (_, card, span) ->
        match card with
        | Ast.Instance { name; conns; sub } -> Some (name, conns, sub, span)
        | _ -> None)
      (scoped_cards ast)
  in
  let find_def sub =
    List.find_opt (fun ((n : Ast.ident), _) -> n.id = sub) defs
  in
  let undefined_or_arity =
    List.filter_map
      (fun ((name : Ast.ident), conns, (sub : Ast.ident), _span) ->
        match find_def sub.id with
        | None ->
            Some
              (diag ?file
                 ~span:(Diagnostic.span_of_ast sub.ispan)
                 ~code:"N010" ~severity:Diagnostic.Error ~subject:sub.id
                 (Printf.sprintf "%s instantiates undefined .subckt %s"
                    name.id sub.id))
        | Some (_, ports) ->
            let nc = List.length conns and np = List.length ports in
            if nc <> np then
              Some
                (diag ?file
                   ~span:(Diagnostic.span_of_ast name.ispan)
                   ~code:"N012" ~severity:Diagnostic.Error ~subject:name.id
                   (Printf.sprintf
                      "%s wires %d connection(s) to .subckt %s, which has %d \
                       port(s)"
                      name.id nc sub.id np))
            else None)
      instances
  in
  let used =
    List.fold_left
      (fun acc (_, _, (sub : Ast.ident), _) -> sub.id :: acc)
      [] instances
  in
  let unused =
    List.filter_map
      (fun ((name : Ast.ident), _) ->
        if List.mem name.id used then None
        else
          Some
            (diag ?file
               ~span:(Diagnostic.span_of_ast name.ispan)
               ~code:"N011" ~severity:Diagnostic.Warning ~subject:name.id
               (Printf.sprintf ".subckt %s is never instantiated" name.id)))
      defs
  in
  undefined_or_arity @ unused

let param_checks ?file ast =
  (* definitions in card order, tagged with scope; references are every
     parameter name any value expression mentions *)
  let cards = scoped_cards ast in
  let defs =
    List.concat_map
      (fun (scope, card, _) ->
        match card with
        | Ast.Param assigns ->
            List.map
              (fun (a : Ast.assign) ->
                (scope, String.lowercase_ascii a.key.Ast.id, a.key.Ast.ispan))
              assigns
        | _ -> [])
      cards
  in
  let refs =
    let values_of card =
      match (card : Ast.card) with
      | Ast.Resistor { r; _ } -> [ r ]
      | Ast.Capacitor { c; _ } -> [ c ]
      | Ast.Vsource { dc; ac; _ } | Ast.Isource { dc; ac; _ } ->
          dc :: Option.to_list ac
      | Ast.Vccs { gm; _ } -> [ gm ]
      | Ast.Mosfet { params; _ } | Ast.Model { params; _ } ->
          List.map (fun (a : Ast.assign) -> a.v) params
      | Ast.Param assigns -> List.map (fun (a : Ast.assign) -> a.v) assigns
      | Ast.Nodeset entries -> List.map snd entries
      | Ast.Analysis (Ast.Ac { per_decade; f_lo; f_hi; _ }) ->
          [ per_decade; f_lo; f_hi ]
      | Ast.Analysis (Ast.Tran { dt; t_stop; _ }) -> [ dt; t_stop ]
      | Ast.Analysis (Ast.Dc { start; stop; step; _ }) -> [ start; stop; step ]
      | Ast.Analysis Ast.Op | Ast.Instance _ | Ast.End -> []
    in
    List.concat_map
      (fun (_, card, _) -> List.concat_map Ast.value_refs (values_of card))
      cards
  in
  let unused =
    List.filter_map
      (fun (scope, name, span) ->
        if List.mem name refs then None
        else
          Some
            (diag ?file
               ~span:(Diagnostic.span_of_ast span)
               ~code:"N013" ~severity:Diagnostic.Warning ~subject:name
               (Printf.sprintf ".param %s%s is never referenced" name
                  (if scope = "" then "" else " (in .subckt " ^ scope ^ ")"))))
      defs
  in
  let shadowed =
    let seen : (string, string * Ast.span) Hashtbl.t = Hashtbl.create 8 in
    List.filter_map
      (fun (scope, name, span) ->
        match Hashtbl.find_opt seen name with
        | None ->
            Hashtbl.add seen name (scope, span);
            None
        | Some (first_scope, first) ->
            (* a top-level redefinition shadows for every later card; a
               subckt-local one shadows the outer binding inside the body *)
            Some
              (diag ?file
                 ~span:(Diagnostic.span_of_ast span)
                 ~code:"N014" ~severity:Diagnostic.Warning ~subject:name
                 (Printf.sprintf
                    ".param %s shadows the assignment at %s%s" name (at first)
                    (if first_scope = scope then ""
                     else " (outer scope)"))))
      defs
  in
  unused @ shadowed

let check_ast ?file ast =
  duplicate_devices ?file ast @ subckt_checks ?file ast @ param_checks ?file ast

(* ---------- whole-file entry point ---------- *)

let n000 ~path ?span message =
  diag ~file:path ?span ~code:"N000" ~severity:Diagnostic.Error ~subject:path
    message

let check_file ?tech ?pairs path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> [ n000 ~path msg ]
  | text -> begin
      match Parser.parse text with
      | exception Ast.Parse_error { span; message } ->
          [ n000 ~path ~span:(Diagnostic.span_of_ast span) message ]
      | exception Failure message ->
          (* the frontend contract is typed errors only; if it is ever
             broken, degrade to a spanless N000 instead of a backtrace *)
          [ n000 ~path message ]
      | ast -> begin
          let ast_diags = check_ast ~file:path ast in
          let origin = Elab.create_origin () in
          match Elab.elaborate ~origin ast with
          | exception Ast.Parse_error { span; message } ->
              (* an AST-level error (undefined subckt, arity, duplicate)
                 already explains most elaboration failures; only surface
                 N000 when it would say something new *)
              if List.exists (fun d -> d.Diagnostic.severity = Diagnostic.Error) ast_diags
              then ast_diags
              else
                ast_diags @ [ n000 ~path ~span:(Diagnostic.span_of_ast span) message ]
          | exception Failure message -> ast_diags @ [ n000 ~path message ]
          | circuit, _ ->
              ast_diags @ check ~file:path ~origin ?tech ?pairs circuit
        end
    end

let refusals path =
  let only codes = List.filter (fun d -> List.mem d.Diagnostic.code codes) in
  only [ "N004"; "N005"; "N006" ] (check_file path)
  @ only [ "A004" ] (Ac_tran_lint.check_file path)
