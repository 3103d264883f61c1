exception Parse_error = Netlist_ast.Parse_error

type analysis = Netlist_elab.analysis =
  | Op
  | Ac_analysis of { per_decade : int; f_lo : float; f_hi : float; out : string }
  | Tran_analysis of { dt : float; t_stop : float; out : string }
  | Dc_analysis of {
      source : string;
      start : float;
      stop : float;
      step : float;
      out : string;
    }

let parse_value s =
  match Netlist_ast.float_of_spice s with
  | Some v -> v
  | None -> failwith ("Netlist.parse_value: cannot parse " ^ s)

let parse text = fst (Netlist_elab.elaborate (Netlist_parser.parse text))

let format_value = Netlist_ast.engineering

(* The parser derives the element type from the card's first letter, so a
   device whose name does not start with its type letter (e.g. the flattened
   "x1.M1") must be printed with an explicit type prefix. *)
let card_name type_char name =
  if name <> "" && Char.lowercase_ascii name.[0] = type_char then name
  else Printf.sprintf "%c_%s" (Char.uppercase_ascii type_char) name

let to_string circuit =
  let buf = Buffer.create 1024 in
  let models = ref [] in
  let taken = Hashtbl.create 8 in
  List.iter
    (fun (name, _) -> Hashtbl.replace taken name ())
    (Circuit.model_names circuit);
  let model_name m =
    match List.assq_opt m !models with
    | Some name -> name
    | None -> begin
        (* structural match: reuse a card for identical parameter sets *)
        match List.find_opt (fun (m', _) -> m' = m) !models with
        | Some (_, name) -> name
        | None ->
            let name =
              (* the original .model name when the circuit came from a
                 netlist; generated modN (skipping taken names) only for
                 programmatically built circuits with unnamed models *)
              match Circuit.model_name circuit m with
              | Some name -> name
              | None ->
                  let rec fresh i =
                    let cand = Printf.sprintf "mod%d" i in
                    if Hashtbl.mem taken cand then fresh (i + 1) else cand
                  in
                  fresh (List.length !models + 1)
            in
            Hashtbl.replace taken name ();
            models := (m, name) :: !models;
            name
      end
  in
  let node = Circuit.node_name circuit in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let body = Buffer.create 1024 in
  let body_line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string body (s ^ "\n")) fmt
  in
  Array.iter
    (fun dev ->
      match dev with
      | Device.Resistor { name; n1; n2; ohms } ->
          body_line "%s %s %s %s" (card_name 'r' name) (node n1) (node n2)
            (format_value ohms)
      | Device.Capacitor { name; n1; n2; farads } ->
          body_line "%s %s %s %s" (card_name 'c' name) (node n1) (node n2)
            (format_value farads)
      | Device.Vsource { name; npos; nneg; dc; ac; wave = _ } ->
          let name = card_name 'v' name in
          if ac = 0. then
            body_line "%s %s %s %s" name (node npos) (node nneg) (format_value dc)
          else
            body_line "%s %s %s %s ac=%s" name (node npos) (node nneg)
              (format_value dc) (format_value ac)
      | Device.Isource { name; npos; nneg; dc; ac; wave = _ } ->
          let name = card_name 'i' name in
          if ac = 0. then
            body_line "%s %s %s %s" name (node npos) (node nneg) (format_value dc)
          else
            body_line "%s %s %s %s ac=%s" name (node npos) (node nneg)
              (format_value dc) (format_value ac)
      | Device.Vccs { name; out_p; out_n; in_p; in_n; gm } ->
          body_line "%s %s %s %s %s %s" (card_name 'g' name) (node out_p)
            (node out_n) (node in_p) (node in_n) (format_value gm)
      | Device.Mosfet { name; d; g; s; b; model; w; l } ->
          body_line "%s %s %s %s %s %s w=%s l=%s" (card_name 'm' name) (node d)
            (node g) (node s) (node b) (model_name model) (format_value w)
            (format_value l))
    (Circuit.devices circuit);
  line "* netlist generated by yieldlab";
  List.iter
    (fun (m, name) ->
      let kind =
        match m.Mosfet.polarity with Mosfet.Nmos -> "nmos" | Mosfet.Pmos -> "pmos"
      in
      line
        ".model %s %s vth0=%g kp=%g gamma=%g phi=%g lambda0=%g n=%g cox=%g \
         cgso=%g cgdo=%g cj=%g cjsw=%g ext=%g"
        name kind m.Mosfet.vth0 m.Mosfet.kp m.Mosfet.gamma m.Mosfet.phi
        m.Mosfet.lambda0 m.Mosfet.n_slope m.Mosfet.cox m.Mosfet.cgso
        m.Mosfet.cgdo m.Mosfet.cj m.Mosfet.cjsw m.Mosfet.ext)
    (List.rev !models);
  Buffer.add_buffer buf body;
  List.iter
    (fun (n, v) ->
      line ".nodeset v(%s)=%s" (node n) (format_value v))
    (List.rev (Circuit.nodesets circuit));
  line ".end";
  Buffer.contents buf
