type span = {
  start_line : int;
  start_col : int;
  end_line : int;
  end_col : int;
}

exception Parse_error of { span : span; message : string }

let dummy_span = { start_line = 0; start_col = 0; end_line = 0; end_col = 0 }

let span_to_string s =
  if s.start_line = s.end_line then
    Printf.sprintf "%d:%d-%d" s.start_line s.start_col s.end_col
  else
    Printf.sprintf "%d:%d-%d:%d" s.start_line s.start_col s.end_line s.end_col

let hull a b =
  let start_line, start_col =
    if
      a.start_line < b.start_line
      || (a.start_line = b.start_line && a.start_col <= b.start_col)
    then (a.start_line, a.start_col)
    else (b.start_line, b.start_col)
  in
  let end_line, end_col =
    if
      a.end_line > b.end_line
      || (a.end_line = b.end_line && a.end_col >= b.end_col)
    then (a.end_line, a.end_col)
    else (b.end_line, b.end_col)
  in
  { start_line; start_col; end_line; end_col }

let error span message = raise (Parse_error { span; message })

(* ---------- engineering-notation scalars ---------- *)

let suffixes =
  [
    ("meg", 1e6); ("t", 1e12); ("g", 1e9); ("k", 1e3); ("m", 1e-3);
    ("u", 1e-6); ("n", 1e-9); ("p", 1e-12); ("f", 1e-15);
  ]

let float_of_spice s =
  let s = String.lowercase_ascii (String.trim s) in
  let try_suffix (suffix, scale) =
    let ls = String.length s and lf = String.length suffix in
    if ls > lf && String.sub s (ls - lf) lf = suffix then
      match float_of_string_opt (String.sub s 0 (ls - lf)) with
      | Some v -> Some (v *. scale)
      | None -> None
    else None
  in
  match float_of_string_opt s with
  | Some v -> Some v
  | None -> List.find_map try_suffix suffixes

(* ---------- identifiers, expressions, values ---------- *)

type ident = { id : string; ispan : span }

type binop = Add | Sub | Mul | Div

type expr =
  | Num of float
  | Ref of string  (** parameter reference, lowercased *)
  | Bin of binop * expr * expr
  | Neg of expr

type value = { text : string; expr : expr; vspan : span }

let rec expr_refs acc = function
  | Num _ -> acc
  | Ref name -> name :: acc
  | Bin (_, a, b) -> expr_refs (expr_refs acc a) b
  | Neg e -> expr_refs acc e

let value_refs v = expr_refs [] v.expr

(* a stable engineering rendering: the text must read back as close to [v]
   as the format allows, and — because printed values travel as verbatim
   text through parse/print cycles — any text at all is print-stable.
   Prefer the compact engineering form; fall back to full precision when
   six significant digits would not read back exactly. *)
let engineering v =
  let abs = Float.abs v in
  if v = 0. then "0"
  else begin
    let scaled, suffix =
      if abs >= 1e12 then (v /. 1e12, "t")
      else if abs >= 1e6 then (v /. 1e6, "meg")
      else if abs >= 1e3 then (v /. 1e3, "k")
      else if abs >= 1. then (v, "")
      else if abs >= 1e-3 then (v /. 1e-3, "m")
      else if abs >= 1e-6 then (v /. 1e-6, "u")
      else if abs >= 1e-9 then (v /. 1e-9, "n")
      else if abs >= 1e-12 then (v /. 1e-12, "p")
      else (v /. 1e-15, "f")
    in
    Printf.sprintf "%.6g%s" scaled suffix
  end

(* ---------- cards ---------- *)

type assign = { key : ident; v : value }

type analysis =
  | Op
  | Ac of { per_decade : value; f_lo : value; f_hi : value; out : ident }
  | Tran of { dt : value; t_stop : value; out : ident }
  | Dc of {
      source : ident;
      start : value;
      stop : value;
      step : value;
      out : ident;
    }

type card =
  | Resistor of { name : ident; n1 : ident; n2 : ident; r : value }
  | Capacitor of { name : ident; n1 : ident; n2 : ident; c : value }
  | Vsource of {
      name : ident;
      npos : ident;
      nneg : ident;
      dc : value;
      ac : value option;
    }
  | Isource of {
      name : ident;
      npos : ident;
      nneg : ident;
      dc : value;
      ac : value option;
    }
  | Vccs of {
      name : ident;
      out_p : ident;
      out_n : ident;
      in_p : ident;
      in_n : ident;
      gm : value;
    }
  | Mosfet of {
      name : ident;
      d : ident;
      g : ident;
      s : ident;
      b : ident;
      model : ident;
      params : assign list;
    }
  | Instance of { name : ident; conns : ident list; sub : ident }
  | Model of { name : ident; kind : ident; params : assign list }
  | Param of assign list
  | Nodeset of (ident * value) list
  | Analysis of analysis
  | End

type statement =
  | Card of { card : card; span : span }
  | Subckt of { name : ident; ports : ident list; body : statement list; span : span }

type t = { statements : statement list }

let card_name = function
  | Resistor { name; _ }
  | Capacitor { name; _ }
  | Vsource { name; _ }
  | Isource { name; _ }
  | Vccs { name; _ }
  | Mosfet { name; _ }
  | Instance { name; _ } ->
      Some name
  | Model _ | Param _ | Nodeset _ | Analysis _ | End -> None
