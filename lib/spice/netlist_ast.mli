(** Typed netlist AST with source spans.

    The SPICE frontend is three passes — {!Netlist_lexer} (spanned tokens,
    continuation lines, comments), {!Netlist_parser} (this AST) and
    {!Netlist_elab} (hierarchy flattening and [.param] evaluation into a
    {!Circuit.t}) — with {!Netlist_printer} closing the loop: the printer is
    byte-idempotent, [print (parse (print (parse text)))] equals
    [print (parse text)] for every parseable input, because every name and
    value node carries its source text verbatim.

    Every node carries a {!span} (1-based line and column; [end_col] points
    one past the last character, SARIF-style), so lint diagnostics and parse
    errors can point at precise source regions. *)

type span = {
  start_line : int;
  start_col : int;
  end_line : int;
  end_col : int;
}

exception Parse_error of { span : span; message : string }
(** The only exception the frontend raises on malformed input — lexer,
    parser and elaborator alike.  Re-exported as
    {!Yield_spice.Netlist.Parse_error}. *)

val dummy_span : span
(** All-zero span for programmatically built nodes. *)

val span_to_string : span -> string
(** ["3:5-12"] within one line, ["3:5-4:2"] across lines. *)

val hull : span -> span -> span
(** Smallest span covering both. *)

val error : span -> string -> 'a
(** @raise Parse_error *)

val float_of_spice : string -> float option
(** Engineering-notation scalar ("10k", "3.3", "120p", "2meg"), or [None]. *)

type ident = { id : string; ispan : span }
(** A name or node token, original spelling preserved. *)

type binop = Add | Sub | Mul | Div

type expr =
  | Num of float
  | Ref of string  (** parameter reference, lowercased *)
  | Bin of binop * expr * expr
  | Neg of expr

type value = { text : string; expr : expr; vspan : span }
(** A numeric field: the verbatim source text (what the printer emits) plus
    the parsed expression ([Num] for plain scalars, a tree for
    [{w*2+1u}]-style parameter arithmetic). *)

val value_refs : value -> string list
(** Lowercased parameter names the value's expression references. *)

val engineering : float -> string
(** The compact engineering rendering ("10k", "1.5u", ...). *)

type assign = { key : ident; v : value }  (** one [key=value] field *)

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
      params : assign list;  (** [w=], [l=] *)
    }
  | Instance of { name : ident; conns : ident list; sub : ident }
      (** [X<id> <node>... <subckt-name>] — unresolved until elaboration *)
  | Model of { name : ident; kind : ident; params : assign list }
  | Param of assign list
  | Nodeset of (ident * value) list
  | Analysis of analysis
  | End

type statement =
  | Card of { card : card; span : span }
  | Subckt of {
      name : ident;
      ports : ident list;
      body : statement list;  (** cards only — definitions do not nest *)
      span : span;
    }

type t = { statements : statement list }

val card_name : card -> ident option
(** The device name of an element card, [None] for directives. *)
