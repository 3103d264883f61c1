(** Verilog-A emission: render the combined behavioural model as the
    Verilog-A module of the paper's §4.4 listing, together with the [.tbl]
    data files its [$table_model] calls reference.

    Emission goes through a small typed AST rather than string
    concatenation: {!module_ast} builds the paper's module, {!print_source}
    renders any AST, and {!parse} re-ingests the emitted subset so
    {!Yield_analyse.Va_lint} can check modules (including ones written by
    hand) structurally.  [print_source (module_ast ())] is byte-for-byte the
    text the old string emitter produced — a golden test holds this.

    The emitted module is textual output for use in a Verilog-A capable
    simulator; this library's own simulations use {!Macromodel} directly. *)

(** {1 AST} *)

type binop = Add | Sub | Mul | Div

type expr =
  | Num of string  (** numeral, verbatim source text *)
  | Ident of string
  | Str of string  (** contents between the quotes, escapes kept verbatim *)
  | Access of string * string  (** branch access: [V(out)], [I(out)] *)
  | Call of string * expr list  (** [pow(...)], [$table_model(...)], ... *)
  | Neg of expr
  | Paren of expr  (** explicit parentheses, preserved by the printer *)
  | Bin of binop * expr * expr

type stmt =
  | Comment of string
  | Assign_group of (string * expr) list
      (** assignments whose left-hand sides are padded to a common width *)
  | Sys_call of string * expr list  (** [$display], [$fwrite], [$fclose] *)
  | Contribution of { access : string; node : string; rhs : expr }
      (** [V(node) <+ rhs;] *)

type port_dir = Input | Output | Inout

type param = { pname : string; default : string; pcomment : string option }

type item =
  | Port_decl of port_dir * string list
  | Discipline_decl of string * string list  (** [electrical inp, out;] *)
  | Param_group of param list
      (** [parameter real] declarations, names padded to a common width *)
  | Real_decl of string list
  | Integer_decl of string list
  | Blank
  | Analog of stmt list

type module_def = { module_name : string; ports : string list; items : item list }

type source = {
  header : string list;  (** leading [//] comment lines, without the slashes *)
  includes : string list;  (** [`include] paths *)
  modules : module_def list;
}

(** {1 Building, printing, parsing} *)

val param_names : string array
(** [lp1] .. [lp8], the designable-parameter table names. *)

val module_ast : ?name:string -> control:string -> unit -> source
(** The paper's module (default name ["ota_behavioural"]): variation lookup,
    performance proposal, parameter interpolation and the output stage
    [V(out) <+ -gain * V(inp) - I(out) * ro], mirroring the paper line for
    line.  [control] is the table-model control string (["3E"]). *)

val print_source : source -> string

val module_text : ?name:string -> control:string -> unit -> string
(** [print_source (module_ast ~name ~control ())]. *)

exception Parse_error of { line : int; message : string }

val parse : string -> source
(** Parse the emitted Verilog-A subset (includes, one or more modules with
    port/discipline/parameter/real/integer declarations and an [analog]
    block of assignments, system calls and contributions).  Comments and
    alignment grouping are not preserved — only
    [print_source (module_ast ())] is byte-faithful, not [parse] round
    trips.  @raise Parse_error with a line number on malformed input. *)

(** {1 Data files} *)

val data_files : Macromodel.t -> (string * Yield_table.Tbl_io.table) list
(** The tables the module references: [gain_delta.tbl], [pm_delta.tbl] and
    [lp1_data.tbl] .. [lp8_data.tbl] (performance to designable-parameter
    maps), plus [ro_data.tbl] for the output stage. *)

val save : ?name:string -> ?control:string -> Macromodel.t -> dir:string -> string list
(** Write the module ([<name>.va]) and every data file into [dir], each
    atomically ([Atomic_io.write_file]); returns the paths written. *)
