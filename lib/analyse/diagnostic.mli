(** Preflight diagnostics: stable codes, severities, renderers.

    Every finding any lint pass can produce carries a stable code — [Nxxx]
    for netlist checks, [Txxx] for table-model checks, [Cxxx]/[Fxxx] for
    config and fault-spec checks — so scripts, CI jobs and golden tests can
    match on codes while messages stay free to improve.  The catalogue lives
    in README.md §"Preflight static analysis"; codes are never reused or
    renumbered, only retired. *)

type severity = Info | Warning | Error

type span = {
  start_line : int;
  start_col : int;
  end_line : int;
  end_col : int;
}
(** A source region: 1-based line and column, [end_col] one past the last
    character (the SARIF convention). *)

type related = {
  rel_file : string option;  (** defaults to the finding's own file *)
  rel_span : span;
  note : string;  (** what this span is, e.g. ["first definition"] *)
}
(** A secondary source location a finding refers to — the first definition a
    duplicate shadows, the device whose operating region breaks a proof.
    Rendered as SARIF [relatedLocations] and as the lint-JSON ["related"]
    array (omitted when empty, so old reports are unchanged). *)

type t = {
  code : string;  (** stable, e.g. ["N002"] *)
  severity : severity;
  subject : string;  (** node/device/column/field the finding is about *)
  message : string;
  file : string option;  (** source file, when linting one *)
  line : int option;  (** 1-based, when known; [span]'s start line if set *)
  span : span option;  (** precise source region, when the pass knows one *)
  related : related list;  (** secondary locations, possibly empty *)
}

val span_of_ast : Yield_spice.Netlist_ast.span -> span
(** Convert a frontend span (same shape, different module). *)

val make :
  ?file:string -> ?line:int -> ?span:span -> ?related:related list ->
  code:string -> severity:severity -> subject:string -> string -> t
(** When [span] is given and [line] is not, [line] defaults to the span's
    start line, so line-oriented consumers keep working.  [related] defaults
    to empty. *)

val compare : t -> t -> int
(** Worst severity first, then code, then subject — the rendering order. *)

val sort : t list -> t list

val worst : t list -> severity option
(** [None] for an empty list. *)

val exit_code : t list -> int
(** Worst-severity process exit: 2 with any error, 1 with any warning,
    0 otherwise (info-only lists are clean). *)

val count : severity -> t list -> int

val to_text : t -> string
(** ["file:12:5: error N002 [g]: node g has no DC path to ground"] with a
    span, ["file:12: ..."] with only a line. *)

val list_to_text : t list -> string
(** Sorted findings one per line, followed by a summary line. *)

val to_json : t -> Yield_obs.Json.t

val list_to_json : t list -> Yield_obs.Json.t
(** [{"version": 2, "findings": [...], "errors": n, "warnings": n,
    "infos": n, "worst": "error"|"warning"|"info"|null}] with findings
    sorted; each finding carries a ["span"] object (or [null]) next to
    ["line"].  The schema is documented in [docs/lint-json-schema.json];
    [version] is bumped on any incompatible change. *)
