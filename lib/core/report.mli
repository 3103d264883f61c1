(** Plain-text table rendering for the experiment harness. *)

val table : header:string list -> string list list -> string
(** Aligned columns, a rule under the header.  Rows shorter than the header
    are padded with empty cells. *)

val float_cell : float -> string
(** Two decimals; ["n/a"] for NaN. *)

val si : float -> string
(** Engineering notation with an SI prefix: [si 3.3e-12 = "3.3p"]. *)

val section : string -> string
(** A titled rule used to separate experiment outputs. *)
