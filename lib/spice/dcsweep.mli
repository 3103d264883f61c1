(** DC sweep analysis: re-solve the operating point over a range of one
    source's value, warm-starting each step from the previous solution —
    transfer curves, input-offset and output-swing extraction. *)

type t = {
  sweep_values : float array;  (** the swept source's DC values *)
  solutions : float array array;  (** converged unknown vector per value *)
  layout : Mna.layout;
}

val run :
  ?options:Dcop.options -> ?sys:Mna.sys -> ?models:Mna.models -> Circuit.t ->
  source:string -> values:float array -> (t, Dcop.error) result
(** [run c ~source ~values] sweeps the DC value of the named V- or I-source.
    Fails on the first non-converging point.  Every point solves in one
    {!Mna.sys} (the swept circuits share one topology): [sys] when given,
    else a dense one built once for the sweep.  [models] is passed through
    to each {!Dcop.solve}.
    @raise Not_found when the source does not exist.
    @raise Invalid_argument when the named device is not a source or
    [values] is empty. *)

val voltage : t -> Device.node -> float array

val voltage_by_name : t -> Circuit.t -> string -> float array

val crossing_input :
  sweep:float array -> output:float array -> level:float -> float option
(** Swept-source value at which the output first crosses [level]
    (linearly interpolated) — e.g. the input offset of a comparator-style
    transfer curve. *)

val output_range : float array -> float * float
(** Min and max of an output waveform: the swing over the sweep. *)
