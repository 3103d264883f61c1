(** Small-signal AC analysis around a converged DC operating point. *)

type bode = {
  freqs : float array;  (** Hz, strictly increasing *)
  response : Complex.t array;  (** complex transfer values, same length *)
}

exception Singular of string
(** Raised by {!transfer} when {!Topology.ac_issues} finds a structural
    singularity — a node [G + jwC] cannot constrain at any frequency, or a
    loop of voltage sources — before anything is assembled.  Mirrors the
    {!Dcop.solve} pre-check. *)

val transfer :
  ?sys:Mna.sys -> ?stop:(int -> Complex.t -> bool) -> Circuit.t -> Dcop.t ->
  out:Device.node -> freqs:float array -> bode
(** Response observed at node [out] for each frequency, driven by the AC
    magnitudes declared on the circuit's independent sources.  [sys] is
    the {!Mna.sys} solver session of the circuit's topology, typically the
    one its {!Dcop.solve} ran in; without it the call builds a dense one
    for itself.

    The sweep runs in frequency order and asks [stop k z] after point [k]
    (response [z]); [true] ends it there, and the result holds the swept
    prefix [freqs.(0..k)] and its responses.  Every frequency is an
    independent factorisation, so the prefix is bit-identical to the same
    points of the full sweep.  The default never stops.  Each call adds
    the number of frequencies it factored to the [ac.points] counter.  The
    [ac.solve] fault point is consulted once per call, before anything is
    assembled; when it fires the response is all NaN at every frequency
    and nothing is factored. *)

val transfer_by_name :
  ?sys:Mna.sys -> ?stop:(int -> Complex.t -> bool) -> Circuit.t -> Dcop.t ->
  out:string -> freqs:float array -> bode

val default_freqs : ?per_decade:int -> f_lo:float -> f_hi:float -> unit -> float array
(** Logarithmically spaced grid, default 10 points per decade.
    @raise Invalid_argument unless [per_decade > 0] and [0 < f_lo < f_hi],
    the malformed sweeps lint code A004 reports. *)
