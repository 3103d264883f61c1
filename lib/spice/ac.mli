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
  ?sys:Mna.sys -> ?stop:(int -> Complex.t -> int) -> Circuit.t -> Dcop.t ->
  out:Device.node -> freqs:float array -> bode
(** Response observed at node [out] for each frequency, driven by the AC
    magnitudes declared on the circuit's independent sources.  [sys] is
    the {!Mna.sys} solver session of the circuit's topology, typically the
    one its {!Dcop.solve} ran in; without it the call builds a dense one
    for itself.

    The sweep runs in frequency order and asks [stop k z] after point [k]
    (response [z]) how many further points it needs, whatever their
    values.  [0] ends the sweep there, and the result holds the swept
    prefix [freqs.(0..k)] and its responses; an answer past the end of the
    grid asks for the rest of it.  Every frequency is an independent
    factorisation, so the prefix is bit-identical to the same points of
    the full sweep.  The default never stops.

    An answer is a promise: the rule is consulted after every point, and
    each answer may not end the sweep before the last point an earlier
    answer asked for.  That lets the sweep factor ahead of the rule:
    whenever the answer after point [k] asks for at least two more, it
    factors [k+1] and [k+2] together (one pass of the two-lane kernel on
    a csr system; see {!Yield_numeric.Linsys.complex_sys}'s [sweep]).  So
    no frequency past the stop is ever factored.
    @raise Invalid_argument when an answer breaks an earlier promise (a
    negative answer always does), never dropping a factored point.

    Each call adds the number of frequencies it factored to the
    [ac.points] counter, and the number of those it factored two at a
    time to [ac.paired]; a call that raises adds nothing.  The [ac.solve]
    fault point is consulted once per call, before anything is assembled;
    when it fires the response is all NaN at every frequency and nothing
    is factored. *)

val transfer_by_name :
  ?sys:Mna.sys -> ?stop:(int -> Complex.t -> int) -> Circuit.t -> Dcop.t ->
  out:string -> freqs:float array -> bode

val default_freqs : ?per_decade:int -> f_lo:float -> f_hi:float -> unit -> float array
(** Logarithmically spaced grid, default 10 points per decade.
    @raise Invalid_argument unless [per_decade > 0] and [0 < f_lo < f_hi],
    the malformed sweeps lint code A004 reports. *)
