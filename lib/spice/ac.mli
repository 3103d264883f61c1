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

val sweep :
  ?sys:Mna.sys -> ?stop:(Mna.response -> int -> int) -> Circuit.t ->
  Mna.small_signal -> out:Device.node -> freqs:float array ->
  (Mna.response -> int -> 'a) -> 'a
(** [sweep ?sys ?stop circuit src ~out ~freqs k] is the AC analysis: the
    small-signal system of [circuit], its MOSFETs' values taken from
    [src] ({!Mna.small_signal}), swept in frequency order, observed at
    node [out] and driven by the AC magnitudes declared on the circuit's
    independent sources.  It runs in an AC workspace borrowed from [sys]
    (without [sys], a dense session built for the call) and answers
    [k r swept] while the workspace is still borrowed: the response of
    point [i] is [r.re.(i)] + j [r.im.(i)] for every [i < swept].  [r]
    belongs to the workspace, so [k] reads it and must not keep it.  A
    point writes its response into [r] and allocates nothing, and the
    borrowing, the loop and the backend's point solver need no closure,
    so once the workspace has room for the grid a sweep allocates only
    the right-hand side's entry of each source with an AC magnitude
    (one complex record) and what [stop] and [k] allocate.

    The sweep asks [stop r k] after point [k] how many further points it
    needs, whatever their values; the rule reads [r.re.(k)] and
    [r.im.(k)] and may write [r.mag_db] and [r.phase_deg] at [k] (the
    testbench's rule writes each magnitude once, and its extraction reads
    them back).  [0] ends the sweep there; an answer past the end of the
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
    when it fires, every point the sweep reaches answers NaN (the rule is
    consulted as usual), nothing is factored and nothing is counted. *)

val transfer :
  ?sys:Mna.sys -> ?stop:(Mna.response -> int -> int) -> Circuit.t -> Dcop.t ->
  out:Device.node -> freqs:float array -> bode
(** Response observed at node [out] for each frequency the {!sweep} of
    [op]'s operating points reaches: the swept prefix of [freqs] (the
    array itself when the whole grid was swept) and its responses.  [sys]
    is the {!Mna.sys} solver session of the circuit's topology, typically
    the one its {!Dcop.solve} ran in.  Beyond the bode, it allocates as
    much as {!sweep}. *)

val transfer_by_name :
  ?sys:Mna.sys -> ?stop:(Mna.response -> int -> int) -> Circuit.t -> Dcop.t ->
  out:string -> freqs:float array -> bode

val default_freqs : ?per_decade:int -> f_lo:float -> f_hi:float -> unit -> float array
(** Logarithmically spaced grid, default 10 points per decade.
    @raise Invalid_argument unless [per_decade > 0] and [0 < f_lo < f_hi],
    the malformed sweeps lint code A004 reports. *)
