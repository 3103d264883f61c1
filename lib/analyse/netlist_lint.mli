(** Netlist lint: predict {!Yield_spice.Dcop} failures statically.

    Two layers, run together by {!check_deck}:

    - {!check_ast} walks the typed {!Yield_spice.Netlist_ast.t} before
      elaboration, so hierarchy and parameter problems are reported at the
      card that wrote them — with a precise source span — instead of after
      flattening (or not at all, when elaboration refuses the deck).
    - {!check} runs the connectivity analysis of {!Yield_spice.Topology}
      plus per-device value checks over the built {!Yield_spice.Circuit},
      in milliseconds — before the flow burns thousands of transistor-level
      evaluations on a netlist that can only produce singular MNA systems.
      With an [origin] provenance table from {!Yield_spice.Netlist_elab},
      circuit-level findings carry the span of the card (or first node
      reference) they are about.

    Circuit codes:
    - [N001] (warning) node referenced by exactly one device terminal
    - [N002] (error) node has no DC path to ground — {!Yield_spice.Dcop}
      fails this circuit with [Singular_system]
    - [N003] (error) voltage-source loop — likewise [Singular_system]
    - [N004] (error) MOSFET whose W or L is not finite and positive —
      {!Yield_spice.Mosfet.eval} raises on it
    - [N005] (error) resistance that is not finite and positive (zero
      stamps an infinite conductance, infinity an open circuit)
    - [N006] (error) capacitance that is not finite and non-negative
    - [N007] (warning) MOSFET W or L below the technology's minimum channel
      length
    - [N008] (warning) symmetric-pair W/L mismatch (OTA/Miller topology
      invariant)

    The message of an N004–N006 finding says "non-finite" when the value
    is NaN or infinite.  [yieldlab netlist] refuses a deck with any of
    them before solving, and the interval analyses of {!Ac_tran_lint}
    leave the devices they name out of their enclosures.

    AST codes:
    - [N009] (error) duplicate device name in one scope (top level or one
      [.subckt] body) — the message points at the first definition
    - [N010] (error) [X] instance of an undefined [.subckt]
    - [N011] (warning) [.subckt] defined but never instantiated
    - [N012] (error) [X] instance whose connection count differs from the
      [.subckt]'s port count, reported at the instantiation site
    - [N013] (warning) [.param] assigned but never referenced by any value
      expression
    - [N014] (warning) [.param] re-assignment shadowing an earlier one *)

val check :
  ?file:string ->
  ?origin:Yield_spice.Netlist_elab.origin ->
  ?tech:Yield_process.Tech.t ->
  ?pairs:(string * string) list ->
  Yield_spice.Circuit.t ->
  Diagnostic.t list
(** [origin] (from {!Yield_spice.Netlist_elab.elaborate}) maps flattened
    device and node names back to source spans; [tech] enables the N007
    range check; [pairs] names device pairs (e.g. [("M3", "M4")]) whose W
    and L must match exactly — a pair name matches a device called exactly
    that or with any [<prefix>.] in front (netlist subcircuit and builder
    prefixes).  A pair with fewer than two matching MOSFETs is skipped. *)

val check_ast : ?file:string -> Yield_spice.Netlist_ast.t -> Diagnostic.t list
(** The pre-elaboration checks (N009–N014).  Every finding carries a span. *)

val check_deck :
  ?tech:Yield_process.Tech.t ->
  ?pairs:(string * string) list ->
  (Deck.t, Diagnostic.t) result ->
  Diagnostic.t list
(** {!check_ast} and {!check} a loaded deck ({!Deck.load}).  A deck that
    could not be read or parsed yields its single [N000] finding; when
    elaboration fails but an AST-level error already explains why
    (undefined subckt, arity mismatch, duplicate device), the elaboration's
    N000 is suppressed in favour of the precise findings. *)

val refusals : (Deck.t, Diagnostic.t) result -> Diagnostic.t list
(** The findings on which the simulator refuses a loaded deck: its
    N004-N006 errors (a zero, negative, NaN or infinite W/L, R or C) and
    {!Ac_tran_lint}'s A004 (an [.ac] card with no frequency grid).
    [yieldlab netlist] and {!Corner_lint.check_deck} analyse nothing when
    there are any.  A deck that did not load or elaborate has none: it
    has nothing to refuse. *)
