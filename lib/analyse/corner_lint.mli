(** Corner-aware abstract interpretation over the process-variation box.

    Where {!Ac_tran_lint} bounds time constants from device {e value} ranges,
    this pass pushes the {e statistical parameter box} — every per-device
    (dVth, dKp/Kp, dLambda/Lambda) combination within [k_sigma] sigmas of
    nominal, global and Pelgrom mismatch included — through interval transfer
    functions of the full DC operating point and AC small-signal model:

    - a parametric Krawczyk operator verifies an enclosure of the DC solution
      over the whole box (existence + uniqueness near nominal);
    - per-device operating-region proofs follow ({b D-codes}): a MOSFET is
      provably saturated when its overdrive and [vds - vdsat] margins stay
      positive over the box;
    - a residual-iteration (Krawczyk/Rump) interval solve of [(G + jwC) x = b]
      per frequency yields enclosures of the AC response, hence of the
      DC gain, unity-gain bracket and phase margin;
    - comparing those enclosures against a spec window gives a {b Y-code}
      verdict: {!Provably_fail} (yield 0 — every sample in the box misses the
      window), {!Provably_pass} (yield 1 up to the mass outside the truncated
      box; see DESIGN.md §4a), or {!Undecided}.

    Soundness contract (property-tested): every Monte Carlo sample whose
    normal deviates all lie within [k_sigma] produces (gain, PM) inside the
    predicted enclosure.  Samples are {e floating-point} evaluations: the
    device equations and MNA stamps here are the simulator's own text
    instantiated over outward-rounded intervals ({!Device_interval}), so
    each interval operation encloses the float operation a sample runs;
    the DC/AC enclosures carry small documented pads for the Newton
    tolerance and LU forward error of the sampled solves.

    {!Flow} uses the verdicts as an opt-in Monte Carlo pre-screen; the
    [yieldlab lint corners] command surfaces them as diagnostics. *)

type window = {
  min_gain_db : float;  (** pass iff DC gain >= this *)
  min_pm_deg : float;  (** pass iff phase margin >= this *)
}

type verdict = Provably_fail | Provably_pass | Undecided

val verdict_to_string : verdict -> string

type enclosure = {
  gain_db : Interval.t option;  (** DC gain enclosure, dB *)
  unity_gain_hz : Interval.t option;  (** bracket of the 0 dB crossing *)
  pm_deg : Interval.t option;  (** phase-margin enclosure, degrees *)
}
(** [None] components could not be bounded (the interval solve failed at a
    needed frequency, the phase rectangle touched the atan2 branch cut, or
    the magnitude never provably crosses 0 dB). *)

type device_proof = {
  device : string;
  proved : bool;  (** provably in saturation across the whole box *)
  detail : string;  (** margins when proved; binding corner when not *)
}

type report = {
  verdict : verdict;
  enclosure : enclosure;
  dc_verified : bool;  (** Krawczyk found a DC enclosure over the box *)
  devices : device_proof list;  (** one entry per MOSFET, device order *)
  slices : (Interval.t * Interval.t) list;
      (** the verified decomposition of the global (dVth NMOS, dVth PMOS)
          plane.  The Krawczyk contraction fails over the whole [k_sigma]
          box (EKV currents are exponential in vth), so the global Vth axes
          are subdivided adaptively; every other axis rides along whole.  A
          sample is covered when some slice contains its global vth draws —
          equivalently, when for some listed slice every device's
          parameters lie in that slice's per-device box (what the soundness
          test conditions on). *)
  notes : string list;  (** why components of the analysis gave up *)
}

val analyse_circuit :
  ?k_sigma:float ->
  ?spec:Yield_process.Variation.spec ->
  window:window ->
  freqs:float array ->
  out:string ->
  Yield_spice.Circuit.t ->
  report
(** Analyse one circuit against [window].  [k_sigma] (default 3) truncates
    the per-device parameter boxes; [spec] defaults to
    {!Yield_process.Variation.default_spec}.  [freqs] and [out] name the AC
    sweep and probe node, exactly as {!Yield_spice.Ac.transfer_by_name}
    would receive them; an empty [freqs] (or unknown/ground [out]) skips the
    AC half and reports D-codes only.  Never raises: solver failures
    degrade to {!Undecided} with a note. *)

val diagnostics :
  ?file:string ->
  ?origin:Yield_spice.Netlist_elab.origin ->
  ?y_span:Diagnostic.span ->
  ?emit_verdict:bool ->
  subject:string ->
  window:window ->
  report ->
  Diagnostic.t list
(** Render a report as lint findings: one D-code per MOSFET (D001 info when
    proved, D002 warning when not), D003 when no DC enclosure was verified,
    and — unless [emit_verdict] is [false] — one Y-code for the verdict
    (Y001 warning, Y002/Y003 info) carrying the enclosures as evidence, the
    [y_span] (typically the [.ac] card) as its span, and the unproved
    devices as related locations.  [origin] supplies device card spans. *)

val check_deck :
  ?k_sigma:float ->
  ?spec:Yield_process.Variation.spec ->
  ?window:window ->
  (Deck.t, Diagnostic.t) result ->
  Diagnostic.t list
(** Lint a loaded deck ({!Deck.load}): run {!analyse_circuit} against
    the first [.ac] card's sweep and probe (D-codes only when the deck has
    no [.ac] card).  [window] defaults to
    [{ min_gain_db = 0.; min_pm_deg = 0. }].  A deck that could not be
    read or parsed yields its [N000] finding; one that parses but does not
    elaborate yields what {!Netlist_lint.check_deck} reports on it (the
    AST findings that explain it, such as N009 with its related location,
    and N000 only when none does); and a deck the simulator refuses
    yields only its {!Netlist_lint.refusals} (N004-N006, A004): no corner
    analysis runs on any of them. *)
