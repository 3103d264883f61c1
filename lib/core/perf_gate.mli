(** The perf-regression gate: diff a fresh [BENCH_flow.json] against a
    checked-in baseline.

    What is compared, and how:
    - [scale] and [jobs] — exact; a mismatch means the two runs are not
      comparable at all.
    - [stage_s.*] — wall-clock with tolerance: a stage regresses when
      [actual > base * (1 + frac) + abs_s].  The [frac]/[abs_s] pair lives
      {e in the baseline file} ([tolerance] object), so the checked-in
      baseline can carry a generous absolute slack (different CI machines)
      while a same-machine fixture can pin [abs_s = 0].
    - [sim_counts.*] and [counters.*] — exact values, and exact {e key
      identity} in both directions: a simulation-count drift or a counter
      appearing/vanishing fails the gate, since those are determinism
      regressions no timing tolerance should forgive.  Every counter is
      compared, whatever [cores] the two documents carry: at [jobs = 1]
      none depends on the machine.

    - [alloc.*] — the gated flow's minor-heap words per simulation
      ([alloc.minor_words_per_sim], recorded only at [jobs = 1], where
      the whole flow runs in the measuring domain).  Allocation does not
      depend on the machine, so it regresses when
      [actual > base * (1 + frac)] with no absolute slack: a change that
      makes every simulation allocate more fails on any machine, where a
      stage timing is only caught beyond [abs_s].  Keys must match in
      both directions, as for counters.

    Histograms are deliberately not compared (their quantiles are timing
    distributions — pure noise across machines). *)

type tolerance = { frac : float; abs_s : float }

val default_tolerance : tolerance
(** [frac = 0.10], [abs_s = 0.] — what {!check} assumes when the baseline
    file carries no [tolerance] object (or an object without one of the
    two fields).  A [tolerance] that is present but not an object, or a
    field that is not a non-negative number, is a finding. *)

val baseline_tolerance : tolerance
(** [frac = 0.10], [abs_s = 2.0] — what {!baseline_of_bench} stamps by
    default: slack enough to absorb machine-to-machine constant factors
    while still catching the counts/identity drift exactly. *)

type finding = { field : string; detail : string }

val to_string : finding -> string

val check : baseline:Yield_obs.Json.t -> bench:Yield_obs.Json.t -> finding list
(** Empty when the bench run is within tolerance of the baseline; one
    finding per violated field otherwise. *)

val baseline_of_bench :
  ?tolerance:tolerance -> Yield_obs.Json.t -> Yield_obs.Json.t
(** Distil a [BENCH_flow.json] document into a baseline: scale, jobs,
    cores, the tolerance block, stage timings, sim counts, counters and
    the allocation section (histograms and the A/B sections are dropped). *)
