(** Deterministic fault injection.

    Every degradation path in the flow sits behind a named injection point
    ([dcop.solve], [ac.solve], [mc.sample], [tbl.write], ...).  Tests and
    the [--fault-spec] CLI flag arm points with a failure schedule; the code
    hosting the point consults it on every hit and simulates the failure
    (non-convergence, torn write, lost sample) when it fires.

    Schedules are deterministic: a rate-armed point decides hit [n] by a
    pure hash of (seed, point name, n), so an injection run replays
    identically — including across the serial and parallel Monte Carlo
    paths, which index hits identically (see {!fire_at} / {!advance}).

    Every point also feeds two counters into {!Yield_obs.Metrics}:
    [fault.<name>.hits] (times consulted) and [fault.<name>.injected]
    (times it fired), so a test can assert that the retry/degradation
    machinery accounted for every injected fault. *)

exception Injected of string
(** Raised by {!raise_if}: a simulated crash at the named point. *)

type mode =
  | Rate of { p : float; seed : int }
      (** each hit fails independently with probability [p] *)
  | Count of int  (** the first [n] hits fail *)
  | Every of int  (** hits [k], [2k], [3k], ... fail (1-based) *)
  | At of int  (** exactly hit [k] fails (1-based) *)

type point

val point : string -> point
(** Find-or-create the named injection point (same registry semantics as
    {!Yield_obs.Metrics}: two lookups share the instrument).  Resolve once
    and keep the handle on hot paths. *)

val name : point -> string

val arm : string -> mode -> unit

val disarm : string -> unit

val reset : unit -> unit
(** Disarm every point and zero every hit counter (tests). *)

val armed : unit -> (string * mode) list
(** The armed points, sorted by name. *)

val known : unit -> string list
(** Every registered point name, sorted.  Modules host their points in
    top-level bindings, so by the time [main] runs the registry lists every
    injection point linked into the program — the set a [--fault-spec]
    string is validated against.  Note {!arm} registers its point too:
    validate names {e before} arming. *)

val fire : point -> bool
(** Consume one hit of the point's schedule: [true] when armed and this hit
    fails.  The hit index is the point's internal atomic counter. *)

val fire_at : point -> index:int -> bool
(** Decide hit [index] without consuming the internal counter — for callers
    that own a deterministic index (e.g. a Monte Carlo sample number), so
    the decision is independent of domain interleaving. *)

val advance : point -> by:int -> int
(** Atomically reserve a block of [by] hit indices and return the first,
    for batched {!fire_at} use. *)

val raise_if : point -> unit
(** [fire] and raise {!Injected} when it fires — a simulated crash for
    checkpoint/resume tests. *)

val parse_spec : string -> ((string * mode) list, string) result
(** Parse a [--fault-spec] string:
    [NAME:key=value[,key=value][;NAME:...]] with keys [rate] (in [0, 1],
    optionally with [seed]), [count], [every], [at].  Example:
    ["dcop.solve:rate=0.2,seed=42;tbl.write:at=1"]. *)

val arm_spec : string -> (unit, string) result
(** Parse and arm in one step. *)

val mode_to_string : mode -> string
