(** Bounded retries with failure classification.

    A policy names the operation and bounds its attempts; {!with_retries}
    re-runs the operation on {e transient} failures (the attempt number is
    passed so the caller can perturb, e.g. jitter the DC initial guess) and
    gives up immediately on {e permanent} ones.

    Each policy feeds {!Yield_obs.Metrics}: the [retry.<name>.attempts]
    histogram (attempts per call) and the [retry.<name>.retries] /
    [.recovered] / [.exhausted] / [.permanent] counters.  When fault
    injection is the only transient-failure source, the accounting identity

    [fault.<point>.injected = retry.<name>.retries + retry.<name>.exhausted]

    holds exactly, which is how the tests prove no injected fault goes
    unaccounted. *)

type classification = Transient | Permanent

type policy

val policy : ?max_attempts:int -> string -> policy
(** [policy name] with [max_attempts] total attempts (default 3: the first
    try plus two retries).  @raise Invalid_argument when [max_attempts < 1]. *)

val name : policy -> string

val max_attempts : policy -> int

val with_retries :
  ?deadline_s:float ->
  policy ->
  classify:('e -> classification) ->
  (attempt:int -> ('a, 'e) result) ->
  ('a, 'e) result
(** [with_retries p ~classify f] calls [f ~attempt:1], retrying transient
    errors with increasing [attempt] up to the policy bound.  Returns the
    first success or the last failure.

    [deadline_s] is an {e absolute} monotonic deadline (the
    {!Yield_obs.Clock.now_s} timebase): after a transient failure, a retry
    is launched only when it can plausibly finish before the deadline —
    [now + previous attempt's duration <= deadline_s].  Stopping on the
    deadline counts into [retry.<name>.exhausted] (so the accounting
    identity above still holds) and additionally into
    [retry.<name>.deadline_stopped].  The first attempt always runs;
    callers enforce admission deadlines themselves. *)

val settle :
  ?deadline_s:float -> policy -> attempt:int -> started_s:float ->
  classification option -> bool
(** [settle p ~attempt ~started_s failure] is the decision {!with_retries}
    takes after each attempt, for a caller that runs its own attempt loop
    without a closure: it records how attempt [attempt] ended ([None]: it
    succeeded; [Some c]: it failed with class [c]) into the policy's
    counters and histogram exactly as {!with_retries} does, and answers
    whether another attempt should run.  [started_s] is when the attempt
    began, on the {!Yield_obs.Clock.now_s} timebase; only a [deadline_s]
    reads it, so a caller without one may pass [0.].  A success allocates
    nothing, and neither does {!with_retries} around an [f] whose first
    attempt succeeds without a deadline. *)
