(** A reusable OCaml 5 domain pool with deterministic reduction.

    One pool serves a whole flow run: the WBGA evaluates each generation's
    population through it, the Pareto-front re-simulation fans its nominal
    evaluations out over it, and every Monte Carlo batch chunks its samples
    across the same worker domains.  Spawning the workers once (instead of
    a throwaway pool per batch) amortises the domain start-up cost over the
    100+ batches of a run.

    {2 Determinism contract}

    [map]/[map_counted] assign items to workers dynamically (an atomic
    work-stealing index), but results are always written to the item's own
    slot and reduced in item order, so the output is independent of the
    interleaving.  The caller keeps every order-sensitive side effect
    (RNG stream splitting, fitness normalisation, archive updates, metric
    baselines) outside the mapped function: split per-item child RNG
    streams {e before} the fan-out and fold over the results {e after} it.
    With a deterministic per-item function, a [jobs = n] map is
    bit-identical to the serial loop.

    A pool created with [jobs = 1] spawns no domains and runs every map as
    a plain in-order loop on the caller's domain — the exact serial code
    path, with no atomics and no worker spans.

    {2 Observability and fault injection}

    Each participating domain (the workers and the calling domain, which
    always takes part) records one ["exec.worker"] span per parallel map;
    their durations against the enclosing batch span give the per-domain
    utilisation.  {!map_counted} can consult a
    {!Yield_resilience.Fault.point} per item: a block of hit indices is
    reserved up front and each item's fate is decided by its own global
    index, so an injection schedule fires on exactly the same items
    whatever the interleaving and whatever [jobs]. *)

type t

type 'a counted = {
  results : 'a array;  (** the successful items, in item order *)
  attempted : int;
  failed : int;  (** items that returned [None] or were injected away *)
}

val create : jobs:int -> unit -> t
(** [create ~jobs ()] spawns [max 1 jobs - 1] worker domains (the caller is
    the remaining participant).  The pool must be released with
    {!shutdown}; prefer {!with_pool} where the lifetime is a scope.  A
    one-job pool holds no domain and needs no release. *)

val jobs : t -> int
(** The participant count the pool was created with (always >= 1). *)

val map : t -> n:int -> (int -> 'a) -> 'a array
(** [map t ~n f] computes [|f 0; ...; f (n-1)|], fanning the calls out over
    the pool's domains.  [f] must not share unsynchronised mutable state
    across items.  If any call raises, the first exception (in completion
    order) is re-raised in the caller after all workers have quiesced;
    remaining items may be skipped. *)

val map_counted :
  t -> ?fault:Yield_resilience.Fault.point -> n:int -> (int -> 'a option) ->
  'a counted
(** [map_counted t ~n f] is {!map} for partial per-item functions: [None]
    results are dropped and counted as [failed], successes are collected in
    item order.  With [?fault], a block of [n] hit indices of the point is
    reserved ({!Yield_resilience.Fault.advance}) and an item whose index
    fires ({!Yield_resilience.Fault.fire_at}) is lost — [f] is not called
    — so a schedule loses the same items at any [jobs]. *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent; the pool must not be used
    afterwards. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exceptions). *)
