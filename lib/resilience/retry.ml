module Metrics = Yield_obs.Metrics

type classification = Transient | Permanent

type policy = {
  name : string;
  max_attempts : int;
  h_attempts : Yield_obs.Histogram.t;
  c_retries : Metrics.counter;
  c_recovered : Metrics.counter;
  c_exhausted : Metrics.counter;
  c_permanent : Metrics.counter;
  c_deadline : Metrics.counter;
}

let policy ?(max_attempts = 3) name =
  if max_attempts < 1 then invalid_arg "Retry.policy: max_attempts < 1";
  {
    name;
    max_attempts;
    h_attempts = Metrics.histogram ("retry." ^ name ^ ".attempts");
    c_retries = Metrics.counter ("retry." ^ name ^ ".retries");
    c_recovered = Metrics.counter ("retry." ^ name ^ ".recovered");
    c_exhausted = Metrics.counter ("retry." ^ name ^ ".exhausted");
    c_permanent = Metrics.counter ("retry." ^ name ^ ".permanent");
    c_deadline = Metrics.counter ("retry." ^ name ^ ".deadline_stopped");
  }

let name p = p.name

let max_attempts p = p.max_attempts

(* a retry is only worth starting when it can plausibly finish inside the
   deadline; the previous attempt's duration is the estimate *)
let deadline_blocks_retry deadline_s ~started_s =
  match deadline_s with
  | None -> false
  | Some d ->
      let attempt_s = Yield_obs.Clock.now_s () -. started_s in
      Yield_obs.Clock.now_s () +. attempt_s > d

(* Top-level and closure-free, so that a call whose first attempt
   succeeds allocates nothing here.  Giving up on the deadline counts as
   exhaustion, so the [injected = retries + exhausted] accounting
   identity survives the deadline cut. *)
let settle ?deadline_s p ~attempt ~started_s failure =
  match failure with
  | None ->
      if attempt > 1 then Metrics.incr p.c_recovered;
      Metrics.observe_int p.h_attempts attempt;
      false
  | Some Permanent ->
      Metrics.incr p.c_permanent;
      Metrics.observe_int p.h_attempts attempt;
      false
  | Some Transient ->
      if attempt >= p.max_attempts then begin
        Metrics.incr p.c_exhausted;
        Metrics.observe_int p.h_attempts attempt;
        false
      end
      else if deadline_blocks_retry deadline_s ~started_s then begin
        Metrics.incr p.c_deadline;
        Metrics.incr p.c_exhausted;
        Metrics.observe_int p.h_attempts attempt;
        false
      end
      else begin
        Metrics.incr p.c_retries;
        true
      end

let rec attempts_from ?deadline_s p ~classify f attempt =
  (* only a deadline reads the clock *)
  let started_s =
    match deadline_s with None -> 0. | Some _ -> Yield_obs.Clock.now_s ()
  in
  let r = f ~attempt in
  let failure = match r with Ok _ -> None | Error e -> Some (classify e) in
  if settle ?deadline_s p ~attempt ~started_s failure then
    attempts_from ?deadline_s p ~classify f (attempt + 1)
  else r

let with_retries ?deadline_s p ~classify f = attempts_from ?deadline_s p ~classify f 1
