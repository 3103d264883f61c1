type event = {
  name : string;
  ts_us : float;
  dur_us : float;
  tid : int;
  depth : int;
  key : int;
}

type phase = Opened | Closed

(* event timestamps are relative to the first use of the library, keeping
   them small enough to survive float printing exactly *)
let epoch_us = Clock.now_us ()

(* per-domain nesting state only; events themselves go to the listeners *)
type local = { mutable depth : int; tid : int }

let dls_key =
  Domain.DLS.new_key (fun () -> { depth = 0; tid = (Domain.self () :> int) })

(* ---------- the live event bus: registered sinks see every kept span as
   it opens and closes, so telemetry can stream to disk instead of
   accumulating in memory ---------- *)

type listener = { id : int; f : phase -> event -> unit }

let listeners : listener list Atomic.t = Atomic.make []

let next_listener_id = Atomic.make 0

let subscribe f =
  let id = Atomic.fetch_and_add next_listener_id 1 in
  let rec add () =
    let cur = Atomic.get listeners in
    if not (Atomic.compare_and_set listeners cur ({ id; f } :: cur)) then add ()
  in
  add ();
  id

let unsubscribe id =
  let rec remove () =
    let cur = Atomic.get listeners in
    let next = List.filter (fun l -> l.id <> id) cur in
    if not (Atomic.compare_and_set listeners cur next) then remove ()
  in
  remove ()

let emit phase e =
  List.iter (fun l -> l.f phase e) (Atomic.get listeners)

(* deterministic per-name ordinals for span keys: the instrumentation site
   asks for the next ordinal *before* fanning work out, so the key — and
   with it the sampling decision — is independent of the jobs count *)
let seq_lock = Mutex.create ()

let seqs : (string, int ref) Hashtbl.t = Hashtbl.create 8

let next_key name =
  Mutex.lock seq_lock;
  let r =
    match Hashtbl.find_opt seqs name with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add seqs name r;
        r
  in
  let k = !r in
  incr r;
  Mutex.unlock seq_lock;
  k

let reset_keys () =
  Mutex.lock seq_lock;
  Hashtbl.reset seqs;
  Mutex.unlock seq_lock

let c_sampled_out = lazy (Metrics.counter "span.sampled_out")

let timed ~name ?(key = 0) f =
  let b = Domain.DLS.get dls_key in
  let depth = b.depth in
  b.depth <- depth + 1;
  let kept = Sampler.keep ~name ~key in
  let t0 = Clock.now_us () in
  if kept then
    emit Opened
      { name; ts_us = t0 -. epoch_us; dur_us = 0.; tid = b.tid; depth; key };
  let finish () =
    let t1 = Clock.now_us () in
    b.depth <- depth;
    let dur_s = (t1 -. t0) /. 1e6 in
    (* metrics see every span — sampling thins the event stream, never the
       statistics *)
    Metrics.observe (Metrics.histogram ("span." ^ name)) dur_s;
    if kept then
      emit Closed
        { name; ts_us = t0 -. epoch_us; dur_us = t1 -. t0; tid = b.tid; depth; key }
    else Metrics.incr (Lazy.force c_sampled_out);
    dur_s
  in
  match f () with
  | v -> (v, finish ())
  | exception exn ->
      ignore (finish ());
      raise exn

let with_ ~name ?key f = fst (timed ~name ?key f)
