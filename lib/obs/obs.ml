let verbose_flag = ref false

let verbose_sub : int option ref = ref None

let set_verbose v =
  verbose_flag := v;
  match (v, !verbose_sub) with
  | true, None ->
      verbose_sub :=
        Some
          (Span.subscribe (fun phase (e : Span.event) ->
               match phase with
               | Span.Opened -> ()
               | Span.Closed ->
                   Printf.eprintf "[span] %*s%s %.3f ms\n%!" (2 * e.Span.depth)
                     "" e.Span.name (e.Span.dur_us /. 1e3)))
  | false, Some id ->
      Span.unsubscribe id;
      verbose_sub := None
  | _ -> ()

let verbose () = !verbose_flag

(* ---------- the streaming sink ---------- *)

type stream_state = {
  stream : Stream.t;
  sub : int;
  snapshot : Snapshot.t option;
}

let active : stream_state option ref = ref None

let stream_active () = Option.is_some !active

let start_stream ?snapshot_every_s ~path () =
  match !active with
  | Some _ -> () (* first stream wins; CLI flags are applied before config *)
  | None ->
      let stream = Stream.create ~path () in
      let snapshot =
        Option.map
          (fun every_s ->
            Snapshot.create ~every_s ~emit:(Stream.write_json stream))
          snapshot_every_s
      in
      let sub =
        Span.subscribe (fun phase e ->
            Stream.write_event stream phase e;
            (* snapshots ride span closes: no timer thread needed, and a
               run busy enough to need snapshots closes spans constantly *)
            if phase = Span.Closed then Option.iter Snapshot.tick snapshot)
      in
      active := Some { stream; sub; snapshot }

let stop_stream () =
  match !active with
  | None -> ()
  | Some { stream; sub; snapshot } ->
      active := None;
      Span.unsubscribe sub;
      Option.iter Snapshot.force snapshot;
      (* final registry state as ordinary metric lines, so the stream alone
         reconstructs what the exit-time JSONL sink would have written *)
      if Stream.format stream = Stream.Jsonl then begin
        let snap = Metrics.snapshot () in
        List.iter
          (fun c -> Stream.write_json stream (Sink.counter_json c))
          snap.Metrics.counters;
        List.iter
          (fun h -> Stream.write_json stream (Sink.histogram_json h))
          snap.Metrics.histograms
      end;
      Stream.close stream

(* ---------- idempotent env/config arming (CLI flags win) ---------- *)

let ensure_telemetry ?trace_stream ?span_sample ?snapshot_every_s () =
  (match span_sample with
  | Some spec when not (Sampler.active ()) -> (
      match Sampler.configure spec with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "warning: ignoring span-sample spec %S: %s\n%!" spec
            msg)
  | _ -> ());
  match trace_stream with
  | Some path when not (stream_active ()) ->
      start_stream ?snapshot_every_s ~path ()
  | _ -> ()

(* ---------- exit-time sinks ---------- *)

let flush ?trace ?metrics () =
  Option.iter (fun path -> Sink.write_chrome_trace ~path ()) trace;
  Option.iter (fun path -> Sink.write_metrics_jsonl ~path ()) metrics

let summary () =
  let base = Sink.text_of ~spans:(Span.events ()) (Metrics.snapshot ()) in
  match Span.dropped () with
  | 0 -> base
  | n ->
      Printf.sprintf
        "%s(span ring: %d older events rotated out; the full log is only in \
         a --trace-stream file)\n"
        base n

let reset () =
  Span.clear ();
  Span.reset_keys ();
  Metrics.reset ()
