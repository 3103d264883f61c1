type format = Jsonl | Chrome

type t = {
  path : string;
  format : format;
  oc : out_channel;
  lock : Mutex.t;
  mutable chrome_events : int;  (** separators written so far *)
  mutable closed : bool;
  mutable error : string option;  (** the first failed write; none after *)
}

let format_of_path path =
  if Filename.check_suffix path ".jsonl" then Jsonl
  else if Filename.check_suffix path ".json" then Chrome
  else Jsonl

(* a failed write (a full disk) is kept, not raised: the writers run inside
   span listeners, which must not raise, and the run goes on without its
   stream; the owner reads [error] when it stops the stream *)
let guarded t write =
  if t.error = None then
    try write () with Sys_error msg -> t.error <- Some msg

let create ~path () =
  let format = format_of_path path in
  let t =
    {
      path;
      format;
      oc = open_out path;
      lock = Mutex.create ();
      chrome_events = 0;
      closed = false;
      error = None;
    }
  in
  (* the Chrome trace_event array format tolerates a missing closing
     bracket, so an incrementally grown file is loadable even after a
     crash *)
  if format = Chrome then
    guarded t (fun () ->
        output_string t.oc "[\n";
        flush t.oc);
  t

let path t = t.path

let format t = t.format

let error t = Mutex.protect t.lock (fun () -> t.error)

(* one event = one line = one buffered write + flush, so a crash can lose
   at most a partial final line — which [read_jsonl] tolerates on re-read *)
let write_json t j =
  Mutex.protect t.lock (fun () ->
      if not t.closed then
        guarded t (fun () ->
            (match t.format with
            | Jsonl ->
                output_string t.oc (Json.to_string j);
                output_char t.oc '\n'
            | Chrome ->
                if t.chrome_events > 0 then output_string t.oc ",\n";
                t.chrome_events <- t.chrome_events + 1;
                output_string t.oc (Json.to_string j));
            flush t.oc))

let chrome_event (e : Span.event) =
  Json.Obj
    [
      ("name", Json.String e.Span.name);
      ("cat", Json.String "yieldlab");
      ("ph", Json.String "X");
      ("ts", Json.Float e.Span.ts_us);
      ("dur", Json.Float e.Span.dur_us);
      ("pid", Json.Int 1);
      ("tid", Json.Int e.Span.tid);
    ]

let write_event t phase (e : Span.event) =
  match (t.format, phase) with
  | Jsonl, Span.Closed -> write_json t (Sink.span_json e)
  | Jsonl, Span.Opened ->
      write_json t
        (match Sink.span_json e with
        | Json.Obj (("type", _) :: rest) ->
            Json.Obj (("type", Json.String "span.open") :: rest)
        | other -> other)
  | Chrome, Span.Closed -> write_json t (chrome_event e)
  | Chrome, Span.Opened -> () (* complete ("X") events are close-time only *)

let close t =
  Mutex.protect t.lock (fun () ->
      if not t.closed then begin
        t.closed <- true;
        guarded t (fun () ->
            if t.format = Chrome then output_string t.oc "\n]\n";
            close_out t.oc);
        close_out_noerr t.oc
      end)

(* ---------- re-reading ---------- *)

type reread = { lines : Json.t list; truncated : bool }

let read_jsonl ~path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let complete, last =
    match String.rindex_opt text '\n' with
    | None -> ("", text)
    | Some i ->
        (String.sub text 0 i, String.sub text (i + 1) (String.length text - i - 1))
  in
  let lines =
    String.split_on_char '\n' complete |> List.filter (fun l -> l <> "")
  in
  (* every complete line must parse — mid-file corruption is a real error,
     not crash debris; only the unterminated tail is forgiven *)
  let parsed = List.map Json.parse lines in
  if last = "" then { lines = parsed; truncated = false }
  else
    match Json.parse last with
    | j -> { lines = parsed @ [ j ]; truncated = false }
    | exception Json.Parse_error _ -> { lines = parsed; truncated = true }

let spans_of_lines lines =
  List.filter_map
    (fun j ->
      match Json.member "type" j with
      | Some (Json.String "span") -> Sink.span_of_json j
      | _ -> None)
    lines
