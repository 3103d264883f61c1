module Json = Yield_obs.Json

type t = { fd : Unix.file_descr; inbuf : Buffer.t; mutable eof : bool }

let connect addr =
  let fd = Addr.connect addr in
  (* SO_RCVTIMEO is not settable on every socket family/platform combo;
     a client without a receive timeout still works, it just blocks *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  { fd; inbuf = Buffer.create 256; eof = false }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send_raw t s =
  let len = String.length s in
  let rec push off =
    if off < len then begin
      match Unix.write_substring t.fd s off (len - off) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
      | n -> push (off + n)
    end
  in
  push 0

let send_line t line = send_raw t (line ^ "\n")

let take_line t =
  let data = Buffer.contents t.inbuf in
  match String.index_opt data '\n' with
  | None -> None
  | Some nl ->
      Buffer.clear t.inbuf;
      Buffer.add_substring t.inbuf data (nl + 1)
        (String.length data - nl - 1);
      Some (String.sub data 0 nl)

let recv_line t =
  let chunk = Bytes.create 8192 in
  let rec go () =
    match take_line t with
    | Some line -> Some line
    | None ->
        if t.eof then None
        else begin
          match Unix.read t.fd chunk 0 (Bytes.length chunk) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | 0 ->
              t.eof <- true;
              go ()
          | n ->
              Buffer.add_subbytes t.inbuf chunk 0 n;
              go ()
        end
  in
  go ()

let request t json =
  send_line t (Json.to_string json);
  match recv_line t with
  | None -> failwith "client: connection closed before the response"
  | Some line -> (
      try Json.parse line
      with Json.Parse_error msg ->
        failwith ("client: unparseable response frame: " ^ msg))
