type t = Unix_sock of string | Tcp of { host : string; port : int }

let parse s =
  let prefix p = String.length s > String.length p && String.sub s 0 (String.length p) = p in
  let after p = String.sub s (String.length p) (String.length s - String.length p) in
  if prefix "unix:" then begin
    match after "unix:" with
    | "" -> Error "unix: needs a socket path"
    | path -> Ok (Unix_sock path)
  end
  else if prefix "tcp:" then begin
    let rest = after "tcp:" in
    match String.rindex_opt rest ':' with
    | None -> Error "tcp: needs HOST:PORT"
    | Some i -> begin
        let host = String.sub rest 0 i in
        let port = String.sub rest (i + 1) (String.length rest - i - 1) in
        match (host, int_of_string_opt port) with
        | "", _ -> Error "tcp: needs a host (e.g. tcp:127.0.0.1:7878)"
        | _, Some p when p > 0 && p < 65536 -> Ok (Tcp { host; port = p })
        | _, (Some _ | None) -> Error ("bad tcp port " ^ port)
      end
  end
  else
    Error
      (Printf.sprintf "bad address %S: expected unix:PATH or tcp:HOST:PORT" s)

let to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp { host; port } -> Printf.sprintf "tcp:%s:%d" host port

let unlink = function
  | Tcp _ -> ()
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp { host; port } ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ ->
          (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      Unix.ADDR_INET (ip, port)

let domain = function Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET

let listen t =
  unlink t;
  let fd = Unix.socket (domain t) Unix.SOCK_STREAM 0 in
  (try
     (match t with
     | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
     | Unix_sock _ -> ());
     Unix.bind fd (sockaddr t);
     Unix.listen fd 128
   with e ->
     Unix.close fd;
     raise e);
  fd

let connect t =
  let fd = Unix.socket (domain t) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr t)
   with e ->
     Unix.close fd;
     raise e);
  fd
