(** Server addresses: Unix-domain sockets for same-host serving, TCP for
    the network.  One grammar everywhere ([--listen], [--addr]):
    [unix:PATH] or [tcp:HOST:PORT]. *)

type t =
  | Unix_sock of string  (** filesystem path *)
  | Tcp of { host : string; port : int }

val parse : string -> (t, string) result
(** [unix:PATH] or [tcp:HOST:PORT].  The error is a usable message. *)

val to_string : t -> string
(** Round-trips through {!parse}. *)

val listen : t -> Unix.file_descr
(** Bind and listen (backlog 128).  A stale Unix-socket file left
    by a killed server is unlinked first; TCP listeners set [SO_REUSEADDR].
    @raise Unix.Unix_error when the address cannot be bound. *)

val connect : t -> Unix.file_descr
(** Blocking client connect.
    @raise Unix.Unix_error when nothing is listening. *)

val unlink : t -> unit
(** Remove a Unix socket's filesystem entry (no-op for TCP and missing
    files) — the listener's cleanup on shutdown. *)
