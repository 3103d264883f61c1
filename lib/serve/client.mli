(** A minimal blocking client for the wire protocol — what [loadgen], the
    CI smoke probe and the end-to-end tests talk through.

    One connection, synchronous request/response.  Pipelining is just
    calling {!send_line} several times before reading; frames come back in
    request order (the server's per-connection ordering guarantee). *)

type t

val connect : Addr.t -> t
(** Blocking connect; every subsequent receive is bounded at 5 s
    ([SO_RCVTIMEO]).
    @raise Unix.Unix_error when nothing is listening. *)

val close : t -> unit

val send_line : t -> string -> unit
(** Write one raw request line (the newline is appended).
    @raise Unix.Unix_error when the peer is gone. *)

val send_raw : t -> string -> unit
(** Write bytes verbatim, {e without} a newline — for tests that need to
    present truncated or unframed input to the server. *)

val recv_line : t -> string option
(** Next response line (without the newline); [None] on EOF.
    @raise Unix.Unix_error ([EAGAIN]) when the receive timeout expires. *)

val request : t -> Yield_obs.Json.t -> Yield_obs.Json.t
(** Send one JSON request and parse the matching response frame.
    @raise Failure on EOF or an unparseable frame. *)
