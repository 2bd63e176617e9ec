(** A minimal synchronous client for the stlb/1 protocol — the library
    behind [stlb loadgen], the E20 harness and the serve tests.

    One request in flight at a time: each request ({!ping}, {!decide},
    {!batch}, …) writes a frame and blocks until the matching response
    (the server answers in per-connection order, and every response
    echoes the request id).

    Each connection owns one 64 KiB receive buffer, allocated by
    {!connect} and reused by every read, so a response allocates only
    the bytes that arrived. *)

type t

val connect : ?retries:int -> string -> t
(** Connect to a Unix-domain socket, retrying [retries] times (default
    50) with a 0.1 s pause — covers the window between spawning a
    server and its [listen].
    @raise Unix.Unix_error when the last retry fails. *)

val close : t -> unit

val send_raw : t -> string -> unit
(** Write raw bytes (fuzz tests: malformed frames on purpose). *)

val read_response : t -> Frame.msg
(** Read the next response frame (after {!send_raw}).
    @raise Failure on EOF. *)

val ping : t -> id:int -> bool
(** [true] iff the server answered PONG to this id. *)

val decide :
  t ->
  id:int ->
  problem:Frame.problem ->
  algorithm:Frame.algorithm ->
  instance:string ->
  (Frame.verdict, Frame.error_code * string) result

val batch :
  t ->
  id:int ->
  Frame.decide_body list ->
  (Frame.verdict list, Frame.error_code * string) result

val stats : t -> id:int -> string
(** The STATS JSON body. @raise Failure on an unexpected response. *)

val health : t -> id:int -> string

val shutdown : t -> id:int -> unit
(** SHUTDOWN; returns once the server's BYE arrives. *)
