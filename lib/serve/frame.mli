(** The stlb/1 wire codec — the length-prefixed binary protocol
    [stlb serve] speaks over its Unix socket.

    PROTOCOL.md is the {e normative} specification of this format
    (frame layout, request/response types, error codes, the
    seed-derivation rule and versioning); this module is the reference
    implementation, and the conformance test in [test/test_serve.ml]
    parses the hex-dump examples out of PROTOCOL.md and round-trips
    them through {!encode}/{!decode}, so the document cannot drift from
    this code.

    Shape recap (see PROTOCOL.md §2 for the byte-exact rules): a frame
    is a 4-byte big-endian payload length followed by the payload; the
    payload is a 1-byte protocol version ({!version}), a 1-byte message
    type, an 8-byte big-endian request id, and a type-specific body.
    Responses echo the id of the request they answer. *)

val version : int
(** The protocol version byte this implementation speaks: [0x01]. *)

val max_id : int
(** The largest valid request id, [2^62 - 1]: ids are unsigned and must
    be [< 2^62] so they survive the wire-[int64] → OCaml-[int]
    conversion and can key the splitmix64 seed derivation. On 64-bit
    OCaml this is [max_int]; larger wire values are rejected as
    malformed. *)

type algorithm = Reference | Sort | Fingerprint | Nst

(** The wire problem space (PROTOCOL.md §3): the three core decision
    problems plus two query-layer reductions — [Relalg_symdiff] (byte
    [0x04]) decides SET-EQUALITY by evaluating Theorem 11(b)'s
    [(R1−R2) ∪ (R2−R1)] through the streaming relational-algebra
    evaluator, and [Xpath_filter] (byte [0x05]) decides "is some
    [set1] string missing from [set2]?" by running Theorem 13's Figure
    1 XPath filter over the Section 4 instance document. All five take
    the same [{0,1,#}] instance encoding; the query problems accept
    only the [reference] and [sort] algorithms. *)
type problem =
  | Core of Problems.Decide.problem
  | Relalg_symdiff
  | Xpath_filter

type decide_body = {
  problem : problem;
  algorithm : algorithm;
  instance : string;  (** the [{0,1,#}] instance encoding, raw bytes *)
}

type verdict = {
  verdict : bool;
  audited : bool;
      (** [true] when the run's {!Obs.Audit} theorem-budget check ran
          and passed; [false] when no budget applies (reference runs,
          NST rejections). A {e failed} audit is never a verdict — it
          is an [Audit_failed] error response. *)
  scans : int;
  internal : int;  (** meter peak: bits (fingerprint) or registers *)
  tapes : int;
}

type error_code =
  | Bad_version
  | Bad_type
  | Malformed
  | Too_large
  | Overloaded
  | Budget
  | Audit_failed
  | Internal

type request =
  | Ping
  | Decide of decide_body
  | Batch of decide_body list
  | Stats
  | Health
  | Shutdown

type response =
  | Pong
  | Verdict of verdict
  | Batch_verdict of verdict list
  | Stats_json of string
  | Health_json of string
  | Bye
  | Error of { code : error_code; message : string }

type payload = Request of request | Response of response
type msg = { id : int; payload : payload }

val error_code_byte : error_code -> int
val error_code_name : error_code -> string

val encode : msg -> string
(** The full frame: length prefix and payload.
    @raise Invalid_argument on out-of-range ids, batch counts or body
    sizes — the codec never emits a frame it would not decode. *)

(** One attempt to decode a frame off the front of a byte buffer. *)
type decode_result =
  | Complete of msg * int
      (** a whole well-formed frame; [int] is the bytes consumed *)
  | Incomplete  (** a frame prefix — read more bytes and retry *)
  | Broken of { code : error_code; message : string; consumed : int }
      (** a whole frame arrived but does not parse. [consumed = 0]
          means framing itself is unrecoverable (oversized or absurd
          length prefix) and the connection must be closed; otherwise
          the broken frame can be skipped and the stream resynchronizes
          at the next length prefix. *)

val decode : ?max_frame:int -> string -> pos:int -> decode_result
(** Decode the frame starting at [pos]. [max_frame] bounds the payload
    length ({!default_max_frame} by default); a longer announced
    payload is [Broken] with [Too_large] and [consumed = 0]. *)

val default_max_frame : int
(** [1 lsl 20] — 1 MiB of payload. *)

val peek_id : string -> pos:int -> int option
(** Best-effort request id of the (possibly broken) frame at [pos], for
    addressing error responses; [None] if even the header is cut short
    or the id is out of range. *)

val describe : msg -> string
(** One-line canonical rendering, e.g.
    [{|request DECIDE id=7 problem=multiset-eq algorithm=fingerprint instance=01#10#01#10#|}].
    PROTOCOL.md's worked examples pair each hex dump with exactly this
    string, and the conformance test compares them verbatim. *)

val problem_name : problem -> string
val algorithm_name : algorithm -> string
