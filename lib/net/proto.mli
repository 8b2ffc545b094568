(** Wire protocol of the multi-tenant analysis service: length-prefixed
    FNV-1a/64-checksummed frames ([s89 <len> <sum-hex>\n<payload>],
    {!S89_util.Codec}'s header frame)
    carrying line-oriented request/response payloads.  The codecs are
    pure ({!decode_request}/{!decode_response} never raise on arbitrary
    bytes — the fuzzer's codec mode feeds them garbage); the
    {!read_frame}/{!write_frame} pair does the blocking socket I/O. *)

(** Maximum payload bytes per frame (oversized frames are NET002). *)
val max_frame : int

(** Maximum tenant/job name length.  Names are restricted to
    [A-Za-z0-9_.-]: they become path components of the sharded store, so
    the grammar is the path-traversal defence. *)
val max_name : int

val name_ok : string -> bool

type request =
  | Submit of {
      tenant : string;
      job : string;
      runs : int;
      seed : int;
      deadline : float;  (** relative budget, seconds; 0 = none *)
      source : string;
    }
  | Status of { tenant : string; job : string }
  | Result of { tenant : string; job : string }
  | Metrics

type response =
  | Accepted of { job : string }
  | Rejected of { retry_after : float; reason : string }
      (** admission refused — NET001 (queue full / breaker open), NET004
          (rate limit / quota) or SRV007 (disk pressure), named in
          [reason]; retry after [retry_after] seconds *)
  | Job_status of { state : string; completed : int; total : int }
  | Job_result of { state : string; body : string }
  | Metrics_text of string
  | Error_resp of { code : string; message : string }

(** Wrap a payload in the on-wire frame.
    @raise S89_util.Codec.Too_large when the payload exceeds
    {!max_frame}: no frame the decoder would reject is ever built. *)
val frame : string -> string

(** Split a raw frame image back into its payload ([Error] = NET002
    material).  Total function — never raises. *)
val unframe : string -> (string, string) result

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

(** Render a retry-after for HUMAN-facing output ([%.3g]).  The wire
    serializes [%.17g] so the float round-trips exactly; this keeps
    [0.99999999999999989]-style noise out of the CLI. *)
val pp_retry_after : float -> string

(** Raised by the I/O functions on EOF mid-frame / closed peer. *)
exception Closed

(** Raised by {!read_frame} when the frame's absolute [?deadline]
    passes before the frame completes. *)
exception Timed_out

(** Read one frame ([Error] on malformed header or checksum mismatch —
    the connection should be dropped after answering NET002).  Raises
    {!Closed} on EOF, [Unix.Unix_error] on socket errors/timeouts.

    [?deadline] (absolute, [Unix.gettimeofday] base) bounds the WHOLE
    frame, re-armed before every read — the slowloris defence: a client
    dripping one byte per interval trips {!Timed_out} at the deadline
    instead of holding its connection, thread and fd forever.  Requires
    [fd] to be a socket (the remaining budget is re-armed as
    [SO_RCVTIMEO]). *)
val read_frame : ?deadline:float -> Unix.file_descr -> (string, string) result

(** Frame and write one payload.  @raise S89_util.Codec.Too_large
    (before any byte is written) when it exceeds {!max_frame}. *)
val write_frame : Unix.file_descr -> string -> unit

val send_request : Unix.file_descr -> request -> unit
val send_response : Unix.file_descr -> response -> unit
val recv_response : Unix.file_descr -> (response, string) result
