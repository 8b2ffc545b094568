(* Wire protocol of the multi-tenant analysis service.

   Every message — request or response — travels as one length-prefixed
   checksummed frame:

     s89 <payload-bytes> <fnv64-hex>\n<payload>

   This is {!S89_util.Codec}'s header frame, the WAL record framing
   without the trailing newline, so a frame torn or corrupted in flight
   is detected the same way a torn WAL record is.  Frames are bounded
   ([max_frame] bytes of payload): a malformed or oversized header is a
   NET002 protocol error, never an unbounded allocation driven by
   untrusted bytes, and the encoder refuses ([Codec.Too_large]) to build
   a frame over the cap.

   The payload is line-oriented text.  Requests:

     submit <tenant> <job> <runs> <seed> <deadline>\n<source...>
     status <tenant> <job>
     result <tenant> <job>
     metrics

   Responses:

     accepted <job>
     rejected <retry-after-seconds>\n<reason>
     status <state> <completed> <total>
     result <state>\n<body...>
     metrics\n<text...>
     error <code>\n<message>

   [deadline] is a relative budget in seconds (0 = none); the server
   turns it into an absolute wall-clock deadline at admission.  Tenant
   and job names are restricted to [A-Za-z0-9_.-], at most 64 bytes —
   they become path components of the sharded store, so the grammar is
   the path-traversal defence.

   The codecs are pure string functions (decode never raises on
   arbitrary bytes — the fuzzer's codec mode feeds it garbage); the
   [read_frame]/[write_frame] pair does the blocking socket I/O with
   EINTR retry and short-read handling. *)

module Codec = S89_util.Codec

let max_frame = 4 * 1024 * 1024
let max_name = 64

type request =
  | Submit of {
      tenant : string;
      job : string;
      runs : int;
      seed : int;
      deadline : float;
      source : string;
    }
  | Status of { tenant : string; job : string }
  | Result of { tenant : string; job : string }
  | Metrics

type response =
  | Accepted of { job : string }
  | Rejected of { retry_after : float; reason : string }
  | Job_status of { state : string; completed : int; total : int }
  | Job_result of { state : string; body : string }
  | Metrics_text of string
  | Error_resp of { code : string; message : string }

(* ---------------- names ---------------- *)

let name_ok s =
  let n = String.length s in
  n > 0 && n <= max_name
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* ---------------- framing ---------------- *)

let magic = "s89"

(* raises [Codec.Too_large] rather than build a frame [unframe] rejects *)
let frame payload = Codec.frame ~max_len:max_frame ~magic payload

(* split a raw frame image back into its payload; [Error] = NET002 *)
let unframe raw = Codec.decode ~max_len:max_frame ~magic raw

(* ---------------- payload codecs ---------------- *)

(* first line / rest split; a missing newline means an empty rest *)
let split_body s =
  match String.index_opt s '\n' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let encode_request = function
  | Submit { tenant; job; runs; seed; deadline; source } ->
      Printf.sprintf "submit %s %s %d %d %.17g\n%s" tenant job runs seed
        deadline source
  | Status { tenant; job } -> Printf.sprintf "status %s %s" tenant job
  | Result { tenant; job } -> Printf.sprintf "result %s %s" tenant job
  | Metrics -> "metrics"

let decode_request payload =
  let line, body = split_body payload in
  match String.split_on_char ' ' line with
  | [ "submit"; tenant; job; runs; seed; deadline ] -> (
      if not (name_ok tenant) then Error "invalid tenant name"
      else if not (name_ok job) then Error "invalid job name"
      else
        match
          (int_of_string_opt runs, int_of_string_opt seed,
           float_of_string_opt deadline)
        with
        | Some runs, Some seed, Some deadline
          when runs > 0 && deadline >= 0.0 && Float.is_finite deadline ->
            Ok (Submit { tenant; job; runs; seed; deadline; source = body })
        | _ -> Error "malformed submit parameters")
  | [ "status"; tenant; job ] when name_ok tenant && name_ok job ->
      Ok (Status { tenant; job })
  | [ "result"; tenant; job ] when name_ok tenant && name_ok job ->
      Ok (Result { tenant; job })
  | [ "metrics" ] -> Ok Metrics
  | _ -> Error "unrecognized request"

(* Human-facing rendering of a retry-after.  The wire (below) keeps
   %.17g so the float round-trips exactly; people get %.3g — a server
   computing [1.0 -. epsilon] must not leak
   "retry after 0.99999999999999989s" into CLI output. *)
let pp_retry_after retry_after = Printf.sprintf "%.3g" retry_after

let encode_response = function
  | Accepted { job } -> Printf.sprintf "accepted %s" job
  | Rejected { retry_after; reason } ->
      Printf.sprintf "rejected %.17g\n%s" retry_after reason
  | Job_status { state; completed; total } ->
      Printf.sprintf "status %s %d %d" state completed total
  | Job_result { state; body } -> Printf.sprintf "result %s\n%s" state body
  | Metrics_text text -> Printf.sprintf "metrics\n%s" text
  | Error_resp { code; message } -> Printf.sprintf "error %s\n%s" code message

let decode_response payload =
  let line, body = split_body payload in
  match String.split_on_char ' ' line with
  | [ "accepted"; job ] when name_ok job -> Ok (Accepted { job })
  | [ "rejected"; retry ] -> (
      match float_of_string_opt retry with
      | Some retry_after when retry_after >= 0.0 ->
          Ok (Rejected { retry_after; reason = body })
      | _ -> Error "malformed rejected response")
  | [ "status"; state; completed; total ] -> (
      match (int_of_string_opt completed, int_of_string_opt total) with
      | Some completed, Some total when completed >= 0 && total >= 0 ->
          Ok (Job_status { state; completed; total })
      | _ -> Error "malformed status response")
  | [ "result"; state ] -> Ok (Job_result { state; body })
  | [ "metrics" ] -> Ok (Metrics_text body)
  | [ "error"; code ] -> Ok (Error_resp { code; message = body })
  | _ -> Error "unrecognized response"

(* ---------------- socket I/O ---------------- *)

exception Closed
exception Timed_out

let rec retry_intr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_intr f

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    let w = retry_intr (fun () -> Unix.write_substring fd s !off (n - !off)) in
    if w = 0 then raise Closed;
    off := !off + w
  done

(* One read against an ABSOLUTE frame deadline (the slowloris defence):
   SO_RCVTIMEO alone only bounds the gap between bytes, so a client
   dripping one byte per interval holds a connection (and its thread +
   fd) forever.  Before every read the remaining budget is re-armed as
   the socket timeout; once the deadline passes, [Timed_out].  Without a
   deadline this is a plain blocking read. *)
let read_some ?deadline fd buf off len =
  match deadline with
  | None ->
      let r = retry_intr (fun () -> Unix.read fd buf off len) in
      if r = 0 then raise Closed;
      r
  | Some dl ->
      let rec go () =
        let remaining = dl -. Unix.gettimeofday () in
        if remaining <= 0.0 then raise Timed_out;
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO (Float.max 0.001 remaining);
        match Unix.read fd buf off len with
        | 0 -> raise Closed
        | r -> r
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            go ()
      in
      go ()

let read_exact ?deadline fd n =
  let buf = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    off := !off + read_some ?deadline fd buf !off (n - !off)
  done;
  Bytes.unsafe_to_string buf

(* [Ok payload] | [Error msg] (NET002 material); raises [Closed] on EOF
   before a full frame, [Timed_out] past the deadline, [Unix.Unix_error]
   on socket errors.  The header is read byte by byte so no payload byte
   past its newline is consumed. *)
let read_frame ?deadline fd =
  let one = Bytes.create 1 in
  let input_char () =
    ignore (read_some ?deadline fd one 0 1 : int);
    Bytes.get one 0
  in
  Codec.read ~max_len:max_frame ~magic ~input_char
    ~really_input:(read_exact ?deadline fd) ()

let write_frame fd payload = write_all fd (frame payload)

let send_request fd r = write_frame fd (encode_request r)
let send_response fd r = write_frame fd (encode_response r)

let recv_response fd =
  match read_frame fd with
  | Error e -> Error ("bad frame: " ^ e)
  | Ok payload -> decode_response payload
