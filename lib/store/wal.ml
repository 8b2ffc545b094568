(* Write-ahead log: an append-only file of checksummed records.

   Framing ({!S89_util.Codec}'s header frame, binary-safe and
   self-delimiting):

       rec <payload-bytes> <fnv64-hex-of-payload>\n
       <payload bytes>\n

   Appends are durable — each record is written in one [write] and, with
   [~fsync:true] (the default), fsync'd before [append] returns.  A
   writer can die at any byte: recovery scans records from the start and
   stops at the first framing violation, short payload, or checksum
   mismatch, keeping exactly the VALID PREFIX of records.  [open_]
   truncates the file to that prefix so later appends never land after a
   torn tail.

   The seeded fault injector ([S89_FAULTS=wal_torn:P]) simulates the
   mid-append crash: [append] writes half the record's bytes and raises
   [Fault.Injected], leaving the torn tail for recovery to drop.
   [enospc:P] / [eio:P] simulate the disk itself failing: [append]
   raises a real [Unix.Unix_error] before any byte lands, so the file
   stays a valid prefix and the caller decides whether to buffer, shed,
   or die. *)

module Fault = S89_util.Fault
module Codec = S89_util.Codec

let magic = "rec"
let frame payload = Codec.frame ~eol:true ~magic payload

(* ---------------- recovery ---------------- *)

type recovery = {
  payloads : string list;  (* the valid prefix, in append order *)
  valid_bytes : int;  (* file offset just past the last valid record *)
  dropped_bytes : int;  (* torn/corrupt tail length *)
}

let recover_string (s : string) : recovery =
  let payloads, valid_bytes = Codec.valid_prefix ~magic s in
  { payloads; valid_bytes; dropped_bytes = String.length s - valid_bytes }

let read_whole path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      Some (really_input_string ic (in_channel_length ic))

let recover path =
  match read_whole path with
  | None -> { payloads = []; valid_bytes = 0; dropped_bytes = 0 }
  | Some s -> recover_string s

(* ---------------- appending ---------------- *)

(* Shared ENOSPC/EIO injection check for every durable-write site (WAL
   appends here; snapshot commits and durable-ack files in their own
   modules).  Raises a REAL [Unix.Unix_error] so absorbing layers treat
   injected and genuine disk faults identically.  [attempt] lets retry
   loops re-ask: with P < 1 a retried write usually succeeds. *)
let disk_fault ~key ~attempt ~fn path =
  match Fault.active () with
  | Some sp when Fault.fires sp Fault.Enospc ~key ~attempt ->
      raise (Unix.Unix_error (Unix.ENOSPC, fn, path))
  | Some sp when Fault.fires sp Fault.Eio ~key ~attempt ->
      raise (Unix.Unix_error (Unix.EIO, fn, path))
  | _ -> ()

let is_disk_fault = function
  | Unix.Unix_error ((Unix.ENOSPC | Unix.EIO), _, _) -> true
  | _ -> false

type t = {
  path : string;
  fd : Unix.file_descr;
  fsync : bool;
  mutable records : int; (* records in the file, recovered + appended *)
  mutable disk_attempts : int; (* failed tries of the current record *)
  mutable closed : bool;
}

let open_ ?(fsync = true) path =
  let r = recover path in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  (* drop the torn tail so appends continue the valid prefix *)
  Unix.ftruncate fd r.valid_bytes;
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  if fsync && r.dropped_bytes > 0 then Unix.fsync fd;
  ( { path; fd; fsync; records = List.length r.payloads; disk_attempts = 0;
      closed = false },
    r )

let write_all fd (s : string) =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let append t payload =
  if t.closed then invalid_arg "Wal.append: closed";
  let record = frame payload in
  (* fault injection: die mid-write, leaving a torn tail for recovery *)
  (match Fault.active () with
  | Some sp when Fault.fires sp Fault.Wal_torn ~key:t.records ~attempt:0 ->
      write_all t.fd (String.sub record 0 (String.length record / 2));
      if t.fsync then Unix.fsync t.fd;
      raise (Fault.Injected (Fault.injected_msg Fault.Wal_torn ~key:t.records))
  | _ -> ());
  (* injected ENOSPC/EIO: fail BEFORE any byte lands (the file stays a
     valid prefix); the per-record attempt counter advances so a caller
     retrying a buffered record can succeed when P < 1 *)
  (try disk_fault ~key:t.records ~attempt:t.disk_attempts ~fn:"write" t.path
   with e ->
     t.disk_attempts <- t.disk_attempts + 1;
     raise e);
  write_all t.fd record;
  if t.fsync then Unix.fsync t.fd;
  t.records <- t.records + 1;
  t.disk_attempts <- 0

let records t = t.records
let path t = t.path

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try if t.fsync then Unix.fsync t.fd with Unix.Unix_error _ -> ());
    Unix.close t.fd
  end
