(** Append-only write-ahead log of checksummed records.  Each record is
    framed as [rec <bytes> <fnv64-hex>\n<payload>\n]; recovery keeps
    exactly the valid prefix of records, so a writer killed at any byte
    loses at most its in-flight record. *)

(** What recovery found in a log file. *)
type recovery = {
  payloads : string list;  (** the valid record payloads, in append order *)
  valid_bytes : int;  (** offset just past the last valid record *)
  dropped_bytes : int;  (** length of the torn/corrupt tail *)
}

(** Recover the valid prefix of a log image / file.  A missing file is an
    empty log.  Never raises on corrupt input. *)
val recover_string : string -> recovery

val recover : string -> recovery

(** The on-disk framing of one payload (exposed for tests). *)
val frame : string -> string

type t

(** Open for appending: recovers, truncates the file to the valid prefix
    (so appends never land after a torn tail), and positions at the end.
    [~fsync:false] trades durability for speed (tests, benchmarks). *)
val open_ : ?fsync:bool -> string -> t * recovery

(** Append one record; durable before returning when [fsync] is on.
    Under [S89_FAULTS=wal_torn:P] a firing decision (keyed by the record
    index) writes a torn half-record and raises [Fault.Injected],
    simulating a writer dying mid-append.  Under [enospc:P] / [eio:P] a
    firing decision raises [Unix.Unix_error (ENOSPC|EIO, _, _)] before
    any byte lands — the file stays a valid prefix and the caller
    decides whether to buffer, shed, or die; retrying the append re-asks
    the decision with an advanced attempt counter. *)
val append : t -> string -> unit

(** [disk_fault ~key ~attempt ~fn path] — the shared injected-ENOSPC/EIO
    decision point used by every durable-write site (WAL appends,
    snapshot commits, durable-ack files).  Raises a real
    [Unix.Unix_error (ENOSPC|EIO, fn, path)] when the [enospc]/[eio]
    site fires for [(key, attempt)]; a no-op otherwise. *)
val disk_fault : key:int -> attempt:int -> fn:string -> string -> unit

(** Is this exception a (real or injected) disk-space/media fault? *)
val is_disk_fault : exn -> bool

(** Records in the file (recovered + appended). *)
val records : t -> int

val path : t -> string
val close : t -> unit
