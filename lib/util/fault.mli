(** Seeded fault injection.  A spec (normally from the [S89_FAULTS]
    environment variable, e.g.
    ["analysis_raise:0.05,db_truncate:0.5,seed:7"]) assigns
    probabilities to injection sites; decisions are pure functions of
    (seed, site, key, attempt) so fault-injected runs are exactly
    reproducible and independent of scheduling.  This module only
    decides — the injection points (Analysis, Database, Wal, Store)
    act. *)

type site =
  | Analysis_raise  (** per-procedure analysis raises {!Injected} *)
  | Db_truncate  (** [Database.save] writes a truncated file *)
  | Wal_torn  (** [Wal.append] writes a torn half-record, then dies *)
  | Dir_fsync
      (** a directory fsync — the durability point of the store's
          atomic-rename snapshot and WAL-epoch commits — raises
          {!Injected} instead of syncing *)
  | Enospc
      (** a durable write (WAL append, snapshot commit, durable-ack
          file) fails with [Unix.ENOSPC] before any byte reaches disk;
          the injection points raise a real [Unix.Unix_error] so
          absorbing layers treat injected and genuine disk-full
          identically *)
  | Eio  (** like {!Enospc} but [Unix.EIO] (media error) *)
  | Backoff
      (** never fires; its decision stream is sampled via {!uniform} for
          deterministic supervision backoff jitter *)

(** The exception injection points raise.  Recognizable (see
    {!is_injected}) so resilient layers can absorb it. *)
exception Injected of string

(** Raised (from {!active}) when [S89_FAULTS] is set but malformed.
    Deliberately NOT absorbed by the fault-tolerant layers: silently
    ignoring a typo'd fault spec would fake green chaos runs, so this
    must propagate to the top level as a configuration error. *)
exception Bad_spec of string

type spec

(** The no-faults spec (all probabilities 0); parse-result base. *)
val empty : spec

(** {!empty} with the given decision-stream seed — lets layers that only
    need the deterministic decision stream (e.g. supervision backoff
    jitter) build a spec without any fault probabilities. *)
val with_seed : int -> spec

(** The spec's decision-stream seed. *)
val seed : spec -> int

(** Parse an [S89_FAULTS] string. *)
val parse : string -> (spec, string) result

(** The process-wide active spec: parsed from [S89_FAULTS] on first use
    ({!Bad_spec} on a malformed value), [None] when unset.  {!set} and
    {!with_spec} override the environment; the override is atomic, so
    it may be flipped at runtime (tests, the serve [SIGUSR1]/[SIGUSR2]
    fault-pulse toggle) while worker domains consult it. *)
val active : unit -> spec option

val set : spec option -> unit

(** Run [f] with [spec] active, restoring the previous spec after. *)
val with_spec : spec option -> (unit -> 'a) -> 'a

(** Does [site] fire for [key] on retry [attempt]?  Deterministic. *)
val fires : spec -> site -> key:int -> attempt:int -> bool

(** The underlying uniform draw in [0, 1) behind {!fires} — a pure
    function of (seed, site, key, attempt).  Exposed so other
    deterministic schedules (supervision backoff jitter) can share the
    decision stream. *)
val uniform : spec -> site -> key:int -> attempt:int -> float

(** The configured probability of a site. *)
val prob : spec -> site -> float

(** Stable non-negative key for string-keyed sites (procedure names,
    paths). *)
val string_key : string -> int

val injected_msg : site -> key:int -> string
val is_injected : exn -> bool
