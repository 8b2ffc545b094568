(** Checkpointed profiling batches over the crash-safe {!S89_store.Store},
    run by [ptranc batch] and by the TCP server's workers.  The
    completed-run count in the store is the checkpoint: a killed batch
    restarted with [~resume:true] continues at seed [base + completed]
    and produces byte-identical estimates to an uninterrupted batch (run
    totals are integers; the conservation laws are linear). *)

module Supervise = S89_exec.Supervise
module Cost_model = S89_vm.Cost_model
module Diag = S89_diag.Diag

type outcome =
  | Completed of { runs : int; report : string }
      (** all runs accumulated; [report] is the Figure-3 style estimate *)
  | Interrupted of { completed : int; total : int; partial : string option }
      (** [should_stop] fired; the WAL already holds every completed run.
          [partial] is the estimate over those runs (graceful degradation
          for deadline-expired jobs), [None] when no run completed *)

(** [batch ~resume ~runs ~seed ~dir source] profiles [source] [runs]
    times (seeds [seed..seed+runs-1]) into the store at [dir], appending
    each completed run to the WAL, then compacts and reports.

    Batch metadata ([source-fnv], [base-seed], [runs]) is persisted on
    first open and validated on resume: a non-empty store without
    [~resume:true] is refused ([DB005]); a resume whose program, seed or
    run count differs from the store's is refused ([DB004]).

    Per-procedure analysis runs under a {!Supervise} supervisor and is
    journaled to the store; a resumed batch pre-trips the circuit
    breaker for procedures journaled as failed so they degrade
    identically instead of being retried into a different result.

    [should_stop] is polled between runs — graceful shutdown returns
    [Interrupted] with everything already durable.

    [?memo] memoizes analysis and estimation (see {!Memo}): persisted
    [memo-%06d] summaries are loaded from the store on open (validating
    recomputations across restarts, [MEMO002] on mismatch) and fresh
    summaries are appended durably on completion.  Output is
    byte-identical with or without it.

    [?on_disk_fault] is forwarded to {!S89_store.Store.open_}: called
    once per degraded window when the store starts absorbing
    ENOSPC/EIO write failures into memory (an embedding service uses it
    to shed load while the batch keeps running). *)
val batch :
  ?policy:Supervise.policy ->
  ?on_event:(Supervise.event -> unit) ->
  ?fsync:bool ->
  ?compact_threshold:int ->
  ?cost_model:Cost_model.t ->
  ?should_stop:(unit -> bool) ->
  ?export:string ->
  ?memo:Memo.t ->
  ?on_disk_fault:(exn -> unit) ->
  resume:bool ->
  runs:int ->
  seed:int ->
  dir:string ->
  string ->
  (outcome, Diag.t) result

(** Default [on_event] for {!batch}: logs supervision events as SRV
    diagnostics (SRV002 breaker, SRV003 wedged, SRV006 restarts).
    Exposed so the TCP server logs through the same vocabulary. *)
val log_event : Supervise.event -> unit
