(* Multi-tenant TCP analysis service.

   One listener thread accepts connections; each connection gets a
   thread speaking the {!Proto} frame protocol.  Submitted jobs pass
   through a bounded per-tenant {!Admission} queue (overflow is refused
   immediately with NET001 + retry-after) and are executed by a pool of
   worker DOMAINS, each running one checkpointed {!S89_core.Service}
   batch at a time — threads own the blocking socket I/O, domains own
   the compute, and the admission queue is the hand-off point.

   DURABILITY.  A job is acked only after its [source.mf] and [job.meta]
   are atomically persisted under the store root, sharded by source
   fingerprint ([shard-%02x/] from the low byte of the source FNV-64);
   each job's runs then stream into its own WAL-backed store.  A server
   killed at any point therefore restarts into a consistent picture: the
   startup scan re-registers finished jobs (report on disk), failed ones
   ([job.err] on disk), and re-enqueues everything else, and resumed
   batches continue from their run-count checkpoint to byte-identical
   reports.  Completed runs are never lost or recomputed.

   DEADLINES.  A submit carries a relative deadline (seconds; 0 = none)
   made absolute at admission.  Queue wait counts against it: an expired
   job stops at the next run boundary via the batch's [should_stop]
   guard (the same mechanism as PR 4's fuel/wall guards), answers SRV004
   and keeps the PARTIAL estimate over the runs that did complete — the
   store already holds them, so degradation is graceful, not lossy.

   LOAD SHEDDING.  A {!S89_exec.Supervise} breaker is keyed by TENANT:
   a tenant whose jobs keep failing trips its own circuit and further
   submits from it are refused (NET001 with the remaining cooldown as
   retry-after) while other tenants continue unaffected.  After the
   cooldown one job runs as the half-open probe and a success closes the
   circuit.

   RESOURCE GOVERNANCE.  Admission also passes a per-tenant {!Quota}
   gate: a token bucket (rate/burst) plus byte/job ledgers, answered
   with NET004 and a retry-after derived from the bucket refill.  The
   ledgers are rebuilt by the startup scan, so quotas survive restarts.
   A background GC collects finished jobs past [retain_done] and — when
   the tracked store size exceeds [max_store_bytes] — evicts
   oldest-finished first.  Collection is tombstone-then-delete under the
   registry lock: once [job.tomb] is durable the job is dead to
   recovery, so a crash mid-delete leaves either a tombed dir (swept by
   the next scan) or an intact finished job — a GC racing a resume can
   never delete a live job.

   DISK PRESSURE.  Durable writes that fail with ENOSPC/EIO (real or
   injected via [S89_FAULTS=enospc:P]/[eio:P]) flip the server into a
   breaker-style disk-pressure state (SRV007): NEW admissions are shed
   with a retry-after, while accepted jobs keep finishing from memory
   (their stores buffer unwritable records and their reports are cached
   in the registry if the report file cannot land).  A cheap probe write
   under the store root — retried at most once per
   [disk_probe_interval], from the admission path and the GC thread —
   clears the state as soon as the disk recovers.

   CONNECTION DEFENCE.  Accepted connections are capped at
   [max_connections] (excess is answered with a best-effort NET004
   rejection and closed, so the accept loop never blocks), and every
   frame read carries an absolute deadline ({!Proto.read_frame}
   [?deadline]) so a slowloris client dripping bytes cannot pin a
   connection thread or fd past [recv_timeout].

   Metrics (jobs done/failed/expired/rejected, per-tenant queue depth,
   breaker state and quota ledgers, connection/fd budgets, disk-pressure
   state, GC counters, p50/p99 job latency from a fixed-bucket
   {!S89_exec.Histogram}) are served as a text document by the
   [metrics] request. *)

module Supervise = S89_exec.Supervise
module Histogram = S89_exec.Histogram
module Service = S89_core.Service
module Cost_model = S89_vm.Cost_model
module Codec = S89_util.Codec
module Diag = S89_diag.Diag
module Wal = S89_store.Wal

let log_src = Logs.Src.create "s89.net" ~doc:"multi-tenant TCP service"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  port : int;
  workers : int;
  queue_capacity : int;
  tenant_weights : (string * int) list;
  fsync : bool;
  policy : Supervise.policy;
  cost_model : Cost_model.t;
  recv_timeout : float;
  quota : Quota.limits; (* per-tenant rate/burst + byte/job quotas *)
  max_connections : int; (* concurrent connection cap; <= 0 = unlimited *)
  retain_done : float; (* keep finished jobs this long; < 0 = forever *)
  max_store_bytes : int; (* GC size bound on the store root; <= 0 = none *)
  gc_interval : float; (* maintenance thread period, seconds *)
  disk_probe_interval : float; (* min gap between disk-pressure probes *)
}

let default_config =
  { port = 0; workers = 2; queue_capacity = 64; tenant_weights = [];
    fsync = true;
    policy =
      { Supervise.default_policy with
        max_restarts = 0; breaker_threshold = 5; cooldown = 2.0 };
    cost_model = Cost_model.optimized; recv_timeout = 30.0;
    quota = Quota.unlimited; max_connections = 256; retain_done = -1.0;
    max_store_bytes = 0; gc_interval = 2.0; disk_probe_interval = 0.25 }

type job = {
  tenant : string;
  name : string;
  runs : int;
  seed : int;
  deadline : float; (* absolute wall-clock; 0 = none *)
  submitted : float;
  source : string;
  dir : string; (* job directory under its shard *)
}

type job_state =
  | Queued
  | Running
  | Done of { runs : int }
  | Expired of { completed : int }
  | Failed of { code : string }

type entry = {
  job : job;
  mutable state : job_state;
  mutable finished : float; (* wall time of Done/Expired/Failed; 0 = live *)
  mutable bytes : int; (* accounted on-disk bytes of the job dir *)
  mutable cached : string option; (* in-memory body when disk writes fail *)
}

type t = {
  config : config;
  store_root : string;
  sup : Supervise.t;
  adm : job Admission.t;
  quota : Quota.t;
  hist : Histogram.t;
  jmu : Mutex.t;
  jobs : (string * string, entry) Hashtbl.t; (* (tenant, name), under jmu *)
  tenants_seen : (string, unit) Hashtbl.t; (* under jmu *)
  stopping : bool Atomic.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  jobs_done : int Atomic.t;
  jobs_failed : int Atomic.t;
  jobs_expired : int Atomic.t;
  jobs_rejected : int Atomic.t;
  (* connection defence *)
  conns : int Atomic.t;
  conns_rejected : int Atomic.t;
  conns_timed_out : int Atomic.t;
  (* disk-pressure breaker (SRV007) *)
  disk_pressured : bool Atomic.t;
  disk_windows : int Atomic.t; (* pressure transitions, total *)
  disk_mu : Mutex.t; (* serializes probe scheduling *)
  mutable disk_last_probe : float; (* under disk_mu *)
  (* store GC *)
  store_bytes : int Atomic.t; (* tracked bytes across all job dirs *)
  gc_runs : int Atomic.t;
  gc_collected : int Atomic.t; (* jobs collected, total *)
  gc_reclaimed : int Atomic.t; (* bytes reclaimed, total *)
  mutable listener : Thread.t option;
  mutable gc_thread : Thread.t option;
  mutable domains : unit Domain.t list;
}

(* ---------------- small file helpers ---------------- *)

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* tmp + fsync + rename + dir fsync: the job files gate the durable-ack
   contract, so they share the store's atomic-commit primitive — and its
   enospc/eio injection site *)
let write_atomic = S89_store.Store.write_atomic

let dir_bytes path =
  let rec go path =
    match Sys.is_directory path with
    | true ->
        Array.fold_left
          (fun acc f -> acc + go (Filename.concat path f))
          0 (Sys.readdir path)
    | false -> ( try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0)
    | exception Sys_error _ -> 0
  in
  go path

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* ---------------- job layout ---------------- *)

let shard_of_source source =
  Printf.sprintf "shard-%02x"
    (Int64.to_int (Int64.logand (Codec.fnv64 source) 0xFFL))

let job_dir t ~tenant ~name ~source =
  Filename.concat
    (Filename.concat t.store_root (shard_of_source source))
    (tenant ^ "__" ^ name)

let meta_of_job j =
  String.concat "\n"
    [ "tenant " ^ j.tenant; "job " ^ j.name; "runs " ^ string_of_int j.runs;
      "seed " ^ string_of_int j.seed;
      Printf.sprintf "deadline %.17g" j.deadline;
      Printf.sprintf "submitted %.17g" j.submitted ]
  ^ "\n"

let job_of_meta ~dir ~source meta =
  let kv =
    List.filter_map
      (fun line ->
        match String.index_opt line ' ' with
        | None -> None
        | Some i ->
            Some
              ( String.sub line 0 i,
                String.sub line (i + 1) (String.length line - i - 1) ))
      (String.split_on_char '\n' meta)
  in
  let find k = List.assoc_opt k kv in
  match (find "tenant", find "job", find "runs", find "seed") with
  | Some tenant, Some name, Some runs, Some seed -> (
      match (int_of_string_opt runs, int_of_string_opt seed) with
      | Some runs, Some seed ->
          let f k d =
            match find k with
            | Some v -> Option.value ~default:d (float_of_string_opt v)
            | None -> d
          in
          Some
            { tenant; name; runs; seed; deadline = f "deadline" 0.0;
              submitted = f "submitted" 0.0; source; dir }
      | _ -> None)
  | _ -> None

let store_dir job = Filename.concat job.dir "store"
let report_path job = Filename.concat job.dir "report"
let partial_path job = Filename.concat job.dir "report.partial"
let err_path job = Filename.concat job.dir "job.err"
let tomb_path job = Filename.concat job.dir "job.tomb"

(* ---------------- registry ---------------- *)

let locked t f =
  Mutex.lock t.jmu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.jmu) f

let find_entry t ~tenant ~name =
  locked t (fun () -> Hashtbl.find_opt t.jobs (tenant, name))

let register t job state =
  locked t (fun () ->
      Hashtbl.replace t.tenants_seen job.tenant ();
      match Hashtbl.find_opt t.jobs (job.tenant, job.name) with
      | Some e ->
          e.state <- state;
          e
      | None ->
          let e = { job; state; finished = 0.0; bytes = 0; cached = None } in
          Hashtbl.replace t.jobs (job.tenant, job.name) e;
          e)

let set_state t entry state = locked t (fun () -> entry.state <- state)

let state_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done _ -> "done"
  | Expired _ -> "expired"
  | Failed _ -> "failed"

let is_finished = function
  | Done _ | Expired _ | Failed _ -> true
  | Queued | Running -> false

(* ---------------- disk-pressure breaker (SRV007) ---------------- *)

let enter_disk_pressure t e =
  if not (Atomic.exchange t.disk_pressured true) then begin
    Atomic.incr t.disk_windows;
    let d =
      Diag.warningf ~code:"SRV007"
        ~hint:
          "shedding new admissions; accepted jobs finish from memory; \
           auto-recovers when a probe write succeeds"
        "disk pressure: durable write failed (%s)" (Printexc.to_string e)
    in
    Log.warn (fun m -> m "%a" Diag.pp d)
  end

(* a real (but injectable, so chaos windows persist) write under the
   store root: the half-open probe of the disk-pressure breaker *)
let disk_probe_write t =
  let probe = Filename.concat t.store_root ".disk-probe" in
  match write_atomic ~fsync:t.config.fsync probe "probe\n" with
  | () ->
      (try Sys.remove probe with Sys_error _ -> ());
      true
  | exception e when Wal.is_disk_fault e -> false

(* [true] = admissions may proceed.  Under pressure, at most one probe
   per [disk_probe_interval] is attempted (whoever wins the schedule);
   a successful probe closes the breaker immediately. *)
let disk_ok t =
  if not (Atomic.get t.disk_pressured) then true
  else begin
    let due =
      Mutex.lock t.disk_mu;
      let now = Unix.gettimeofday () in
      let due = now -. t.disk_last_probe >= t.config.disk_probe_interval in
      if due then t.disk_last_probe <- now;
      Mutex.unlock t.disk_mu;
      due
    in
    if due && disk_probe_write t then begin
      Atomic.set t.disk_pressured false;
      Log.info (fun m -> m "disk pressure cleared: probe write succeeded");
      true
    end
    else false
  end

(* ---------------- byte accounting ---------------- *)

(* re-measure a job dir and push the delta into the global gauge and the
   tenant's quota ledger *)
let account_job_bytes t entry =
  let measured = dir_bytes entry.job.dir in
  let delta = measured - entry.bytes in
  if delta <> 0 then begin
    entry.bytes <- measured;
    ignore (Atomic.fetch_and_add t.store_bytes delta : int);
    Quota.charge t.quota ~tenant:entry.job.tenant ~bytes:delta ~jobs:0
  end

(* ---------------- workers ---------------- *)

exception Job_error of Diag.t

(* A job-completion file write that must not kill the job when the disk
   is failing: ENOSPC/EIO flips the disk-pressure breaker and the body
   is cached on the registry entry instead, so [result] requests keep
   answering from memory (durability degrades; availability does not). *)
let write_body t entry path content =
  match write_atomic ~fsync:t.config.fsync path content with
  | () -> ()
  | exception e when Wal.is_disk_fault e ->
      enter_disk_pressure t e;
      entry.cached <- Some content

(* final bookkeeping shared by every terminal state *)
let finish t entry state =
  locked t (fun () ->
      entry.state <- state;
      entry.finished <- Unix.gettimeofday ());
  account_job_bytes t entry

let run_job t entry =
  let job = entry.job in
  let now () = Unix.gettimeofday () in
  let expired () = job.deadline > 0.0 && now () > job.deadline in
  let finish_expired ~completed ~partial =
    Option.iter (fun p -> write_body t entry (partial_path job) p) partial;
    let d =
      Diag.errorf ~code:"SRV004"
        ~hint:"partial estimate over the completed runs is in report.partial"
        "job %s/%s deadline expired after %d/%d runs" job.tenant job.name
        completed job.runs
    in
    (match write_atomic ~fsync:t.config.fsync (err_path job) (Diag.to_string d ^ "\n") with
    | () -> ()
    | exception e when Wal.is_disk_fault e -> enter_disk_pressure t e);
    finish t entry (Expired { completed });
    Atomic.incr t.jobs_expired;
    Histogram.observe t.hist (now () -. job.submitted);
    Log.warn (fun m -> m "%a" Diag.pp d)
  in
  let fail_with d code =
    write_body t entry (err_path job) (Diag.to_string d ^ "\n");
    finish t entry (Failed { code });
    Atomic.incr t.jobs_failed;
    Log.warn (fun m -> m "%a" Diag.pp d)
  in
  if expired () then
    (* expired while queued: don't burn a worker on a dead job *)
    finish_expired ~completed:0 ~partial:None
  else begin
    set_state t entry Running;
    let should_stop () = Atomic.get t.stopping || expired () in
    match
      Supervise.protect t.sup ~key:job.tenant (fun ~attempt:_ ->
          match
            Service.batch ~fsync:t.config.fsync ~cost_model:t.config.cost_model
              ~should_stop
              ~on_disk_fault:(fun e -> enter_disk_pressure t e)
              ~resume:true ~runs:job.runs ~seed:job.seed ~dir:(store_dir job)
              job.source
          with
          | Ok o -> o
          | Error d -> raise (Job_error d))
    with
    | Service.Completed { runs; report } ->
        write_body t entry (report_path job) report;
        finish t entry (Done { runs });
        Atomic.incr t.jobs_done;
        Histogram.observe t.hist (now () -. job.submitted);
        Log.info (fun m -> m "job %s/%s: done (%d runs)" job.tenant job.name runs)
    | Service.Interrupted { completed; total = _; partial } ->
        if Atomic.get t.stopping && not (expired ()) then
          (* graceful shutdown: the WAL holds every completed run; the
             restart scan re-enqueues and the batch resumes byte-identically *)
          set_state t entry Queued
        else finish_expired ~completed ~partial
    | exception Job_error d -> fail_with d d.Diag.code
    | exception Supervise.Circuit_open _ ->
        let d =
          Diag.errorf ~code:"NET001"
            ~hint:"the tenant's circuit is open; resubmit after the cooldown"
            "job %s/%s shed: tenant breaker open" job.tenant job.name
        in
        fail_with d "NET001"
    | exception e ->
        write_body t entry (err_path job) (Printexc.to_string e ^ "\n");
        finish t entry (Failed { code = "SRV000" });
        Atomic.incr t.jobs_failed;
        Log.err (fun m -> m "job %s/%s: %s" job.tenant job.name (Printexc.to_string e))
  end

let rec worker_loop t =
  match Admission.take t.adm with
  | None -> ()
  | Some (_tenant, job) ->
      (match find_entry t ~tenant:job.tenant ~name:job.name with
      | None -> () (* unregistered work is impossible; be safe *)
      | Some entry ->
          if Atomic.get t.stopping then
            (* drained during shutdown: leave it for the restart scan *)
            set_state t entry Queued
          else run_job t entry);
      worker_loop t

(* ---------------- request handling ---------------- *)

let reject t ~retry_after ~reason =
  Atomic.incr t.jobs_rejected;
  Proto.Rejected { retry_after; reason }

let reject_disk_pressure t =
  reject t
    ~retry_after:(Float.max 0.1 t.config.disk_probe_interval)
    ~reason:"SRV007 disk pressure: durable writes failing, admissions shed"

(* withdraw the accounting taken by [Quota.admit] when a later admission
   step loses a race or fails *)
let quota_rollback t ~tenant ~bytes =
  Quota.charge t.quota ~tenant ~bytes:(-bytes) ~jobs:(-1)

let handle_submit t ~tenant ~name ~runs ~seed ~deadline ~source =
  if Atomic.get t.stopping then
    reject t ~retry_after:1.0 ~reason:"server stopping"
  else if not (disk_ok t) then reject_disk_pressure t
  else
    match Supervise.breaker_state t.sup ~key:tenant with
    | Supervise.Breaker_open { remaining } ->
        reject t
          ~retry_after:(Float.max 0.1 remaining)
          ~reason:(Printf.sprintf "NET001 tenant %s circuit open" tenant)
    | Supervise.Breaker_closed | Supervise.Breaker_half_open -> (
        match find_entry t ~tenant ~name with
        | Some { state = Queued | Running | Done _; _ } ->
            (* idempotent: resubmitting a live or finished job re-acks it
               (no new resources — the quota ledger is untouched) *)
            Proto.Accepted { job = name }
        | Some ({ state = Expired _ | Failed _; _ } as entry) -> (
            (* explicit retry of a dead job: clear its verdict and requeue
               — atomically against a GC tombstoning it (the state
               re-check under the registry lock is the race arbiter) *)
            let prev = entry.state in
            let resurrected =
              locked t (fun () ->
                  is_finished entry.state
                  && Hashtbl.mem t.jobs (tenant, name)
                  &&
                  (entry.state <- Queued;
                   entry.finished <- 0.0;
                   entry.cached <- None;
                   true))
            in
            if not resurrected then
              (* collected (or resurrected by a concurrent retry) just now *)
              reject t ~retry_after:0.1
                ~reason:
                  (Printf.sprintf "NET001 job %s/%s just changed state; retry"
                     tenant name)
            else
              match Admission.submit t.adm ~tenant entry.job with
              | Ok _ ->
                  List.iter
                    (fun p -> try Sys.remove p with Sys_error _ -> ())
                    [ err_path entry.job; partial_path entry.job ];
                  Proto.Accepted { job = name }
              | Error (`Full depth) ->
                  set_state t entry prev;
                  reject t ~retry_after:1.0
                    ~reason:(Printf.sprintf "NET001 queue full (depth %d)" depth)
              | Error `Closed ->
                  set_state t entry prev;
                  reject t ~retry_after:1.0 ~reason:"server stopping")
        | None -> (
            if Admission.depth t.adm ~tenant >= t.config.queue_capacity then
              reject t ~retry_after:1.0
                ~reason:
                  (Printf.sprintf "NET001 queue full (depth %d)"
                     (Admission.depth t.adm ~tenant))
            else
              (* the quota gate: one token + the job's initial bytes,
                 taken atomically (NET004 on refusal, with the bucket
                 refill as retry-after) *)
              let est_bytes = String.length source + 256 in
              match Quota.admit t.quota ~tenant ~bytes:est_bytes with
              | Error r ->
                  let reason, retry_after =
                    Quota.describe ~quota_retry:t.config.gc_interval r
                  in
                  reject t ~retry_after ~reason
              | Ok () -> (
                  let now = Unix.gettimeofday () in
                  let job =
                    { tenant; name; runs; seed;
                      deadline = (if deadline > 0.0 then now +. deadline else 0.0);
                      submitted = now; source;
                      dir = job_dir t ~tenant ~name ~source }
                  in
                  let withdraw () =
                    locked t (fun () -> Hashtbl.remove t.jobs (tenant, name));
                    List.iter
                      (fun p -> try Sys.remove p with Sys_error _ -> ())
                      [ Filename.concat job.dir "job.meta";
                        Filename.concat job.dir "source.mf" ];
                    quota_rollback t ~tenant ~bytes:est_bytes
                  in
                  (* durable-ack: source + meta are atomically on disk
                     BEFORE the accept answer, so an acked job survives
                     any crash; a disk fault here must NOT ack — it sheds
                     with SRV007 instead *)
                  match
                    mkdir_p job.dir;
                    write_atomic ~fsync:t.config.fsync
                      (Filename.concat job.dir "source.mf")
                      source;
                    write_atomic ~fsync:t.config.fsync
                      (Filename.concat job.dir "job.meta")
                      (meta_of_job job)
                  with
                  | exception e when Wal.is_disk_fault e ->
                      enter_disk_pressure t e;
                      withdraw ();
                      reject_disk_pressure t
                  | () -> (
                      let entry = register t job Queued in
                      entry.bytes <- est_bytes;
                      ignore (Atomic.fetch_and_add t.store_bytes est_bytes : int);
                      match Admission.submit t.adm ~tenant job with
                      | Ok _ -> Proto.Accepted { job = name }
                      | Error (`Full depth) ->
                          (* lost the race for the last slot: withdraw the
                             meta so a restart doesn't resurrect a job we
                             refused *)
                          withdraw ();
                          ignore (Atomic.fetch_and_add t.store_bytes (-est_bytes) : int);
                          reject t ~retry_after:1.0
                            ~reason:
                              (Printf.sprintf "NET001 queue full (depth %d)" depth)
                      | Error `Closed ->
                          withdraw ();
                          ignore (Atomic.fetch_and_add t.store_bytes (-est_bytes) : int);
                          reject t ~retry_after:1.0 ~reason:"server stopping"))))

let handle_status t ~tenant ~name =
  match find_entry t ~tenant ~name with
  | None -> Proto.Job_status { state = "unknown"; completed = 0; total = 0 }
  | Some e ->
      let completed =
        match e.state with
        | Done { runs } -> runs
        | Expired { completed } -> completed
        | Queued | Running | Failed _ -> 0
      in
      Proto.Job_status
        { state = state_string e.state; completed; total = e.job.runs }

let handle_result t ~tenant ~name =
  match find_entry t ~tenant ~name with
  | None -> Proto.Job_result { state = "unknown"; body = "" }
  | Some e ->
      let read_opt p = try read_file p with Sys_error _ -> "" in
      let body =
        match e.state with
        | Done _ -> read_opt (report_path e.job)
        | Expired _ -> read_opt (partial_path e.job)
        | Failed _ -> read_opt (err_path e.job)
        | Queued | Running -> ""
      in
      (* a job finished under disk pressure may have no file on disk:
         serve the body cached at completion time instead *)
      let body =
        if body = "" then Option.value ~default:"" e.cached else body
      in
      Proto.Job_result { state = state_string e.state; body }

(* the process's live fd count — the budget a conn leak would exhaust *)
let fds_open () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Array.length entries
  | exception Sys_error _ -> -1

let metrics_text t =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "s89_jobs_done %d" (Atomic.get t.jobs_done);
  line "s89_jobs_failed %d" (Atomic.get t.jobs_failed);
  line "s89_jobs_expired %d" (Atomic.get t.jobs_expired);
  line "s89_jobs_rejected %d" (Atomic.get t.jobs_rejected);
  List.iter
    (fun (tenant, depth) -> line "s89_queue_depth{tenant=\"%s\"} %d" tenant depth)
    (Admission.depths t.adm);
  let tenants =
    locked t (fun () -> Hashtbl.fold (fun k () acc -> k :: acc) t.tenants_seen [])
    |> List.sort compare
  in
  List.iter
    (fun tenant ->
      let v =
        match Supervise.breaker_state t.sup ~key:tenant with
        | Supervise.Breaker_closed -> 0
        | Supervise.Breaker_half_open -> 1
        | Supervise.Breaker_open _ -> 2
      in
      line "s89_breaker{tenant=\"%s\"} %d" tenant v)
    tenants;
  List.iter
    (fun (tenant, bytes, jobs) ->
      line "s89_quota_bytes{tenant=\"%s\"} %d" tenant bytes;
      line "s89_quota_jobs{tenant=\"%s\"} %d" tenant jobs)
    (Quota.usages t.quota);
  line "s89_conns_open %d" (Atomic.get t.conns);
  line "s89_conn_limit %d" t.config.max_connections;
  line "s89_conns_rejected %d" (Atomic.get t.conns_rejected);
  line "s89_conns_timed_out %d" (Atomic.get t.conns_timed_out);
  line "s89_fds_open %d" (fds_open ());
  line "s89_disk_pressure %d" (if Atomic.get t.disk_pressured then 1 else 0);
  line "s89_disk_pressure_windows %d" (Atomic.get t.disk_windows);
  line "s89_store_bytes %d" (Atomic.get t.store_bytes);
  line "s89_max_store_bytes %d" t.config.max_store_bytes;
  line "s89_gc_runs %d" (Atomic.get t.gc_runs);
  line "s89_gc_collected %d" (Atomic.get t.gc_collected);
  line "s89_gc_reclaimed_bytes %d" (Atomic.get t.gc_reclaimed);
  line "s89_job_latency_seconds_count %d" (Histogram.count t.hist);
  line "s89_job_latency_seconds{quantile=\"0.5\"} %.6f"
    (Histogram.quantile t.hist 0.5);
  line "s89_job_latency_seconds{quantile=\"0.99\"} %.6f"
    (Histogram.quantile t.hist 0.99);
  Buffer.contents b

let handle_request t = function
  | Proto.Submit { tenant; job; runs; seed; deadline; source } ->
      handle_submit t ~tenant ~name:job ~runs ~seed ~deadline ~source
  | Proto.Status { tenant; job } -> handle_status t ~tenant ~name:job
  | Proto.Result { tenant; job } -> handle_result t ~tenant ~name:job
  | Proto.Metrics -> Proto.Metrics_text (metrics_text t)

(* ---------------- store GC ---------------- *)

(* Finish a tombstoned job dir: everything except the tomb, then the
   tomb, then the dir.  The tomb goes LAST — a crash mid-delete always
   leaves either a tombed dir (the next sweep finishes it) or an intact
   job, never a half-deleted job that recovery would resurrect. *)
let gc_delete dir =
  (match Sys.readdir dir with
  | entries ->
      Array.iter
        (fun f -> if f <> "job.tomb" then rm_rf (Filename.concat dir f))
        entries
  | exception Sys_error _ -> ());
  (try Sys.remove (Filename.concat dir "job.tomb") with Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* Collect one finished job.  The tombstone is written durably UNDER the
   registry lock, then the entry is removed — after that no submit can
   resurrect the job (its retry path re-checks membership under the same
   lock) and no worker holds it (only finished jobs are candidates), so
   the file deletion runs race-free outside the lock.  A disk fault on
   the tombstone aborts the collection (the job stays whole). *)
let gc_collect_one t entry =
  let job = entry.job in
  let tombed =
    locked t (fun () ->
        is_finished entry.state
        && Hashtbl.mem t.jobs (job.tenant, job.name)
        &&
        match write_atomic ~fsync:t.config.fsync (tomb_path job) "tomb\n" with
        | () ->
            Hashtbl.remove t.jobs (job.tenant, job.name);
            true
        | exception e when Wal.is_disk_fault e ->
            enter_disk_pressure t e;
            false)
  in
  if tombed then begin
    gc_delete job.dir;
    ignore (Atomic.fetch_and_add t.store_bytes (-entry.bytes) : int);
    Atomic.incr t.gc_collected;
    ignore (Atomic.fetch_and_add t.gc_reclaimed entry.bytes : int);
    Quota.charge t.quota ~tenant:job.tenant ~bytes:(-entry.bytes) ~jobs:(-1)
  end;
  tombed

(* One GC pass; returns the number of jobs collected.  Two policies
   compose: finished jobs older than [retain_done] are collected, then —
   while the tracked store size still exceeds [max_store_bytes] —
   finished jobs are evicted oldest-finished-first. *)
let gc_now t =
  Atomic.incr t.gc_runs;
  let now = Unix.gettimeofday () in
  let finished =
    locked t (fun () ->
        Hashtbl.fold
          (fun _ e acc ->
            if is_finished e.state && e.finished > 0.0 then e :: acc else acc)
          t.jobs [])
    |> List.sort (fun a b -> compare a.finished b.finished)
  in
  let collected = ref 0 in
  let survivors =
    List.filter
      (fun e ->
        if
          t.config.retain_done >= 0.0
          && now -. e.finished > t.config.retain_done
        then begin
          if gc_collect_one t e then incr collected;
          false
        end
        else true)
      finished
  in
  if t.config.max_store_bytes > 0 then
    List.iter
      (fun e ->
        if Atomic.get t.store_bytes > t.config.max_store_bytes then
          if gc_collect_one t e then incr collected)
      survivors;
  !collected

(* Maintenance thread: GC every [gc_interval], plus disk-pressure probes
   so an idle server still recovers (the admission-path probe only fires
   when traffic arrives). *)
let gc_loop t =
  let rec sleep remaining =
    if remaining > 0.0 && not (Atomic.get t.stopping) then begin
      let step = Float.min 0.05 remaining in
      Thread.delay step;
      sleep (remaining -. step)
    end
  in
  while not (Atomic.get t.stopping) do
    sleep t.config.gc_interval;
    if not (Atomic.get t.stopping) then begin
      if Atomic.get t.disk_pressured then ignore (disk_ok t : bool);
      let n = gc_now t in
      if n > 0 then
        Log.info (fun m ->
            m "gc: collected %d job(s), store at %d bytes" n
              (Atomic.get t.store_bytes))
    end
  done

(* ---------------- connection + listener threads ---------------- *)

(* Connection thread.  The listener already counted this connection in
   [t.conns]; we own the decrement.  Every frame is read against an
   ABSOLUTE deadline of [recv_timeout] from its first byte — the
   slowloris defence: a client dripping one byte per interval is cut off
   at the deadline instead of holding the thread and fd forever. *)
let handle_connection t fd =
  (* a response over the frame cap (a report larger than [max_frame]) is
     answered with a NET002 naming its size; the connection stays usable *)
  let respond resp =
    try Proto.send_response fd resp
    with Codec.Too_large { size; cap } ->
      Proto.send_response fd
        (Proto.Error_resp
           { code = "NET002";
             message =
               Printf.sprintf "response of %d bytes exceeds the %d-byte frame cap"
                 size cap })
  in
  let rec loop () =
    let deadline = Unix.gettimeofday () +. t.config.recv_timeout in
    match Proto.read_frame ~deadline fd with
    | Error msg ->
        (* protocol desync: answer NET002 and drop the connection *)
        Proto.send_response fd (Proto.Error_resp { code = "NET002"; message = msg })
    | Ok payload -> (
        match Proto.decode_request payload with
        | Error msg ->
            Proto.send_response fd
              (Proto.Error_resp { code = "NET002"; message = msg })
        | Ok req ->
            respond (handle_request t req);
            loop ())
  in
  (try loop () with
  | Proto.Closed -> ()
  | Proto.Timed_out -> Atomic.incr t.conns_timed_out
  | Unix.Unix_error _ -> ());
  ignore (Atomic.fetch_and_add t.conns (-1) : int);
  try Unix.close fd with Unix.Unix_error _ -> ()

let listener_loop t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> () (* socket closed: stopping *)
    | fd, _addr ->
        (if Atomic.get t.stopping then
           try Unix.close fd with Unix.Unix_error _ -> ()
         else if
           t.config.max_connections > 0
           && Atomic.get t.conns >= t.config.max_connections
         then begin
           (* over the cap: best-effort rejection with a bounded send,
              so a slow peer can never block the accept loop *)
           Atomic.incr t.conns_rejected;
           (try
              Unix.setsockopt_float fd Unix.SO_SNDTIMEO 0.5;
              Proto.send_response fd
                (Proto.Rejected
                   { retry_after = 1.0;
                     reason = "NET004 connection limit reached" })
            with Proto.Closed | Unix.Unix_error _ | Invalid_argument _ -> ());
           try Unix.close fd with Unix.Unix_error _ -> ()
         end
         else begin
           ignore (Atomic.fetch_and_add t.conns 1 : int);
           ignore (Thread.create (fun () -> handle_connection t fd) ())
         end);
        loop ()
  in
  loop ()

(* ---------------- startup scan ---------------- *)

let recover t =
  let dirs p = try Sys.readdir p with Sys_error _ -> [||] in
  Array.iter
    (fun shard ->
      if String.length shard >= 6 && String.sub shard 0 6 = "shard-" then
        let shard_dir = Filename.concat t.store_root shard in
        Array.iter
          (fun jdir ->
            let dir = Filename.concat shard_dir jdir in
            let meta_p = Filename.concat dir "job.meta" in
            let src_p = Filename.concat dir "source.mf" in
            if Sys.file_exists (Filename.concat dir "job.tomb") then begin
              (* a GC died mid-delete: the tomb is durable, so the job is
                 dead — finish the delete, never resurrect *)
              Log.info (fun m -> m "sweeping tombstoned job dir %s" dir);
              gc_delete dir
            end
            else if Sys.file_exists meta_p && Sys.file_exists src_p then
              match job_of_meta ~dir ~source:(read_file src_p) (read_file meta_p) with
              | None -> Log.warn (fun m -> m "[SRV005] unreadable job meta in %s" dir)
              | Some job ->
                  let mtime p =
                    try (Unix.stat p).Unix.st_mtime
                    with Unix.Unix_error _ -> Unix.gettimeofday ()
                  in
                  (* seed the byte gauge and the tenant's quota ledger:
                     this is what makes quotas survive a restart *)
                  let seed state ~finished =
                    let e = register t job state in
                    e.finished <- finished;
                    e.bytes <- dir_bytes dir;
                    ignore (Atomic.fetch_and_add t.store_bytes e.bytes : int);
                    Quota.charge t.quota ~tenant:job.tenant ~bytes:e.bytes
                      ~jobs:1
                  in
                  if Sys.file_exists (report_path job) then
                    seed (Done { runs = job.runs })
                      ~finished:(mtime (report_path job))
                  else if Sys.file_exists (err_path job) then
                    seed (Failed { code = "" }) ~finished:(mtime (err_path job))
                  else begin
                    seed Queued ~finished:0.0;
                    (* acked work outranks the admission bound: recovery
                       must never drop a job the server promised to run *)
                    match Admission.submit ~force:true t.adm ~tenant:job.tenant job with
                    | Ok _ ->
                        Log.info (fun m ->
                            m "recovered job %s/%s: re-enqueued" job.tenant job.name)
                    | Error _ -> ()
                  end)
          (dirs shard_dir))
    (dirs t.store_root)

(* ---------------- lifecycle ---------------- *)

let port t = t.bound_port

let start ?(config = default_config) ~store_root () =
  mkdir_p store_root;
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, config.port));
  Unix.listen listen_fd 128;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let t =
    { config; store_root;
      sup = Supervise.create ~policy:config.policy ~on_event:Service.log_event ();
      adm =
        Admission.create ~capacity:config.queue_capacity
          ~weights:config.tenant_weights ();
      quota = Quota.create config.quota;
      hist = Histogram.create (); jmu = Mutex.create ();
      jobs = Hashtbl.create 64; tenants_seen = Hashtbl.create 8;
      stopping = Atomic.make false; listen_fd; bound_port;
      jobs_done = Atomic.make 0; jobs_failed = Atomic.make 0;
      jobs_expired = Atomic.make 0; jobs_rejected = Atomic.make 0;
      conns = Atomic.make 0; conns_rejected = Atomic.make 0;
      conns_timed_out = Atomic.make 0;
      disk_pressured = Atomic.make false; disk_windows = Atomic.make 0;
      disk_mu = Mutex.create (); disk_last_probe = 0.0;
      store_bytes = Atomic.make 0; gc_runs = Atomic.make 0;
      gc_collected = Atomic.make 0; gc_reclaimed = Atomic.make 0;
      listener = None; gc_thread = None; domains = [] }
  in
  recover t;
  t.domains <-
    List.init (Stdlib.max 1 config.workers) (fun _ ->
        Domain.spawn (fun () -> worker_loop t));
  t.listener <- Some (Thread.create (fun () -> listener_loop t) ());
  if config.gc_interval > 0.0 then
    t.gc_thread <- Some (Thread.create (fun () -> gc_loop t) ());
  Log.info (fun m ->
      m "serving on 127.0.0.1:%d (%d workers, queue capacity %d)" bound_port
        config.workers config.queue_capacity);
  t

let stop t =
  Atomic.set t.stopping true;
  Admission.close t.adm;
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Option.iter Thread.join t.listener;
  t.listener <- None;
  Option.iter Thread.join t.gc_thread;
  t.gc_thread <- None;
  List.iter Domain.join t.domains;
  t.domains <- []

let wait t =
  Option.iter Thread.join t.listener;
  List.iter Domain.join t.domains

(* ---------------- client helpers ---------------- *)

module Client = struct
  let connect ?(host = "127.0.0.1") ~port () =
    let addr =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } -> raise Not_found
        | h -> h.Unix.h_addr_list.(0))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_INET (addr, port))
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd

  let rpc fd req =
    Proto.send_request fd req;
    Proto.recv_response fd

  let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

  (* Backoff schedule for the CLI's [--retries]: the server's advised
     retry-after is the floor, exponential (0.1 * 2^attempt, capped at
     5 s) above it, and [jitter] in [0, 1] spreads synchronized clients
     up to +25 % so a rejected flood does not re-arrive as a thundering
     herd.  Pure, so the schedule is unit-testable. *)
  let retry_delay ~attempt ~retry_after ~jitter =
    let expo = Float.min 5.0 (0.1 *. (2.0 ** float_of_int attempt)) in
    Float.max retry_after expo *. (1.0 +. (0.25 *. jitter))
end
