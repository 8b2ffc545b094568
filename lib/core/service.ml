(* Batch service layer: checkpointed profiling batches over the
   crash-safe store, run by the CLI's [batch] and by the TCP server's
   workers.

   A batch profiles one program [runs] times with seeds
   [seed .. seed+runs-1], appending each completed run's totals to the
   store's WAL as it finishes.  The completed-run count IS the
   checkpoint: a killed batch restarted with [~resume:true] picks up at
   seed [seed + Store.runs] and, because run totals are integers and all
   the conservation laws are linear, produces byte-identical estimates
   to an uninterrupted batch.

   Batch metadata ([source-fnv], [base-seed], [runs]) is persisted on
   the first open and validated on resume — resuming with a different
   program or seed would silently blend incompatible profiles (DB004).
   Resuming is explicit: opening a non-empty store without [~resume:true]
   is refused (DB005).

   Per-procedure analysis is wrapped in a {!S89_exec.Supervise}
   supervisor (restart-with-backoff + circuit breaker) and journaled to
   the store; a resumed batch pre-trips the breaker for procedures its
   journal recorded as failed, so they degrade to the opaque-callee path
   identically instead of being retried into a different result. *)

module Supervise = S89_exec.Supervise
module Store = S89_store.Store
module Database = S89_profiling.Database
module Cost_model = S89_vm.Cost_model
module Diag = S89_diag.Diag

let log_src = Logs.Src.create "s89.service" ~doc:"batch service"

module Log = (val Logs.src_log log_src : Logs.LOG)

type outcome =
  | Completed of { runs : int; report : string }
  | Interrupted of { completed : int; total : int; partial : string option }

(* ---------------- batch ---------------- *)

let source_fnv = S89_util.Codec.fnv64_hex

(* validate (or install) the batch metadata; [Error DB004/DB005] when the
   store belongs to a different batch or resume was not requested *)
let check_meta store ~resume ~source ~seed ~runs : (unit, Diag.t) result =
  let fresh = Store.runs store = 0 && Store.meta store = [] in
  if fresh then begin
    Store.set_meta store
      [ ("source-fnv", source_fnv source); ("base-seed", string_of_int seed);
        ("runs", string_of_int runs) ];
    Ok ()
  end
  else if not resume then
    Error
      (Diag.errorf ~code:"DB005"
         ~hint:"pass --resume to continue it, or use a fresh directory"
         "store already holds a batch (%d of %s runs done)" (Store.runs store)
         (Option.value ~default:"?" (Store.meta_find store "runs")))
  else
    let mismatch key actual =
      match Store.meta_find store key with
      | Some v when v <> actual -> Some (key, v, actual)
      | _ -> None
    in
    match
      List.filter_map Fun.id
        [ mismatch "source-fnv" (source_fnv source);
          mismatch "base-seed" (string_of_int seed);
          mismatch "runs" (string_of_int runs) ]
    with
    | [] -> Ok ()
    | (key, stored, given) :: _ ->
        Error
          (Diag.errorf ~code:"DB004"
             ~hint:"resume must use the original program, seed and run count"
             "batch mismatch on %s: store has %s, command line implies %s" key
             stored given)

(* procedures the journal recorded as failed in an earlier attempt *)
let journaled_failures store =
  List.filter_map
    (fun ev ->
      match String.split_on_char ' ' ev with
      | [ "ana"; proc; "failed"; _code ] -> Some proc
      | _ -> None)
    (Store.events store)

let log_event = function
  | Supervise.Restarted { key; attempt; delay; error } ->
      Log.warn (fun m ->
          m "[SRV006] restarting %s (attempt %d) in %.4fs after: %s" key attempt
            delay error)
  | Supervise.Tripped { key; failures } ->
      Log.warn (fun m ->
          m "[SRV002] circuit opened for %s after %d consecutive failures" key
            failures)
  | Supervise.Rejected_open { key } ->
      Log.info (fun m -> m "[SRV002] %s rejected: circuit open" key)
  | Supervise.Half_opened { key } ->
      Log.info (fun m -> m "[SRV002] %s half-open: admitting recovery probe" key)
  | Supervise.Closed { key } ->
      Log.info (fun m -> m "[SRV002] %s circuit closed: probe succeeded" key)

let render_report ?memo ~cost_model pipe db =
  let est =
    Pipeline.estimate_totals ?memo ~cost_model pipe
      ~totals:(Database.proc_totals db)
  in
  Report.to_string est

(* durably record the memo's fresh summaries as memo-%06d records *)
let persist_memo store memo =
  List.iter
    (fun (fp, name, time, var) -> Store.append_memo store ~fp ~name ~time ~var)
    (Memo.drain_summaries memo)

let batch ?(policy = Supervise.default_policy) ?(on_event = log_event)
    ?(fsync = true) ?(compact_threshold = 64)
    ?(cost_model = Cost_model.optimized) ?(should_stop = fun () -> false)
    ?export ?memo ?on_disk_fault ~resume ~runs ~seed ~dir source :
    (outcome, Diag.t) result =
  if runs <= 0 then Error (Diag.error ~code:"CLI001" "runs must be positive")
  else
    let store = Store.open_ ~fsync ~compact_threshold ?on_disk_fault ~dir () in
    Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
    List.iter (fun d -> Log.warn (fun m -> m "%a" Diag.pp d)) (Store.recovery_diags store);
    match check_meta store ~resume ~source ~seed ~runs with
    | Error d -> Error d
    | Ok () -> (
        (* a warm start: persisted memo summaries validate this batch's
           recomputations (MEMO002 on mismatch) and feed hit accounting *)
        Option.iter
          (fun m ->
            List.iter
              (fun (fp, name, time, var) ->
                Memo.load_summary m ~fp ~name ~time ~var)
              (Store.memos store))
          memo;
        let supervisor = Supervise.create ~policy ~on_event () in
        List.iter
          (fun proc -> Supervise.trip supervisor ~key:proc)
          (journaled_failures store);
        match
          Pipeline.of_source_result ~supervisor
            ~journal:(Store.append_event store) ?memo source
        with
        | Error d -> Error d
        | Ok pipe ->
            let plan = Pipeline.plan ~second_moments:true pipe in
            let stopped = ref false in
            (try
               for r = Store.runs store to runs - 1 do
                 if should_stop () then begin
                   stopped := true;
                   raise Exit
                 end;
                 let totals =
                   Pipeline.profile_run ~cost_model ~plan ~seed:(seed + r) pipe
                 in
                 Store.append_run store ~seed:(seed + r) totals
               done
             with Exit -> ());
            if !stopped then begin
              (* the WAL is already durable; report where we are, plus a
                 partial estimate over the runs that DID complete so a
                 deadline-expired job degrades gracefully instead of
                 discarding everything it computed *)
              Log.info (fun m ->
                  m "[SRV001] interrupted after %d/%d runs; WAL flushed"
                    (Store.runs store) runs);
              let partial =
                if Store.runs store > 0 then
                  Some
                    (render_report ?memo ~cost_model pipe (Store.database store))
                else None
              in
              Ok (Interrupted { completed = Store.runs store; total = runs; partial })
            end
            else begin
              Store.compact store;
              Option.iter (Store.export store) export;
              let report =
                render_report ?memo ~cost_model pipe (Store.database store)
              in
              Option.iter
                (fun m ->
                  persist_memo store m;
                  Log.info (fun m' -> m' "%a" Memo.pp_stats m))
                memo;
              Ok (Completed { runs = Store.runs store; report })
            end)
