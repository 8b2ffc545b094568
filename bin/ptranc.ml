(* ptranc — the command-line driver for the reproduction, loosely named
   after PTRAN, the system the paper's framework was implemented in.

   Subcommands:
     parse       parse + analyze an MF77 file, pretty-print it back
     cfg         dump a procedure's statement-level CFG (text or DOT)
     ecfg        dump the extended CFG (Figure 2 style)
     fcdg        dump the forward control dependence graph
     plan        show the smart counter placement vs the naive baseline
     run         execute a program on the VM (optionally instrumented)
     profile     run N times with smart counters, write a profile database
     estimate    estimate TIME/VAR from a database or from fresh runs
     analyze     like estimate, memoizing per-procedure results in a store
     chunks      variance-driven chunk sizes for each loop
     batch       checkpointed profiling batch over a crash-safe store
     serve       multi-tenant TCP analysis service (--tcp PORT)
     client      submit/query jobs against a --tcp server
     demo        print one of the built-in demo programs *)

open Cmdliner
module Program = S89_frontend.Program
module Interp = S89_vm.Interp
module CM = S89_vm.Cost_model
module Analysis = S89_profiling.Analysis
module Placement = S89_profiling.Placement
module Naive = S89_profiling.Naive
module Database = S89_profiling.Database
module Pipeline = S89_core.Pipeline
module Interproc = S89_core.Interproc
module Report = S89_core.Report
module Service = S89_core.Service
module Memo = S89_core.Memo
module Store = S89_store.Store
module Server = S89_net.Server
module Proto = S89_net.Proto

module Diag = S89_diag.Diag

(* Every failure leaves through here: one diagnostic line on stderr and
   an exit code determined by the diagnostic's code family (documented in
   docs/ERRORS.md): 2 usage/IO/database, 3 parse/sema, 4 analysis,
   5 runtime/fault. *)
let fail_diag ?path (d : Diag.t) : 'a =
  (match path with
  | Some p -> Fmt.epr "ptranc: %s: %a@." p Diag.pp d
  | None -> Fmt.epr "ptranc: %a@." Diag.pp d);
  exit (Diag.exit_code d)

(* Exceptions that may legitimately escape a subcommand, mapped to
   diagnostics; anything unlisted is a bug and keeps its backtrace. *)
let diag_of_exn : exn -> Diag.t option = function
  | Sys_error msg -> Some (Diag.error ~code:"IO001" msg)
  | Database.Load_error { line; msg } ->
      Some (Diag.error ?line:(if line > 0 then Some line else None) ~code:"DB001" msg)
  | Analysis.Unanalyzable { proc; reason } ->
      Some (Diag.error ~proc ~code:"ANA001" reason)
  | S89_cfg.Ecfg.Nonterminating_interval h ->
      Some (Diag.errorf ~code:"ANA002" "interval analysis did not terminate at header %d" h)
  | Interproc.Recursion_unsupported procs ->
      Some
        (Diag.errorf ~code:"EST001" ~hint:"the paper defers recursion"
           "recursive call graph: %s" (String.concat ", " procs))
  | Interproc.No_convergence procs ->
      Some
        (Diag.errorf ~code:"EST002" "fixpoint did not converge over: %s"
           (String.concat ", " procs))
  | S89_vm.Value.Runtime_error msg -> Some (Diag.error ~code:"RUN001" msg)
  | Interp.Out_of_fuel -> Some (Diag.error ~code:"RUN002" "out of fuel (max_steps exceeded)")
  | Interp.Out_of_cycles -> Some (Diag.error ~code:"RUN003" "cycle budget exhausted")
  | Interp.Call_depth_exceeded d ->
      Some (Diag.errorf ~code:"RUN004" "call depth exceeded %d" d)
  | S89_util.Fault.Injected msg ->
      Some (Diag.error ~code:"FLT001" ~hint:"injected by S89_FAULTS" msg)
  | Store.Corrupt msg ->
      Some
        (Diag.error ~code:"DB001" ~hint:"the store holds a foreign or damaged record"
           msg)
  | S89_exec.Supervise.Circuit_open key ->
      Some
        (Diag.errorf ~code:"SRV002" ~hint:"closes on the next success"
           "circuit breaker open for %s" key)
  | S89_util.Codec.Too_large { size; cap } ->
      Some
        (Diag.errorf ~code:"NET002" "request of %d bytes exceeds the %d-byte frame cap"
           size cap)
  | S89_util.Fault.Bad_spec msg ->
      Some (Diag.error ~code:"CLI001" ~hint:"fix the S89_FAULTS variable" msg)
  | Failure msg -> Some (Diag.error ~code:"CLI001" msg)
  | _ -> None

(* run a subcommand body under the exception-to-diagnostic net *)
let guard f =
  try f () with e -> (match diag_of_exn e with Some d -> fail_diag d | None -> raise e)

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error msg -> fail_diag (Diag.error ~code:"IO001" msg)

let load_program path =
  match Program.of_source_result (read_file path) with
  | Ok prog -> prog
  | Error d -> fail_diag ~path d

(* ---------------- common args ---------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MF77 source file")

let proc_arg =
  Arg.(
    value & opt (some string) None
    & info [ "p"; "proc" ] ~docv:"NAME"
        ~doc:"Procedure to operate on (default: the main program)")

let dot_arg = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of text")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed for the VM")

let runs_arg =
  Arg.(value & opt int 10 & info [ "runs" ] ~docv:"N" ~doc:"Number of profiled runs")

let opt_arg =
  Arg.(value & flag & info [ "O"; "optimize" ] ~doc:"Apply the scalar optimizer first")

(* Backend selection: --backend, else the library default.  Parsed by
   hand (not Arg.enum) so an unknown name leaves through the usual
   diagnostic path with a stable code (CLI002). *)
let backend_of_string s =
  match String.lowercase_ascii s with
  | "tree" -> Some Interp.Tree
  | "compiled" -> Some Interp.Compiled
  | "bytecode" -> Some Interp.Bytecode
  | _ -> None

let backend_name = function
  | Interp.Tree -> "tree"
  | Interp.Compiled -> "compiled"
  | Interp.Bytecode -> "bytecode"

let backend_arg =
  Arg.(
    value & opt (some string) None
    & info [ "backend" ] ~docv:"ENGINE"
        ~doc:
          (Printf.sprintf "Execution engine: tree, compiled or bytecode (default: %s)"
             (backend_name Interp.default_config.Interp.backend)))

let resolve_backend = function
  | None -> Interp.default_config.Interp.backend
  | Some s -> (
      match backend_of_string s with
      | Some b -> b
      | None ->
          fail_diag
            (Diag.errorf ~code:"CLI002" ~hint:"valid backends: tree, compiled, bytecode"
               "unknown backend %S (from --backend)" s))

let cost_model_of_opt opt = if opt then CM.optimized else CM.unoptimized

let pick_proc prog = function
  | Some name -> Program.find prog name
  | None -> Program.main_proc prog

let maybe_optimize opt prog = if opt then S89_vm.Optimize.program prog else prog

(* ---------------- subcommands ---------------- *)

let parse_cmd =
  let run file =
    guard @@ fun () ->
    let prog = load_program file in
    Fmt.pr "%a@." S89_frontend.Ast.pp_program
      (List.map (fun (p : Program.proc) -> p.Program.env.S89_frontend.Sema.unit_)
         (Program.procs prog));
    Fmt.pr "@.main: %s;  call graph bottom-up: %a@." prog.Program.main
      Fmt.(list ~sep:comma string)
      (List.map (fun (p : Program.proc) -> p.Program.name) (Program.bottom_up prog))
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse and analyze a program, pretty-print it back")
    Term.(const run $ file_arg)

let cfg_cmd =
  let run file proc dot optimize =
    guard @@ fun () ->
    let prog = maybe_optimize optimize (load_program file) in
    let p = pick_proc prog proc in
    if dot then print_string (Report.cfg_dot p)
    else
      Fmt.pr "%a@."
        (S89_cfg.Cfg.pp ~pp_info:(fun fmt i ->
             Fmt.pf fmt " {%a}" S89_frontend.Ir.pp_info i))
        p.Program.cfg
  in
  Cmd.v (Cmd.info "cfg" ~doc:"Dump a procedure's control flow graph")
    Term.(const run $ file_arg $ proc_arg $ dot_arg $ opt_arg)

let ecfg_cmd =
  let run file proc dot =
    guard @@ fun () ->
    let prog = load_program file in
    let p = pick_proc prog proc in
    let a = Analysis.of_proc p in
    if dot then print_string (Report.ecfg_dot a)
    else
      Fmt.pr "%a@."
        (S89_cfg.Ecfg.pp ~pp_info:(fun fmt i ->
             Fmt.pf fmt " {%a}" S89_frontend.Ir.pp_info i))
        a.Analysis.ecfg
  in
  Cmd.v (Cmd.info "ecfg" ~doc:"Dump the extended CFG (preheaders/postexits/START/STOP)")
    Term.(const run $ file_arg $ proc_arg $ dot_arg)

let fcdg_cmd =
  let run file proc =
    guard @@ fun () ->
    let prog = load_program file in
    let p = pick_proc prog proc in
    let a = Analysis.of_proc p in
    Fmt.pr "%a@." S89_cdg.Fcdg.pp a.Analysis.fcdg;
    Fmt.pr "@.control conditions: %a@."
      Fmt.(
        list ~sep:comma (fun fmt (u, l) ->
            pf fmt "(%d,%s)" u (S89_cfg.Label.to_string l)))
      a.Analysis.conditions
  in
  Cmd.v (Cmd.info "fcdg" ~doc:"Dump the forward control dependence graph")
    Term.(const run $ file_arg $ proc_arg)

let plan_cmd =
  let run file =
    guard @@ fun () ->
    let prog = load_program file in
    let analyses = Analysis.of_program prog in
    let smart = Placement.plan analyses in
    let naive = Naive.plan prog in
    Fmt.pr "%a@." Placement.pp smart;
    Fmt.pr "@.naive baseline: %d counters (one per basic block, DO-loop@."
      (Naive.n_counters naive);
    Fmt.pr "bulk-add only for straight-line bodies)@."
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Show the optimized counter placement and the naive baseline")
    Term.(const run $ file_arg)

let run_cmd =
  let instr_arg =
    Arg.(
      value
      & opt (enum [ ("none", `None); ("smart", `Smart); ("naive", `Naive) ]) `None
      & info [ "instrument" ] ~docv:"KIND" ~doc:"Instrumentation: none, smart or naive")
  in
  let run file seed optimize instr backend =
    guard @@ fun () ->
    let backend = resolve_backend backend in
    let prog = maybe_optimize optimize (load_program file) in
    let cm = cost_model_of_opt optimize in
    let instr_probes, describe =
      match instr with
      | `None -> (S89_vm.Probe.empty, "uninstrumented")
      | `Smart ->
          let plan = Placement.plan (Analysis.of_program prog) in
          (Placement.probes plan, Fmt.str "smart (%d counters)" (Placement.n_counters plan))
      | `Naive ->
          let plan = Naive.plan prog in
          (Naive.probes plan, Fmt.str "naive (%d counters)" (Naive.n_counters plan))
    in
    let config =
      { Interp.default_config with cost_model = cm; seed; instr = instr_probes;
        backend }
    in
    let vm = Interp.create ~config prog in
    let outcome = Interp.run vm in
    print_string (Interp.output vm);
    Fmt.pr "[%s, %s, %s, %s] cycles=%d statements=%d@."
      (match outcome with Interp.Normal_stop -> "STOP" | Fell_off_end -> "END")
      cm.CM.name describe (backend_name backend) (Interp.cycles vm)
      (Interp.steps vm)
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a program on the cost-model VM")
    Term.(const run $ file_arg $ seed_arg $ opt_arg $ instr_arg $ backend_arg)

let db_arg =
  Arg.(
    value & opt string "profile.db"
    & info [ "db" ] ~docv:"PATH" ~doc:"Profile database path")

let profile_cmd =
  let run file runs seed db backend =
    guard @@ fun () ->
    let backend = resolve_backend backend in
    let prog = load_program file in
    let t = Pipeline.create prog in
    let profile = Pipeline.profile_smart ~runs ~seed ~backend t in
    Database.save profile.Pipeline.database db;
    Fmt.pr "profiled %d runs with %d counters; database written to %s@." runs
      (Placement.n_counters profile.Pipeline.plan)
      db;
    Fmt.pr "average instrumented cycles/run: %.0f@." profile.Pipeline.avg_cycles
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run N times with smart counters and write the accumulated database")
    Term.(const run $ file_arg $ runs_arg $ seed_arg $ db_arg $ backend_arg)

let estimate_cmd =
  let from_db_arg =
    Arg.(
      value & opt (some string) None
      & info [ "from-db" ] ~docv:"PATH" ~doc:"Use a saved profile database")
  in
  let flat_arg =
    Arg.(value & flag & info [ "flat" ] ~doc:"gprof-style flat profile only")
  in
  let hot_arg =
    Arg.(
      value & opt (some int) None
      & info [ "hot" ] ~docv:"K" ~doc:"Show only the top-K statement hotspots")
  in
  let csv_arg =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"PATH" ~doc:"Also write per-node estimates as CSV")
  in
  let run file runs seed optimize from_db flat hot csv backend =
    guard @@ fun () ->
    let backend = resolve_backend backend in
    let prog = maybe_optimize optimize (load_program file) in
    let cm = cost_model_of_opt optimize in
    let t = Pipeline.create prog in
    let est =
      match from_db with
      | Some path ->
          let db = Database.load path in
          Pipeline.estimate_totals ~cost_model:cm t ~totals:(Database.proc_totals db)
      | None ->
          let profile = Pipeline.profile_smart ~runs ~seed ~backend t in
          Pipeline.estimate_profiled ~cost_model:cm t profile
    in
    (match hot with
    | Some top -> Fmt.pr "%a@." (Report.pp_hotspots ~top) est
    | None ->
        if flat then Fmt.pr "%a@." Report.flat_profile est
        else Fmt.pr "%s@." (Report.to_string est));
    match csv with
    | Some path ->
        let oc = open_out path in
        output_string oc (Report.csv est);
        close_out oc;
        Fmt.pr "per-node CSV written to %s@." path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Estimate TIME and VAR for every node, Figure-3 style")
    Term.(
      const run $ file_arg $ runs_arg $ seed_arg $ opt_arg $ from_db_arg $ flat_arg
      $ hot_arg $ csv_arg $ backend_arg)

let static_cmd =
  let run file optimize =
    guard @@ fun () ->
    let prog = maybe_optimize optimize (load_program file) in
    let cm = cost_model_of_opt optimize in
    let t = Pipeline.create prog in
    let est =
      Pipeline.estimate_totals ~cost_model:cm t
        ~totals:(S89_core.Static_freq.program_totals t.Pipeline.analyses)
    in
    Fmt.pr "%s@." (Report.to_string est);
    Fmt.pr
      "@.note: no profile was used - constant-bound DO loops and foldable@.\
       conditions are exact, everything else is the declared heuristic@.\
       (loop frequency %.0f, branches %.0f/%.0f, loop exits %.0f%%).@."
      S89_core.Static_freq.default_heuristics.S89_core.Static_freq.loop_freq
      (100.0 *. S89_core.Static_freq.default_heuristics.S89_core.Static_freq.branch_taken)
      (100.0
      *. (1.0
         -. S89_core.Static_freq.default_heuristics.S89_core.Static_freq.branch_taken))
      (100.0 *. S89_core.Static_freq.default_heuristics.S89_core.Static_freq.exit_taken)
  in
  Cmd.v
    (Cmd.info "static"
       ~doc:"Estimate TIME/VAR from compile-time analysis alone (no profile)")
    Term.(const run $ file_arg $ opt_arg)

let chunks_cmd =
  let p_arg =
    Arg.(value & opt int 16 & info [ "P" ] ~docv:"N" ~doc:"Number of processors")
  in
  let h_arg =
    Arg.(
      value & opt float 50.0
      & info [ "h" ] ~docv:"CYCLES" ~doc:"Per-chunk dispatch overhead")
  in
  let n_arg =
    Arg.(
      value & opt int 10000 & info [ "N" ] ~docv:"ITERS" ~doc:"Loop iterations to schedule")
  in
  let run file runs seed p h n =
    guard @@ fun () ->
    let prog = load_program file in
    let t = Pipeline.create prog in
    let profile = Pipeline.profile_smart ~runs ~seed t in
    let est = Pipeline.estimate_profiled t profile in
    Hashtbl.iter
      (fun name (pe : Interproc.proc_est) ->
        let a = pe.Interproc.analysis in
        List.iter
          (fun hd ->
            let body = S89_cdg.Fcdg.children a.Analysis.fcdg hd S89_cfg.Label.T in
            let time =
              List.fold_left
                (fun acc v -> acc +. S89_core.Time_est.time pe.Interproc.time v)
                0.0 body
            in
            let var =
              List.fold_left
                (fun acc v -> acc +. S89_core.Variance.var pe.Interproc.variance v)
                0.0 body
            in
            if time > 0.0 then
              Fmt.pr
                "%s loop@%d: body TIME=%.1f STD=%.1f -> chunk %d of %d iterations on \
                 %d procs (N/P = %d)@."
                name hd time (sqrt var)
                (S89_sched.Chunk.from_estimate ~time ~var ~n ~p ~h)
                n p
                (S89_sched.Chunk.static_chunk ~n ~p))
          (S89_cfg.Ecfg.headers a.Analysis.ecfg))
      est.Interproc.per_proc
  in
  Cmd.v
    (Cmd.info "chunks"
       ~doc:"Variance-driven Kruskal-Weiss chunk sizes for every loop")
    Term.(const run $ file_arg $ runs_arg $ seed_arg $ p_arg $ h_arg $ n_arg)

(* ---------------- batch / serve ----------------

   Graceful shutdown: SIGINT/SIGTERM raise a flag that [batch] polls
   between runs and [serve] in its main loop.  Completed work is already
   durable in the WAL, so the handler only has to ask the loop to stop;
   the final flush happens on the normal return path. *)

let stop_requested = ref false

let install_signal_handlers () =
  let handler _ = stop_requested := true in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle handler)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let no_fsync_arg =
  Arg.(
    value & flag
    & info [ "no-fsync" ]
        ~doc:"Skip fsync on WAL appends (faster, loses crash durability)")

let analyze_cmd =
  let memo_dir_arg =
    Arg.(
      required & opt (some string) None
      & info [ "memo" ] ~docv:"DIR"
          ~doc:
            "Memo store directory (created if missing).  Per-procedure \
             analysis summaries persist here across invocations")
  in
  let run file runs seed optimize memo_dir no_fsync backend =
    guard @@ fun () ->
    let backend = resolve_backend backend in
    let prog = maybe_optimize optimize (load_program file) in
    let cm = cost_model_of_opt optimize in
    let store = Store.open_ ~fsync:(not no_fsync) ~dir:memo_dir () in
    List.iter (fun d -> Fmt.epr "ptranc: %a@." Diag.pp d) (Store.recovery_diags store);
    let memo = Memo.create () in
    List.iter
      (fun (fp, name, time, var) -> Memo.load_summary memo ~fp ~name ~time ~var)
      (Store.memos store);
    let t = Pipeline.create ~memo prog in
    let profile = Pipeline.profile_smart ~cost_model:cm ~runs ~seed ~backend t in
    let est =
      Pipeline.estimate_totals ~cost_model:cm ~memo t
        ~totals:(Database.proc_totals profile.Pipeline.database)
    in
    Fmt.pr "%s@." (Report.to_string est);
    (* persist whatever this run added or changed, then close cleanly *)
    List.iter
      (fun (fp, name, time, var) -> Store.append_memo store ~fp ~name ~time ~var)
      (Memo.drain_summaries memo);
    Store.close store;
    Fmt.epr "ptranc: %a@." Memo.pp_stats memo
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Estimate TIME/VAR with a persistent memo: unchanged procedures reuse \
          their cached analysis, only the dirty cone recomputes")
    Term.(
      const run $ file_arg $ runs_arg $ seed_arg $ opt_arg $ memo_dir_arg
      $ no_fsync_arg $ backend_arg)

let batch_cmd =
  let dir_arg =
    Arg.(
      required & opt (some string) None
      & info [ "dir" ] ~docv:"DIR" ~doc:"Store directory (snapshot + WAL)")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ] ~doc:"Continue an interrupted batch from its checkpoint")
  in
  let export_arg =
    Arg.(
      value & opt (some string) None
      & info [ "export" ] ~docv:"PATH"
          ~doc:"Also write the final database in the profile-db v2 format")
  in
  let memo_flag_arg =
    Arg.(
      value & flag
      & info [ "memo" ]
          ~doc:
            "Memoize per-procedure analysis; summaries persist as memo records \
             in the store and warm the next run of the same batch")
  in
  let run file runs seed optimize dir resume export no_fsync use_memo =
    guard @@ fun () ->
    install_signal_handlers ();
    let source = read_file file in
    let cm = cost_model_of_opt optimize in
    let memo = if use_memo then Some (Memo.create ()) else None in
    match
      Service.batch ~fsync:(not no_fsync) ~cost_model:cm
        ~should_stop:(fun () -> !stop_requested)
        ?export ?memo ~resume ~runs ~seed ~dir source
    with
    | Error d -> fail_diag ~path:file d
    | Ok (Service.Completed { runs; report }) ->
        print_string report;
        Fmt.pr "@.batch complete: %d runs accumulated in %s@." runs dir
    | Ok (Service.Interrupted { completed; total; _ }) ->
        (* graceful shutdown is still an incomplete batch: flag it with
           the SRV family exit code so scripts resume before consuming *)
        fail_diag
          (Diag.v ~severity:Diag.Info ~code:"SRV001"
             ~hint:"re-run with --resume to finish"
             (Fmt.str "interrupted after %d/%d runs; all completed runs are durable"
                completed total))
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Profile N runs into a crash-safe store, checkpointing each run")
    Term.(
      const run $ file_arg $ runs_arg $ seed_arg $ opt_arg $ dir_arg $ resume_arg
      $ export_arg $ no_fsync_arg $ memo_flag_arg)

let serve_cmd =
  let tcp_arg =
    Arg.(
      required & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:"Serve the multi-tenant TCP protocol on PORT (0 = ephemeral)")
  in
  let workers_arg =
    Arg.(
      value & opt int Server.default_config.Server.workers
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains (TCP mode)")
  in
  let capacity_arg =
    Arg.(
      value & opt int Server.default_config.Server.queue_capacity
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:"Max queued jobs per tenant before NET001 rejection (TCP mode)")
  in
  let weight_arg =
    Arg.(
      value & opt_all string []
      & info [ "tenant-weight" ] ~docv:"TENANT=W"
          ~doc:"Weighted-fair dequeue weight for a tenant; repeatable (TCP mode)")
  in
  let store_root_arg =
    Arg.(
      required & opt (some string) None
      & info [ "store-root" ] ~docv:"DIR"
          ~doc:"Root under which each job gets its store and report")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "rate" ] ~docv:"PER-SEC"
          ~doc:
            "Per-tenant admission rate (token bucket refill); 0 disables \
             rate limiting (TCP mode)")
  in
  let burst_arg =
    Arg.(
      value & opt int 0
      & info [ "burst" ] ~docv:"N"
          ~doc:"Token bucket capacity (max instantaneous admissions per tenant)")
  in
  let max_tenant_bytes_arg =
    Arg.(
      value & opt int 0
      & info [ "max-tenant-bytes" ] ~docv:"BYTES"
          ~doc:"Per-tenant durable byte quota (NET004 above it); 0 = unlimited")
  in
  let max_tenant_jobs_arg =
    Arg.(
      value & opt int 0
      & info [ "max-tenant-jobs" ] ~docv:"N"
          ~doc:"Per-tenant live job quota (NET004 above it); 0 = unlimited")
  in
  let max_conns_arg =
    Arg.(
      value & opt int Server.default_config.Server.max_connections
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Concurrent connection cap; 0 = unlimited (TCP mode)")
  in
  let retain_done_arg =
    Arg.(
      value & opt float Server.default_config.Server.retain_done
      & info [ "retain-done" ] ~docv:"SECONDS"
          ~doc:
            "GC finished jobs older than this; negative keeps them forever \
             (TCP mode)")
  in
  let max_store_bytes_arg =
    Arg.(
      value & opt int 0
      & info [ "max-store-bytes" ] ~docv:"BYTES"
          ~doc:
            "GC size bound on the store root: above it, finished jobs are \
             evicted oldest first; 0 = unbounded (TCP mode)")
  in
  let recv_timeout_arg =
    Arg.(
      value & opt float Server.default_config.Server.recv_timeout
      & info [ "recv-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Absolute per-frame read deadline — a client dripping bytes \
             slower than this is disconnected (TCP mode)")
  in
  let parse_weights specs =
    List.map
      (fun spec ->
        match String.index_opt spec '=' with
        | Some i -> (
            let tenant = String.sub spec 0 i in
            let w = String.sub spec (i + 1) (String.length spec - i - 1) in
            match int_of_string_opt w with
            | Some w when w > 0 && Proto.name_ok tenant -> (tenant, w)
            | _ ->
                fail_diag
                  (Diag.errorf ~code:"CLI001" "bad --tenant-weight %S" spec))
        | None ->
            fail_diag (Diag.errorf ~code:"CLI001" "bad --tenant-weight %S" spec))
      specs
  in
  let run port workers capacity weights store_root no_fsync rate burst
      max_tenant_bytes max_tenant_jobs max_conns retain_done max_store_bytes
      recv_timeout =
    guard @@ fun () ->
    install_signal_handlers ();
    let config =
      { Server.default_config with
        Server.port; workers; queue_capacity = capacity;
        tenant_weights = parse_weights weights; fsync = not no_fsync;
        quota =
          { S89_net.Quota.rate; burst; max_bytes = max_tenant_bytes;
            max_jobs = max_tenant_jobs };
        max_connections = max_conns; retain_done; max_store_bytes;
        recv_timeout }
    in
    (* S89_FAULTS_PULSE arms a runtime fault toggle for chaos soaks:
       SIGUSR1 activates the pulse spec (opening a disk-fault
       window), SIGUSR2 deactivates it.  Unlike S89_FAULTS — which
       is static for the process lifetime — this gives an external
       soak script deterministic fault WINDOWS against a live server. *)
    (match Sys.getenv_opt "S89_FAULTS_PULSE" with
    | None | Some "" -> ()
    | Some spec_str ->
        let spec =
          match S89_util.Fault.parse spec_str with
          | Ok s -> s
          | Error msg -> fail_diag (Diag.errorf ~code:"CLI001" "%s" msg)
        in
        Sys.set_signal Sys.sigusr1
          (Sys.Signal_handle (fun _ -> S89_util.Fault.set (Some spec)));
        Sys.set_signal Sys.sigusr2
          (Sys.Signal_handle (fun _ -> S89_util.Fault.set None)));
    let srv = Server.start ~config ~store_root () in
    Fmt.pr "serving on 127.0.0.1:%d@." (Server.port srv);
    while not !stop_requested do
      try Unix.sleepf 0.1
      with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Server.stop srv;
    print_string (Server.metrics_text srv);
    Fmt.epr "ptranc: %a@." Diag.pp
      (Diag.v ~severity:Diag.Info ~code:"SRV001"
         "shutdown requested; in-flight work is checkpointed")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run batches as jobs arrive over the multi-tenant TCP protocol \
          (submit them with 'ptranc client submit')")
    Term.(
      const run $ tcp_arg $ workers_arg $ capacity_arg $ weight_arg
      $ store_root_arg $ no_fsync_arg $ rate_arg $ burst_arg
      $ max_tenant_bytes_arg $ max_tenant_jobs_arg $ max_conns_arg
      $ retain_done_arg $ max_store_bytes_arg $ recv_timeout_arg)

let client_cmd =
  let action_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("submit", `Submit); ("status", `Status); ("result", `Result);
                  ("metrics", `Metrics) ]))
          None
      & info [] ~docv:"ACTION" ~doc:"submit, status, result or metrics")
  in
  let connect_arg =
    Arg.(
      value & opt string "127.0.0.1:7089"
      & info [ "connect" ] ~docv:"HOST:PORT" ~doc:"Server address")
  in
  let tenant_arg =
    Arg.(
      value & opt string "default"
      & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant name")
  in
  let job_arg =
    Arg.(
      value & opt (some string) None
      & info [ "job" ] ~docv:"NAME" ~doc:"Job name (defaults to the file's basename)")
  in
  let file_arg =
    Arg.(
      value & opt (some string) None
      & info [ "file" ] ~docv:"FILE" ~doc:"MF77 source to submit")
  in
  let deadline_arg =
    Arg.(
      value & opt float 0.0
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Relative job deadline; 0 = none (SRV004 + partial results on expiry)")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry a rejected request up to N times with exponential backoff \
             and jitter, honoring the server's advised retry-after")
  in
  let run action connect tenant job file runs seed deadline retries =
    guard @@ fun () ->
    let host, port =
      match String.rindex_opt connect ':' with
      | Some i -> (
          let h = String.sub connect 0 i in
          let p = String.sub connect (i + 1) (String.length connect - i - 1) in
          match int_of_string_opt p with
          | Some p when p >= 0 -> ((if h = "" then "127.0.0.1" else h), p)
          | _ -> fail_diag (Diag.errorf ~code:"CLI001" "bad --connect %S" connect))
      | None -> fail_diag (Diag.errorf ~code:"CLI001" "bad --connect %S" connect)
    in
    let job_name file =
      match job with
      | Some j -> j
      | None -> Filename.remove_extension (Filename.basename file)
    in
    let req =
      match action with
      | `Submit -> (
          match file with
          | None ->
              fail_diag
                (Diag.error ~code:"CLI001" "client submit needs --file FILE")
          | Some f ->
              Proto.Submit
                { tenant; job = job_name f; runs; seed; deadline;
                  source = read_file f })
      | `Status | `Result -> (
          let mk j =
            if action = `Status then Proto.Status { tenant; job = j }
            else Proto.Result { tenant; job = j }
          in
          match (job, file) with
          | Some j, _ -> mk j
          | None, Some f -> mk (job_name f)
          | None, None ->
              fail_diag (Diag.error ~code:"CLI001" "client needs --job NAME"))
      | `Metrics -> Proto.Metrics
    in
    let attempt_rpc () =
      let fd =
        try Server.Client.connect ~host ~port ()
        with Unix.Unix_error (e, _, _) ->
          fail_diag
            (Diag.errorf ~code:"NET003" ~hint:"is the server running?"
               "cannot connect to %s:%d: %s" host port (Unix.error_message e))
      in
      Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
      Server.Client.rpc fd req
    in
    (* a rejection reason leads with its error code (NET001/NET004/SRV007) *)
    let code_of_reason reason =
      match String.index_opt reason ' ' with
      | Some i when i = 6 -> String.sub reason 0 i
      | _ -> "NET001"
    in
    Random.self_init ();
    let rec go attempt =
      match attempt_rpc () with
      | Error msg ->
          fail_diag (Diag.errorf ~code:"NET002" "bad server response: %s" msg)
      | Ok (Proto.Rejected { retry_after; reason }) when attempt < retries ->
          (* exponential backoff over the server's advised floor, with
             jitter so retrying clients don't re-arrive in lockstep *)
          let delay =
            Server.Client.retry_delay ~attempt ~retry_after
              ~jitter:(Random.float 1.0)
          in
          Fmt.epr "ptranc: rejected (%s); retry %d/%d in %ss@." reason
            (attempt + 1) retries
            (Proto.pp_retry_after delay);
          Unix.sleepf delay;
          go (attempt + 1)
      | Ok (Proto.Rejected { retry_after; reason }) ->
          fail_diag
            (Diag.errorf
               ~code:(code_of_reason reason)
               ~hint:(Fmt.str "retry after %ss" (Proto.pp_retry_after retry_after))
               "%s" reason)
      | Ok (Proto.Accepted { job }) -> Fmt.pr "accepted %s@." job
      | Ok (Proto.Job_status { state; completed; total }) ->
          Fmt.pr "%s %d/%d@." state completed total
      | Ok (Proto.Job_result { state; body }) ->
          print_string body;
          if state <> "done" && state <> "expired" then
            fail_diag
              (Diag.errorf ~code:"SRV001" "job is %s; no final result" state)
      | Ok (Proto.Metrics_text text) -> print_string text
      | Ok (Proto.Error_resp { code; message }) ->
          fail_diag (Diag.error ~code message)
    in
    go 0
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Submit and query jobs against a ptranc serve --tcp server")
    Term.(
      const run $ action_arg $ connect_arg $ tenant_arg $ job_arg $ file_arg
      $ runs_arg $ seed_arg $ deadline_arg $ retries_arg)

let demo_cmd =
  let which =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("fig1", `Fig1); ("branchy", `Branchy); ("chunky", `Chunky);
                  ("nested", `Nested); ("recursive", `Recursive);
                  ("irreducible", `Irreducible); ("cgoto", `Cgoto);
                  ("loops", `Loops); ("simple", `Simple) ]))
          None
      & info [] ~docv:"NAME" ~doc:"Demo name")
  in
  let run which =
    let module W = S89_workloads.Demos in
    let src =
      match which with
      | `Fig1 -> W.fig1 ()
      | `Branchy -> W.branchy ()
      | `Chunky -> W.chunky ()
      | `Nested -> W.nested_random ()
      | `Recursive -> W.recursive ()
      | `Irreducible -> W.irreducible ()
      | `Cgoto -> W.computed_goto ()
      | `Loops -> S89_workloads.Livermore.source
      | `Simple -> S89_workloads.Simple_code.source ()
    in
    print_string src
  in
  Cmd.v (Cmd.info "demo" ~doc:"Print one of the built-in demo programs")
    Term.(const run $ which)

(* Debug logging on the s89.* sources is controlled by the environment:
   S89_LOG=debug|info|warning (default warning). *)
let setup_logs () =
  Logs.set_reporter (Logs_fmt.reporter ());
  let level =
    match Sys.getenv_opt "S89_LOG" with
    | Some "debug" -> Logs.Debug
    | Some "info" -> Logs.Info
    | _ -> Logs.Warning
  in
  Logs.set_level (Some level)

let () =
  setup_logs ();
  let doc = "average program execution times and their variance (PLDI'89 reproduction)" in
  let info = Cmd.info "ptranc" ~version:"1.0.0" ~doc in
  let code =
    Cmd.eval
      (Cmd.group info
         [ parse_cmd; cfg_cmd; ecfg_cmd; fcdg_cmd; plan_cmd; run_cmd; profile_cmd;
           estimate_cmd; analyze_cmd; static_cmd; chunks_cmd; batch_cmd;
           serve_cmd; client_cmd; demo_cmd ])
  in
  (* usage errors land in the same exit-code family as IO errors (2) *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
