(* The repository benchmark: four workloads over the source-to-report
   pipeline and the TCP service.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--tiny] [--nproc N] [--ptranc PATH] [--serve-rate R]

   Untraced (--trace 0) it prints the end-to-end metrics; traced
   (--trace 1) the per-layer self times, a Chrome trace-event file and
   the tracing overhead.  The last line of standard output is one JSON
   object: correct, attempted, failed and metrics. *)

module Program = S89_frontend.Program
module Pipeline = S89_core.Pipeline
module Memo = S89_core.Memo
module Database = S89_profiling.Database
module Interp = S89_vm.Interp
module Cost_model = S89_vm.Cost_model
module Optimize = S89_vm.Optimize
module Server = S89_net.Server
module Prng = S89_util.Prng
module Gen_prog = S89_testgen.Gen_prog

let now = Unix.gettimeofday

(* ---------------- statistics ---------------- *)

let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= Array.length a then a.(i) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* ---------------- metric catalogue ---------------- *)

(* end-to-end metrics, every workload *)
let end_to_end = [ ("setup_s", "s"); ("ok_share", "ratio"); ("op_p10_s", "s"); ("peak_rss_mb", "MB") ]

(* per-layer spans: each reports <name>_s, <name>_calls, <name>_alloc_mb *)
let layer_names =
  [ "frontend.program"; "frontend.lex"; "frontend.parse"; "frontend.sema";
    "frontend.lower"; "profiling.analysis"; "cfg.ecfg"; "cdg.control_dep"; "cdg.fcdg";
    "core.profile_smart"; "profiling.placement"; "vm.optimize"; "vm.create"; "vm.run";
    "profiling.reconstruct"; "core.estimate"; "core.report"; "core.service_batch";
    "store.append_run"; "store.write_atomic"; "net.submit_rpc"; "net.status_rpc";
    "net.queue_wait" ]

let layer_counts =
  [ ("profiling.counters", "count"); ("vm.mcycles", "Mcycles");
    ("vm.fallback_execs", "count"); ("core.report_bytes", "bytes");
    ("core.memo_hit_rate", "ratio"); ("core.memo_analysis_hits", "count");
    ("core.memo_analysis_misses", "count"); ("net.rejected", "count");
    ("gen.late_p99_s", "s") ]

(* ---------------- options ---------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let tiny = ref false
let nproc = ref (Domain.recommended_domain_count ())
let ptranc = ref "_build/default/bin/ptranc.exe"
let serve_rate = ref 10.0
let work_dir = "perfbench/.work"

let specs =
  [ ("--workload", Arg.Set_string workload, "NAME analyze-cold|profile-table1|edit-replay|serve-open");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S timed seconds");
    ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
    ("--tiny", Arg.Set tiny, " tiny inputs (smoke test)");
    ("--nproc", Arg.Set_int nproc, "N cores available");
    ("--ptranc", Arg.Set_string ptranc, "PATH ptranc executable (serve-open)");
    ("--serve-rate", Arg.Set_float serve_rate, "R offered jobs per second (serve-open)") ]

(* ---------------- results ---------------- *)

type result = {
  setup_s : float;
  attempted : int;
  failed : int;
  lat : float list; (* per checked op, seconds *)
  rates : float * float * float; (* kloc/s, Mcycles/s, ops/s over checked ops *)
  rss_mb : float;
  notes : string list; (* input sizes and the like, printed as is *)
  overhead : (float * float) option; (* typical traced op wall, untraced op wall *)
  traced_ops : int;
}

(* ---------------- the in-process loop ---------------- *)

type ('a, 'r) op = {
  prepare : int -> 'a; (* untimed: the op's input *)
  run : 'a -> 'r; (* timed *)
  check : last:bool -> int -> 'a -> 'r -> bool; (* untimed *)
  work : 'a -> 'r -> float * float; (* kloc, Mcycles *)
  block : int; (* ops run in whole blocks of this many *)
}

(* Ops until [seconds] of timed work and a whole block are done, so that
   every run does the same mix of work.  Traced, ops alternate
   untraced / traced (the traced ones under an "op" root span), so the
   run reports its own tracing overhead.  The peak resident set is read
   once [rss_after] ops are done (or at the end of a shorter run), so it
   measures a fixed amount of work, not how much fitted in the time. *)
let loop ~traced ~seconds ~rss_after op =
  let wall0 = now () in
  let lat = ref [] and busy = ref 0.0 and kloc = ref 0.0 and mcycles = ref 0.0 in
  let rss = ref None in
  let attempted = ref 0 and failed = ref 0 in
  let plain = ref [] and with_spans = ref [] in
  let last = ref None in
  let i = ref 0 in
  let more () =
    !i = 0 || !busy < seconds || !i mod op.block <> 0
    || (traced && (!plain = [] || !with_spans = []))
  in
  while more () && now () -. wall0 < (3.0 *. seconds) +. 60.0 do
    let input = op.prepare !i in
    let spans = traced && !i mod 2 = 1 in
    Trace.enabled := spans;
    Trace.group := !i;
    let t0 = now () in
    let r =
      try Ok (if spans then Trace.span "op" (fun () -> op.run input) else op.run input)
      with e -> Error e
    in
    let dt = now () -. t0 in
    Trace.enabled := false;
    incr attempted;
    busy := !busy +. dt;
    (if spans then with_spans := dt :: !with_spans else plain := dt :: !plain);
    (match r with
    | Ok r when (try op.check ~last:false !i input r with _ -> false) ->
        lat := dt :: !lat;
        let k, m = op.work input r in
        kloc := !kloc +. k;
        mcycles := !mcycles +. m;
        last := Some (!i, input, r)
    | Ok _ -> incr failed
    | Error e ->
        prerr_endline ("perfbench: op failed: " ^ Printexc.to_string e);
        incr failed);
    incr i;
    if !i = rss_after then rss := Some (Serve_open.peak_rss_mb 0)
  done;
  (match !last with
  | Some (i, input, r) when not (try op.check ~last:true i input r with _ -> false) ->
      incr failed
  | _ -> ());
  let overhead =
    if traced && !plain <> [] && !with_spans <> [] then
      Some (median !with_spans, median !plain)
    else None
  in
  (* throughput: checked work over the time the checked ops took *)
  let checked_s = List.fold_left ( +. ) 0.0 !lat in
  let per_s x = if checked_s > 0.0 then x /. checked_s else 0.0 in
  let rates = (per_s !kloc, per_s !mcycles, per_s (float_of_int (List.length !lat))) in
  let rss = match !rss with Some r -> r | None -> Serve_open.peak_rss_mb 0 in
  (!attempted, !failed, !lat, rates, rss, overhead, List.length !with_spans)

(* Run [f] at least nine times and for at least a second (at most 60
   times), keep the last value and report the median time.  [release]
   (untimed) disposes of each value but the last. *)
let setup_times ?(release = ignore) f =
  let times = ref [] and v = ref None and spent = ref 0.0 in
  while
    let n = List.length !times in
    n < 9 || (!spent < 1.0 && n < 60)
  do
    Option.iter release !v;
    Gc.full_major ();
    let t0 = now () in
    v := Some (f ());
    let dt = now () -. t0 in
    times := dt :: !times;
    spent := !spent +. dt
  done;
  (Option.get !v, median !times)

(* [setup] (timed) makes the inputs; [expect] (untimed) computes what the
   output checks compare against. *)
let in_process ~rss_after ~setup ~expect op_of =
  let traced = !trace = 1 in
  let inputs, setup_s = setup_times setup in
  let prepared, notes = expect inputs in
  let attempted, failed, lat, rates, rss_mb, overhead, traced_ops =
    loop ~traced ~seconds:!seconds ~rss_after (op_of prepared)
  in
  { setup_s; attempted; failed; lat; rates; rss_mb; notes; overhead; traced_ops }

(* A generated many-procedure program.  The procedure bodies come from a
   fixed generator seed and the run seed only draws their editable
   constants, so every seed does the same amount of work. *)
let body_seed = 401

let seeded_program ~procs ~size seed =
  let rng = Prng.create ~seed in
  let consts = Array.init procs (fun _ -> Prng.int rng 100) in
  (consts, Gen_prog.gen_incremental_source ~size ~consts body_seed)

let src_note name src (prog : Program.t) ~runs =
  Printf.sprintf "input %s: %d source bytes, %d lines, %d procedures, %d CFG nodes, %d profiled run(s)"
    name (String.length src) (Ops.lines src) (List.length (Program.procs prog))
    (Ops.cfg_nodes prog) runs

(* ---------------- analyze-cold ---------------- *)

let analyze_cold () =
  let cost_model = Cost_model.unoptimized in
  let procs, size, wide_nodes = if !tiny then (8, 3, 300) else (100, 8, 4400) in
  let vseed = !seed in
  (* the inputs, parsed once to size them *)
  let setup () =
    List.map
      (fun (name, src) -> (name, src, Program.of_source src))
      [ ("many-procedure", snd (seeded_program ~procs ~size !seed));
        ("wide-procedure", Gen_prog.gen_wide_cfg_source ~nodes:wide_nodes ()) ]
  in
  let expect inputs =
    let prepared =
      List.map
        (fun (name, src, prog) ->
          let oracle = Ops.oracle ~cost_model ~runs:1 ~seed:vseed (Pipeline.create prog) in
          (src, oracle, src_note name src prog ~runs:1))
        inputs
    in
    (prepared, List.map (fun (_, _, n) -> n) prepared)
  in
  in_process ~rss_after:4 ~setup ~expect (fun prepared ->
      { prepare = (fun _ -> prepared);
        run =
          List.map (fun (src, _, _) ->
              let t = Ops.analysis (Ops.frontend src) in
              let p = Ops.profile ~cost_model ~runs:1 ~seed:vseed t in
              let est = Ops.estimate_profiled ~cost_model t p in
              (p, Ops.report est));
        check =
          (fun ~last:_ _ inputs outs ->
            List.for_all2
              (fun (_, (oracle, time_ok), _) ((p : Pipeline.profile), rep) ->
                time_ok && rep <> "" && Ops.totals_equal oracle p.Pipeline.totals)
              inputs outs);
        work =
          (fun inputs outs ->
            ( List.fold_left (fun a (src, _, _) -> a +. (float_of_int (Ops.lines src) /. 1000.0)) 0.0 inputs,
              List.fold_left (fun a (p, _) -> a +. Ops.mcycles p) 0.0 outs ));
        block = 1 })

(* ---------------- profile-table1 ---------------- *)

let profile_table1 () =
  let runs = if !tiny then 1 else 2 in
  let vseed = !seed in
  (* the inputs, parsed (and optimized) once to size them *)
  let setup () =
    let simple =
      if !tiny then S89_workloads.Simple_code.source ~n:20 ~cycles:2 ()
      else S89_workloads.Simple_code.source ()
    in
    List.concat_map
      (fun (name, src) ->
        let prog = Program.of_source src in
        [ (name ^ "/opt-ON", src, true, Cost_model.optimized, Optimize.program prog);
          (name ^ "/opt-OFF", src, false, Cost_model.unoptimized, prog) ])
      [ ("LOOPS", S89_workloads.Livermore.source); ("SIMPLE", simple) ]
  in
  let expect variants =
    let prepared =
      List.map
        (fun (name, src, opt, cost_model, prog) ->
          let oracle = Ops.oracle ~cost_model ~runs ~seed:vseed (Pipeline.create prog) in
          ((src, opt, cost_model, oracle), src_note name src prog ~runs))
        variants
    in
    (List.map fst prepared, List.map snd prepared)
  in
  in_process ~rss_after:4 ~setup ~expect (fun prepared ->
      { prepare = (fun _ -> prepared);
        run =
          List.map (fun (src, opt, cost_model, _) ->
              let prog = Ops.frontend src in
              let prog = if opt then Ops.optimize prog else prog in
              let t = Ops.analysis prog in
              let p = Ops.profile ~cost_model ~runs ~seed:vseed t in
              let est = Ops.estimate_profiled ~cost_model t p in
              (p, Ops.report est));
        check =
          (fun ~last:_ _ inputs outs ->
            List.for_all2
              (fun (_, _, _, (oracle, time_ok)) ((p : Pipeline.profile), rep) ->
                time_ok && rep <> "" && Ops.totals_equal oracle p.Pipeline.totals)
              inputs outs);
        work =
          (fun inputs outs ->
            ( List.fold_left (fun a (src, _, _, _) -> a +. (float_of_int (Ops.lines src) /. 1000.0)) 0.0 inputs,
              List.fold_left (fun a (p, _) -> a +. Ops.mcycles p) 0.0 outs ));
        block = 1 })

(* ---------------- edit-replay ---------------- *)

(* `ptranc analyze`'s call sequence, with or without the memo *)
let analyze_once ~cost_model ~seed ?memo src =
  let t = Ops.analysis ?memo (Ops.frontend src) in
  let p = Ops.profile ~cost_model ~runs:1 ~seed t in
  let est = Ops.estimate_totals ~cost_model ?memo t (Database.proc_totals p.Pipeline.database) in
  (p, Ops.report est)

let edit_replay () =
  let cost_model = Cost_model.unoptimized in
  let procs, size = if !tiny then (6, 3) else (50, 8) in
  let vseed = !seed in
  let setup () =
    let consts, src = seeded_program ~procs ~size !seed in
    let memo = Memo.create () in
    ignore (analyze_once ~cost_model ~seed:vseed ~memo src);
    (consts, src, memo)
  in
  let expect (consts, src, memo) =
    ((consts, memo), [ src_note "program" src (Program.of_source src) ~runs:1 ])
  in
  (* Edits come in blocks that edit every procedure once, in a seeded
     order, so that seeds change the order and not the work.  The memo
     grows by each edit's dirty cone: after one block it holds the same
     amount on every run, and the peak resident set is read then. *)
  let edits = Prng.create ~seed:((!seed * 7919) + 1) in
  let order = Array.init procs Fun.id in
  in_process ~rss_after:procs ~setup ~expect (fun (consts, memo) ->
      { prepare =
          (fun i ->
            if i mod procs = 0 then
              for k = procs - 1 downto 1 do
                let r = Prng.int edits (k + 1) in
                let t = order.(k) in
                order.(k) <- order.(r);
                order.(r) <- t
              done;
            let j = order.(i mod procs) in
            consts.(j) <- consts.(j) + 1 + Prng.int edits 9;
            Gen_prog.gen_incremental_source ~size ~consts body_seed);
        run =
          (fun src ->
            let before = Memo.stats memo in
            let h, m = (before.Memo.hits, before.Memo.misses) in
            let r = analyze_once ~cost_model ~seed:vseed ~memo src in
            if !Trace.enabled then begin
              let s = Memo.stats memo in
              Trace.count "core.memo_hits" (float_of_int (s.Memo.hits - h));
              Trace.count "core.memo_misses" (float_of_int (s.Memo.misses - m))
            end;
            r);
        (* byte-identical to a from-scratch report on every eighth edit
           and on the last one *)
        check =
          (fun ~last i src (_, rep) ->
            if last || i mod 8 = 0 then
              snd (analyze_once ~cost_model ~seed:vseed src) = rep
            else rep <> "");
        work = (fun src (p, _) -> (float_of_int (Ops.lines src) /. 1000.0, Ops.mcycles p));
        block = procs })

(* ---------------- serve-open ---------------- *)

let serve_open () =
  let module S = Serve_open in
  let traced = !trace = 1 in
  let workers = max 1 (!nproc - 1) in
  let root k = Filename.concat work_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) k) in
  let jobs = S.job_mix ~tiny:!tiny ~seed:!seed ~rate:!serve_rate ~seconds:!seconds in
  (* set-up: start the server; the expected results are computed untimed *)
  let starts = ref 0 in
  let srv, setup_s =
    setup_times ~release:S.stop_server (fun () ->
        incr starts;
        S.start_server ~ptranc:!ptranc ~workers ~root:(root !starts))
  in
  let expected = S.expected ~dir:work_dir jobs in
  Trace.enabled := traced;
  let load = S.run_load ~port:srv.S.port ~jobs ~drain:30.0 in
  Trace.enabled := false;
  let rss_mb = S.peak_rss_mb srv.S.pid in
  let checked = S.check_results ~port:srv.S.port ~expected jobs in
  S.stop_server srv;
  let ok = ref 0 and lat = ref [] and kloc = ref 0.0 and mc = ref 0.0 in
  Array.iteri
    (fun i j ->
      match checked.(i) with
      | true, m ->
          incr ok;
          lat := (j.S.t_done -. (load.S.t_start +. j.S.sched)) :: !lat;
          kloc := !kloc +. (float_of_int (Ops.lines j.S.source) /. 1000.0);
          mc := !mc +. m
      | false, _ -> ())
    jobs;
  let n = Array.length jobs in
  let high = Array.fold_left (fun m j -> max m j.S.runs) 0 jobs in
  let runs_high = Array.fold_left (fun a j -> if j.S.runs = high then a + 1 else a) 0 jobs in
  let notes =
    [ Printf.sprintf
        "open loop: %.3g jobs/s offered for %.3g s = %d jobs (%d with runs=%d), 3 tenants, %d worker domain(s), fsync on"
        !serve_rate !seconds n runs_high high workers;
      Printf.sprintf "generator lateness: p50 %.6f s, p99 %.6f s, max %.6f s" (median load.S.late)
        (quantile 0.99 load.S.late)
        (List.fold_left Float.max 0.0 load.S.late);
      Printf.sprintf "rejected: %d" load.S.rejected ]
  in
  Trace.set "net.rejected" (float_of_int load.S.rejected);
  Trace.set "gen.late_p99_s" (quantile 0.99 load.S.late);
  (* traced: the job cost without the network, in process *)
  let overhead, traced_ops =
    if not traced then (None, 0)
    else begin
      let dir = Filename.concat work_dir (Printf.sprintf "inproc-%d" (Unix.getpid ())) in
      S.mkdir_p dir;
      (* each sampled job runs untraced, then traced *)
      let plain = ref 0.0 and with_spans = ref 0.0 and ops = ref 0 in
      Array.iteri
        (fun i j ->
          if !plain +. !with_spans < !seconds /. 2.0 then begin
            let t0 = now () in
            ignore (S.service_job ~dir j);
            let t1 = now () in
            Trace.enabled := true;
            Trace.group := n + i;
            ignore (Trace.span "op" (fun () -> S.service_job ~dir j));
            Trace.enabled := false;
            plain := !plain +. (t1 -. t0);
            with_spans := !with_spans +. (now () -. t1);
            incr ops
          end)
        jobs;
      S.rm_rf dir;
      (Some (!with_spans /. float_of_int !ops, !plain /. float_of_int !ops), !ops)
    end
  in
  let wall = load.S.t_end -. load.S.t_start in
  { setup_s; attempted = n; failed = n - !ok; lat = !lat;
    rates = (!kloc /. wall, !mc /. wall, float_of_int !ok /. wall); rss_mb; notes;
    overhead; traced_ops }

(* ---------------- output ---------------- *)

let fmt_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let host_facts () =
  [ ("nproc", string_of_int !nproc);
    ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ( "interp_backend",
      match Interp.default_config.Interp.backend with
      | Interp.Tree -> "tree"
      | Interp.Compiled -> "compiled"
      | Interp.Bytecode -> "bytecode" );
    ("serve_fsync", string_of_bool Server.default_config.Server.fsync) ]

let json_obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) kvs) ^ "}"

let metric_json (name, unit_, v) =
  (name, Printf.sprintf "{\"value\": %s, \"unit\": %S}" (fmt_num v) unit_)

(* The shared host this was built on slows the same op by up to 1.5x, in
   spells of seconds to minutes.  The lower decile of op latency reads
   the uncontended spells of a run and stays steady from run to run; the
   median, the mean (and so kloc/s) and the tail follow the host and are
   printed, not gated. *)
let end_to_end_values r =
  [ ("setup_s", r.setup_s);
    ("ok_share",
      if r.attempted = 0 then 0.0
      else float_of_int (r.attempted - r.failed) /. float_of_int r.attempted);
    ("op_p10_s", quantile 0.1 r.lat); ("peak_rss_mb", r.rss_mb) ]

let per_layer_values r =
  let rows, root_wall, root_gap = Trace.layers () in
  let row name = List.assoc_opt name rows in
  let wall = root_wall in
  let layer name =
    let self, calls, alloc =
      match row name with
      | Some l -> (l.Trace.self_s, float_of_int l.Trace.calls, l.Trace.alloc_b /. 1e6)
      | None -> (0.0, 0.0, 0.0)
    in
    [ (name ^ "_s", "s", self); (name ^ "_calls", "count", calls);
      (name ^ "_alloc_mb", "MB", alloc) ]
  in
  let hits = Trace.counter "core.memo_hits" and misses = Trace.counter "core.memo_misses" in
  let count (name, unit_) =
    let v =
      if name = "core.memo_hit_rate" then
        if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0
      else Trace.counter name
    in
    (name, unit_, v)
  in
  let over, share =
    match r.overhead with
    | Some (t, u) -> (t -. u, if u > 0.0 then (t -. u) /. u else 0.0)
    | None -> (0.0, 0.0)
  in
  let meta =
    [ ("trace.coverage", "ratio", if wall > 0.0 then 1.0 -. (root_gap /. wall) else 0.0);
      ("trace.overhead_s", "s", over); ("trace.overhead_share", "ratio", share);
      ("trace.wall_s", "s", wall); ("trace.ops", "count", float_of_int r.traced_ops);
      ("trace.spans", "count", float_of_int (List.length !Trace.spans)) ]
  in
  (List.concat_map layer layer_names @ List.map count layer_counts @ meta, rows)

(* share = of all layer self time; replays and root gaps are excluded *)
let print_layer_table rows =
  let total = List.fold_left (fun a (_, l) -> a +. l.Trace.self_s) 0.0 rows in
  Printf.printf "%-24s %12s %8s %8s %12s\n" "layer" "self_s" "share" "calls" "alloc_mb";
  List.iter
    (fun (name, l) ->
      Printf.printf "%-24s %12.6f %7.1f%% %8d %12.3f\n" name l.Trace.self_s
        (if total > 0.0 then 100.0 *. l.Trace.self_s /. total else 0.0)
        l.Trace.calls (l.Trace.alloc_b /. 1e6))
    (List.sort (fun (_, a) (_, b) -> compare b.Trace.self_s a.Trace.self_s) rows)

let () =
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match !workload with
    | "analyze-cold" -> analyze_cold
    | "profile-table1" -> profile_table1
    | "edit-replay" -> edit_replay
    | "serve-open" -> serve_open
    | w ->
        prerr_endline ("perfbench: unknown workload " ^ w);
        exit 2
  in
  Serve_open.mkdir_p work_dir;
  let r = run () in
  Printf.printf "workload %s seed %d seconds %g trace %d%s\n" !workload !seed !seconds !trace
    (if !tiny then " tiny" else "");
  List.iter print_endline r.notes;
  let n = List.length r.lat in
  Printf.printf "ops: %d attempted, %d failed, failed_share %g\n" r.attempted r.failed
    (if r.attempted = 0 then 0.0 else float_of_int r.failed /. float_of_int r.attempted);
  Printf.printf "op latency over %d checked ops: p10 %.6f s, p25 %.6f s, p50 %.6f s, p90 %.6f s\n"
    n (quantile 0.1 r.lat) (quantile 0.25 r.lat) (median r.lat) (quantile 0.9 r.lat);
  (let kloc, mcycles, ops = r.rates in
   Printf.printf
     "ops per second %.4g, kloc per second %.4g, simulated Mcycles of instrumented runs per second %.4g\n"
     ops kloc mcycles);
  Printf.printf "gc top heap: %.1f MB\n"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
  let metrics =
    if !trace = 1 then begin
      let values, rows = per_layer_values r in
      print_layer_table rows;
      let path =
        Filename.concat work_dir (Printf.sprintf "trace-%s-seed%d.json" !workload !seed)
      in
      Trace.write_chrome path ~meta:(host_facts ());
      Printf.printf "chrome trace: %s\n" path;
      List.iter
        (fun (k, u, v) ->
          if String.length k >= 6 && String.sub k 0 6 = "trace." then
            Printf.printf "%s %s %s\n" k (fmt_num v) u)
        values;
      values
    end
    else begin
      let values = List.map (fun (k, v) -> (k, List.assoc k end_to_end, v)) (end_to_end_values r) in
      List.iter (fun (k, u, v) -> Printf.printf "%s %s %s\n" k (fmt_num v) u) values;
      values
    end
  in
  print_endline ("host " ^ json_obj (List.map (fun (k, v) -> (k, Printf.sprintf "%S" v)) (host_facts ())));
  print_endline
    (json_obj
       [ ("correct", string_of_bool (r.failed = 0)); ("attempted", string_of_int r.attempted);
         ("failed", string_of_int r.failed);
         ("metrics", json_obj (List.map metric_json metrics)) ])
