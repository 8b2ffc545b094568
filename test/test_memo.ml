(* PR-8 surface: incremental memoized interprocedural analysis.
   Fingerprint semantics (renames keep them, body edits invalidate
   exactly the caller cone, callee-summary changes propagate), memoized
   vs. from-scratch byte-identity, and the memo record family's crash
   recovery through the store's longest-valid-prefix WAL path. *)

module Program = S89_frontend.Program
module Pipeline = S89_core.Pipeline
module Interproc = S89_core.Interproc
module Static_freq = S89_core.Static_freq
module Report = S89_core.Report
module Memo = S89_core.Memo
module Interp = S89_vm.Interp
module Cost_model = S89_vm.Cost_model
module Placement = S89_profiling.Placement
module Database = S89_profiling.Database
module Store = S89_store.Store
module Diag = S89_diag.Diag
module Fault = S89_util.Fault

let check = Alcotest.check
let ci = Alcotest.int
let cs = Alcotest.string
let csl = Alcotest.(list string)

let spec_of s =
  match Fault.parse s with Ok sp -> sp | Error m -> Alcotest.fail m

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmp_dir f =
  let dir = Filename.temp_file "s89memo" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* MAIN calls A and C; A calls B.  v2 edits B's body; v3 only renames
   B to BB (the call site in A must follow, so A's body changes too). *)
let src_v1 =
  "      PROGRAM MAIN\n      CALL A\n      CALL C\n      END\n\n\
  \      SUBROUTINE A\n      CALL B\n      END\n\n\
  \      SUBROUTINE B\n      X = 1.0\n      END\n\n\
  \      SUBROUTINE C\n      Y = 2.0\n      END\n"

let src_v2 =
  "      PROGRAM MAIN\n      CALL A\n      CALL C\n      END\n\n\
  \      SUBROUTINE A\n      CALL B\n      END\n\n\
  \      SUBROUTINE B\n      X = 3.0\n      END\n\n\
  \      SUBROUTINE C\n      Y = 2.0\n      END\n"

let src_v3 =
  "      PROGRAM MAIN\n      CALL A\n      CALL C\n      END\n\n\
  \      SUBROUTINE A\n      CALL BB\n      END\n\n\
  \      SUBROUTINE BB\n      X = 1.0\n      END\n\n\
  \      SUBROUTINE C\n      Y = 2.0\n      END\n"

let estimate ?memo src =
  let t = Pipeline.of_source ?memo src in
  Pipeline.estimate_totals ?memo
    ~totals:(Static_freq.program_totals t.Pipeline.analyses)
    t

let report est = Fmt.str "%a" Report.pp est

let find_proc src name =
  match Program.of_source_result src with
  | Error d -> Alcotest.failf "parse: %a" Diag.pp d
  | Ok prog -> Program.find prog name

(* ---------------- fingerprint semantics ---------------- *)

let rename_keeps_fingerprint () =
  let fp_b = Memo.body_fp (find_proc src_v1 "B") in
  let fp_bb = Memo.body_fp (find_proc src_v3 "BB") in
  check cs "renaming a procedure keeps its body fingerprint"
    (Printf.sprintf "%016Lx" fp_b)
    (Printf.sprintf "%016Lx" fp_bb);
  let fp_b2 = Memo.body_fp (find_proc src_v2 "B") in
  check Alcotest.bool "a body edit changes the fingerprint" true (fp_b <> fp_b2)

let body_edit_invalidates_caller_cone () =
  let memo = Memo.create () in
  let _ = estimate ~memo src_v1 in
  let s = Memo.stats memo in
  check ci "cold start: every procedure recomputes" 4 s.Memo.misses;
  check ci "cold start: no hits" 0 s.Memo.hits;
  Memo.reset_stats memo;
  (* A's lowered body is untouched by the edit to B, so any
     recomputation of A is pure callee-summary propagation *)
  check cs "A's body fingerprint is unchanged by the edit to B"
    (Printf.sprintf "%016Lx" (Memo.body_fp (find_proc src_v1 "A")))
    (Printf.sprintf "%016Lx" (Memo.body_fp (find_proc src_v2 "A")));
  let warm = estimate ~memo src_v2 in
  let s = Memo.stats memo in
  check ci "dirty cone is exactly B, A, MAIN" 3 s.Memo.misses;
  check ci "C (outside the cone) hits" 1 s.Memo.hits;
  check cs "memoized result is byte-identical to from-scratch"
    (report (estimate src_v2))
    (report warm)

let rename_hits_callers_miss () =
  let memo = Memo.create () in
  let _ = estimate ~memo src_v1 in
  Memo.reset_stats memo;
  let warm = estimate ~memo src_v3 in
  let s = Memo.stats memo in
  (* BB's key equals B's (names are excluded), C is untouched; A's body
     now reads CALL BB so A and, through A's summary, MAIN recompute *)
  check ci "renamed leaf and untouched C hit" 2 s.Memo.hits;
  check ci "the renaming call site's cone recomputes" 2 s.Memo.misses;
  check cs "memoized rename result is byte-identical to from-scratch"
    (report (estimate src_v3))
    (report warm)

let analysis_layer_hits_on_unchanged_bodies () =
  let memo = Memo.create () in
  let _ = Pipeline.of_source ~memo src_v1 in
  let s = Memo.stats memo in
  check ci "cold: every ECFG/CDG/FCDG is built" 4 s.Memo.analysis_misses;
  Memo.reset_stats memo;
  let _ = Pipeline.of_source ~memo src_v2 in
  let s = Memo.stats memo in
  check ci "only the edited body rebuilds its analysis" 1 s.Memo.analysis_misses;
  check ci "unchanged bodies reuse theirs" 3 s.Memo.analysis_hits

(* ---------------- derived products: placement and report ---------------- *)

let plan_text t = Fmt.str "%a" S89_profiling.Placement.pp (Pipeline.plan t)

let placement_layer_replans_only_changed_bodies () =
  let memo = Memo.create () in
  let cold = plan_text (Pipeline.of_source ~memo src_v1) in
  let s = Memo.stats memo in
  check ci "cold: every procedure is planned" 4 s.Memo.placement_misses;
  check cs "memoized plan = plan without a memo" (plan_text (Pipeline.of_source src_v1))
    cold;
  Memo.reset_stats memo;
  let warm = plan_text (Pipeline.of_source ~memo src_v2) in
  let s = Memo.stats memo in
  check ci "only the edited body is re-planned" 1 s.Memo.placement_misses;
  check ci "unchanged bodies reuse their decisions" 3 s.Memo.placement_hits;
  check cs "memoized plan after an edit = plan without a memo"
    (plan_text (Pipeline.of_source src_v2))
    warm;
  Memo.reset_stats memo;
  (* the renamed BB reuses B's decisions under its new name *)
  let renamed = plan_text (Pipeline.of_source ~memo src_v3) in
  check ci "a rename re-plans only the renaming caller" 1
    (Memo.stats memo).Memo.placement_misses;
  check cs "memoized plan after a rename = plan without a memo"
    (plan_text (Pipeline.of_source src_v3))
    renamed

let rendered_cells (est : Interproc.t) =
  Hashtbl.fold
    (fun name (pe : Interproc.proc_est) acc ->
      let state =
        match pe.Interproc.rendered with
        | None -> "none"
        | Some cell -> (
            match Atomic.get cell with None -> "empty" | Some _ -> "filled")
      in
      (name ^ " " ^ state) :: acc)
    est.Interproc.per_proc []
  |> List.sort compare

let report_bodies_cached_only_under_a_memo () =
  let plain = estimate src_v1 in
  let text = report plain in
  check csl "estimates made without a memo keep no rendered copy"
    [ "A none"; "B none"; "C none"; "MAIN none" ]
    (rendered_cells plain);
  let memo = Memo.create () in
  let memod = estimate ~memo src_v1 in
  check csl "a memo-held estimate starts with an empty cell"
    [ "A empty"; "B empty"; "C empty"; "MAIN empty" ]
    (rendered_cells memod);
  check cs "first render = render without a memo" text (report memod);
  check csl "the first render fills every cell"
    [ "A filled"; "B filled"; "C filled"; "MAIN filled" ]
    (rendered_cells memod);
  check cs "second render = render without a memo" text (report memod);
  (* BB hits B's entry: its body comes from B's cell, its header from
     the new name *)
  let renamed = estimate ~memo src_v3 in
  check csl "the hit shares the filled cell, the cone's misses start empty"
    [ "A empty"; "BB filled"; "C filled"; "MAIN empty" ]
    (rendered_cells renamed);
  check csl "entries superseded under their name drop their lines"
    [ "A empty"; "B filled"; "C filled"; "MAIN empty" ]
    (rendered_cells memod);
  check cs "renamed: memoized report = report without a memo"
    (report (estimate src_v3))
    (report renamed)

(* ---------------- warm-start summary validation ---------------- *)

let warm_summaries_confirm_and_mismatch () =
  let memo = Memo.create () in
  let _ = estimate ~memo src_v1 in
  let persisted = Memo.drain_summaries memo in
  check ci "one summary per procedure" 4 (List.length persisted);
  (* a faithful reload: every recomputation confirms its summary *)
  let diags = ref [] in
  let m2 = Memo.create ~on_diag:(fun d -> diags := d :: !diags) () in
  List.iter
    (fun (fp, name, time, var) -> Memo.load_summary m2 ~fp ~name ~time ~var)
    persisted;
  let _ = estimate ~memo:m2 src_v1 in
  check ci "all recomputations confirmed" 4 (Memo.stats m2).Memo.warm_confirmed;
  check ci "no mismatches" 0 (Memo.stats m2).Memo.warm_mismatches;
  check ci "nothing new to persist" 0 (List.length (Memo.drain_summaries m2));
  check csl "no diagnostics" [] (List.map (fun d -> d.Diag.code) !diags);
  (* a corrupted reload: every recomputation raises MEMO002 *)
  let diags = ref [] in
  let m3 = Memo.create ~on_diag:(fun d -> diags := d :: !diags) () in
  List.iter
    (fun (fp, name, time, var) ->
      Memo.load_summary m3 ~fp ~name ~time:(time +. 1.0) ~var)
    persisted;
  let _ = estimate ~memo:m3 src_v1 in
  check ci "every stale summary is a mismatch" 4
    (Memo.stats m3).Memo.warm_mismatches;
  check csl "each mismatch is a MEMO002" [ "MEMO002"; "MEMO002"; "MEMO002"; "MEMO002" ]
    (List.map (fun d -> d.Diag.code) !diags);
  check ci "fresh results are re-persisted" 4
    (List.length (Memo.drain_summaries m3))

let conflicting_loads_raise_memo001 () =
  let diags = ref [] in
  let m = Memo.create ~on_diag:(fun d -> diags := d :: !diags) () in
  Memo.load_summary m ~fp:42L ~name:"P" ~time:10.0 ~var:1.0;
  Memo.load_summary m ~fp:42L ~name:"P" ~time:10.0 ~var:1.0;
  check csl "an identical reload is silent" []
    (List.map (fun d -> d.Diag.code) !diags);
  Memo.load_summary m ~fp:42L ~name:"Q" ~time:11.0 ~var:1.0;
  check csl "a conflicting reload is a MEMO001" [ "MEMO001" ]
    (List.map (fun d -> d.Diag.code) !diags)

(* ---------------- the store's memo record family ---------------- *)

let memo_records_roundtrip_and_compact () =
  with_tmp_dir @@ fun dir ->
  let s = Store.open_ ~fsync:false ~dir () in
  Store.append_memo s ~fp:1L ~name:"A" ~time:10.5 ~var:0.25;
  Store.append_memo s ~fp:2L ~name:"B" ~time:20.0 ~var:2.0;
  let before = Store.wal_records s in
  Store.append_memo s ~fp:1L ~name:"A" ~time:10.5 ~var:0.25;
  check ci "an identical re-append is a no-op" before (Store.wal_records s);
  Store.append_memo s ~fp:1L ~name:"A" ~time:99.0 ~var:9.0;
  Store.close s;
  let s2 = Store.open_ ~fsync:false ~dir () in
  check csl "last write per fingerprint wins, id order"
    [ "2 B 0x1.4p+4 0x1p+1"; "1 A 0x1.8cp+6 0x1.2p+3" ]
    (List.map
       (fun (fp, n, t, v) -> Printf.sprintf "%Ld %s %h %h" fp n t v)
       (Store.memos s2));
  Store.compact s2;
  Store.close s2;
  let s3 = Store.open_ ~fsync:false ~dir () in
  check ci "records survive compaction into the new epoch" 2
    (List.length (Store.memos s3));
  check Alcotest.bool "compaction bumped the epoch" true (Store.epoch s3 > 0);
  Store.close s3

let torn_memo_record_recovers () =
  with_tmp_dir @@ fun dir ->
  let s = Store.open_ ~fsync:false ~dir () in
  Store.append_memo s ~fp:1L ~name:"A" ~time:10.0 ~var:1.5;
  Store.append_memo s ~fp:2L ~name:"B" ~time:20.0 ~var:2.5;
  (match
     Fault.with_spec (Some (spec_of "wal_torn:1.0,seed:7")) (fun () ->
         Store.append_memo s ~fp:3L ~name:"C" ~time:30.0 ~var:3.5)
   with
  | () -> Alcotest.fail "expected the injected torn write to raise"
  | exception Fault.Injected _ -> ());
  Store.close s;
  (* the torn memo record rides the existing longest-valid-prefix path:
     DB002, never Corrupt, and the intact prefix is fully recovered *)
  let s2 = Store.open_ ~fsync:false ~dir () in
  check csl "recovery reports exactly one DB002" [ "DB002" ]
    (List.map (fun d -> d.Diag.code) (Store.recovery_diags s2));
  check csl "the valid prefix survives" [ "A"; "B" ]
    (List.map (fun (_, n, _, _) -> n) (Store.memos s2));
  Store.append_memo s2 ~fp:3L ~name:"C" ~time:30.0 ~var:3.5;
  check ci "appends land cleanly after recovery" 3
    (List.length (Store.memos s2));
  Store.close s2

(* ---------------- edit-stream replay ---------------- *)

(* Two seeded edit streams over generated programs (48 procedures of
   8 statements with fan-out 12, and 96 of 4 with fan-out 24), each
   edit a constant change in one procedure.  One memo, primed on the
   unedited program, serves every re-analysis, placement included; its
   exact hit and miss counts are pinned (hit rates 92% and 96%), each
   edit re-builds, re-plans and re-emits VM code for exactly its one
   changed body, and the
   final program's memoized plan and report must equal the from-scratch
   ones byte for byte. *)
let edit_stream_hits () =
  List.iter
    (fun (procs, size, fan, edits, hits, misses, layer_hits) ->
      let consts = Array.make procs 1 in
      let parse () =
        Program.of_source (Gen_prog.gen_incremental_source ~size ~fan ~consts 77)
      in
      let plans = ref [] in
      let analyze ?memo prog =
        let t = Pipeline.create ?memo prog in
        let plan = Pipeline.plan t in
        plans := Fmt.str "%a" Placement.pp plan :: !plans;
        ignore
          (Interp.create
             ?cache:(Option.map Memo.vm_cache memo)
             ~config:{ Interp.default_config with instr = Placement.probes plan }
             prog);
        Pipeline.estimate_totals ?memo t ~totals:(Pipeline.static_totals ?memo t)
      in
      let rng = S89_util.Prng.create ~seed:0xed17 in
      let memo = Memo.create () in
      ignore (analyze ~memo (parse ()));
      Memo.reset_stats memo;
      for _ = 1 to edits do
        let j = S89_util.Prng.int rng procs in
        consts.(j) <- consts.(j) + 1;
        ignore (analyze ~memo (parse ()))
      done;
      let st = Memo.stats memo in
      let label = Printf.sprintf "%d procedures" procs in
      check ci (label ^ ": hits") hits st.Memo.hits;
      check ci (label ^ ": misses") misses st.Memo.misses;
      check ci (label ^ ": analysis hits") layer_hits st.Memo.analysis_hits;
      check ci (label ^ ": analysis misses") edits st.Memo.analysis_misses;
      check ci (label ^ ": placement hits") layer_hits st.Memo.placement_hits;
      check ci (label ^ ": placement misses, one per changed body") edits
        st.Memo.placement_misses;
      check ci (label ^ ": code hits") layer_hits st.Memo.code_hits;
      check ci (label ^ ": code misses, one per changed body") edits
        st.Memo.code_misses;
      let final = parse () in
      check cs (label ^ ": memoized = from scratch") (report (analyze final))
        (report (analyze ~memo final));
      match !plans with
      | memoized :: scratch :: _ ->
          check cs (label ^ ": memoized plan = from scratch") scratch memoized
      | _ -> assert false)
    [ (48, 8, 12, 10, 458, 42, 490); (96, 4, 24, 12, 1134, 42, 1164) ]

(* ---------------- the VM code layer ---------------- *)

(* everything a run can observe: totals, output, counters, and per
   procedure its invocations, node executions and edge traversals *)
let vm_observation (prog : Program.t) vm =
  let b = Buffer.create 1024 in
  (match Interp.run_result vm with
  | Ok _ -> Buffer.add_string b "ok"
  | Error d -> Buffer.add_string b (Fmt.str "%a" Diag.pp d));
  Printf.bprintf b "\ncycles %d steps %d fallbacks %d output %S counters [%s]\n"
    (Interp.cycles vm) (Interp.steps vm) (Interp.fallback_execs vm) (Interp.output vm)
    (String.concat ";" (Array.to_list (Array.map string_of_int (Interp.counters vm))));
  List.iter
    (fun (p : Program.proc) ->
      let name = p.Program.name in
      let g = S89_cfg.Cfg.graph p.Program.cfg in
      Printf.bprintf b "%s %d:" name (Interp.invocations vm name);
      S89_cfg.Cfg.iter_nodes
        (fun u ->
          Printf.bprintf b " %d" (Interp.node_execs vm name u);
          for k = g.S89_graph.Digraph.succ_off.(u) to g.S89_graph.Digraph.succ_off.(u + 1) - 1 do
            let l = g.S89_graph.Digraph.succ_lbl.(k) in
            Printf.bprintf b " %s=%d" (S89_cfg.Label.to_string l)
              (Interp.edge_count vm name u l)
          done)
        p.Program.cfg;
      Buffer.add_char b '\n')
    (Program.procs prog);
  Buffer.contents b

(* HALF's dummy X is typed by its one call site: REAL while MAIN passes
   an element of a REAL array, INTEGER once it passes an element of an
   INTEGER array (elements are bound by reference, never coerced).
   X / 2 * 2 is 7 in REAL arithmetic and 6 in INTEGER, so code emitted
   for the old type prints the wrong value. *)
let dummy_src actual =
  Printf.sprintf
    "      PROGRAM MAIN\n      REAL A(2)\n      INTEGER IA(2)\n      A(1) = 7.0\n\
    \      IA(1) = 7\n      CALL HALF(%s(1))\n      PRINT *, A(1), IA(1)\n      END\n\n\
    \      SUBROUTINE HALF(X)\n      X = X / 2 * 2\n      END\n"
    actual

(* MAIN calls SHOW; [extra] adds a FUNCTION and a call to it *)
let added_src ~extra =
  "      PROGRAM MAIN\n      REAL X, Y\n      X = -2.5\n      Y = ABS(X) + 1.0\n"
  ^ (if extra = "" then "" else Printf.sprintf "      Y = Y + %s(X)\n" extra)
  ^ "      CALL SHOW(Y)\n      END\n\n      SUBROUTINE SHOW(Z)\n      PRINT *, Z\n      END\n"
  ^
  if extra = "" then ""
  else Printf.sprintf "\n      REAL FUNCTION %s(Q)\n      %s = Q * 10.0\n      END\n" extra extra

(* A VM built through the memo's code layer observes exactly what a
   cold [Interp.create] does, across every input of the code key: a
   caller edit that changes a dummy's type, placement with and without
   second moments, both cost models and all three backends on one memo,
   a rename, and an added procedure. *)
let vm_code_layer_equals_cold () =
  let memo = Memo.create () in
  let cache = Memo.vm_cache memo in
  let misses = ref 0 in
  let same ?(second_moments = true) ?(cost_model = Cost_model.optimized)
      ?(backend = Interp.Bytecode) label src =
    let t = Pipeline.of_source ~memo src in
    let instr = Placement.probes (Pipeline.plan ~second_moments t) in
    let config = { Interp.default_config with cost_model; instr; backend; seed = 3 } in
    let prog = t.Pipeline.prog in
    let cold = vm_observation prog (Interp.create ~config prog) in
    let before = (Memo.stats memo).Memo.code_misses in
    check cs label cold (vm_observation prog (Interp.create ~cache ~config prog));
    misses := (Memo.stats memo).Memo.code_misses - before
  in
  same "dummy typed REAL" (dummy_src "A");
  check ci "cold: both procedures are emitted" 2 !misses;
  same "after the caller edit, dummy typed INTEGER" (dummy_src "IA");
  check ci "the edited caller and the retyped callee re-emit" 2 !misses;
  let loops = S89_workloads.Demos.nested_random () in
  same ~second_moments:false "placement without second moments" loops;
  same ~second_moments:true "placement with second moments" loops;
  check Alcotest.bool "second-moment probes change the code key" true (!misses > 0);
  same ~cost_model:Cost_model.unoptimized "the other cost model" loops;
  List.iter
    (fun (name, backend) -> same ~backend ("backend " ^ name) loops)
    [ ("tree", Interp.Tree); ("compiled", Interp.Compiled); ("bytecode", Interp.Bytecode) ];
  same "before the rename" src_v1;
  same "a rename-only edit" src_v3;
  check ci "only the renaming caller re-emits" 1 !misses;
  same "before the added procedure" (added_src ~extra:"");
  same "an added user procedure" (added_src ~extra:"TENX");
  check ci "the new procedure and its caller are emitted" 2 !misses;
  (* a procedure named like an intrinsic never reaches the VM: the
     frontend rejects it, with a memo as without *)
  match Program.of_source_result (added_src ~extra:"ABS") with
  | Error d -> check cs "a unit named ABS is a SEM001" "SEM001" d.Diag.code
  | Ok _ -> Alcotest.fail "a program unit named like an intrinsic was accepted"

(* [Optimize.program] rewrites every CFG and keeps every unit's [env]:
   a memo primed on the source form must not hand the optimized form
   its analyses, plans or code.  Through one memo, each form of LOOPS
   runs exactly what it runs without one. *)
let optimized_form_keyed_apart () =
  let prog = Program.of_source S89_workloads.Livermore.source in
  let opt = S89_vm.Optimize.program prog in
  let memo = Memo.create () in
  let run ?memo p =
    let vm = Pipeline.run_once (Pipeline.create ?memo p) in
    (Interp.steps vm, Interp.cycles vm)
  in
  let source = (632_502, 4_650_152) and optimized = (553_302, 4_518_409) in
  let cpair = Alcotest.(pair int int) in
  check cpair "source form, without a memo" source (run prog);
  check cpair "optimized form, without a memo" optimized (run opt);
  check cpair "source form primes the memo" source (run ~memo prog);
  Memo.reset_stats memo;
  check cpair "optimized form through the primed memo" optimized (run ~memo opt);
  let st = Memo.stats memo and n = Array.length opt.Program.procs in
  check ci "every optimized body is analyzed afresh" n st.Memo.analysis_misses;
  check ci "and emitted afresh" n st.Memo.code_misses;
  check cpair "source form again" source (run ~memo prog)

(* ---------------- one body version per procedure ---------------- *)

(* Four blocks of `ptranc analyze` edits, each block changing every
   procedure's constant once: the memo drops what the edits supersede,
   so after block 4 it holds what it held after block 1. *)
let memo_size_is_flat_across_edit_blocks () =
  let procs = 12 in
  let consts = Array.init procs (fun i -> i + 1) in
  let memo = Memo.create () in
  let analyze () =
    let t =
      Pipeline.of_source ~memo (Gen_prog.gen_incremental_source ~size:4 ~consts 5)
    in
    let p = Pipeline.profile_smart ~runs:1 t in
    ignore
      (Pipeline.estimate_totals ~memo t
         ~totals:(Database.proc_totals p.Pipeline.database))
  in
  analyze ();
  let words = Array.make 5 0 in
  for block = 1 to 4 do
    for j = 0 to procs - 1 do
      consts.(j) <- consts.(j) + 1;
      analyze ()
    done;
    words.(block) <- Obj.reachable_words (Obj.repr memo)
  done;
  if float_of_int words.(4) > 1.1 *. float_of_int words.(1) then
    Alcotest.failf "memo grew from %d words after block 1 to %d after block 4" words.(1)
      words.(4)

(* ---------------- TOTAL_FREQ fingerprints ---------------- *)

(* The formula [Memo.totals_fp] had when memo records were first
   persisted: records keyed by it must keep matching. *)
let printf_totals_fp (tbl : (S89_profiling.Analysis.cond, int) Hashtbl.t) =
  let rows =
    Hashtbl.fold
      (fun (u, l) c acc ->
        if c = 0 then acc
        else Printf.sprintf "%d %s %d" u (S89_cfg.Label.to_string l) c :: acc)
      tbl []
  in
  S89_util.Codec.fnv64 (Digest.string (String.concat "\n" (List.sort compare rows)))

let totals_fp_values_unchanged () =
  let n = ref 0 in
  let compare_all src =
    let t = Pipeline.of_source src in
    let p = Pipeline.profile_smart ~runs:1 t in
    let statics = S89_core.Static_freq.program_totals t.Pipeline.analyses in
    List.iter
      (fun (pr : Program.proc) ->
        let name = pr.Program.name in
        let profiled = Database.proc_totals p.Pipeline.database name in
        (* explicit zeros are skipped like absent entries *)
        let zeros = Hashtbl.copy profiled in
        Hashtbl.replace zeros (0, S89_cfg.Label.Pseudo 7) 0;
        List.iter
          (fun tbl ->
            incr n;
            check cs (name ^ " totals fingerprint")
              (Printf.sprintf "%016Lx" (printf_totals_fp tbl))
              (Printf.sprintf "%016Lx" (Memo.totals_fp tbl)))
          [ profiled; statics name; zeros ])
      (Program.procs t.Pipeline.prog)
  in
  List.iter
    (fun seed ->
      compare_all
        (Gen_prog.gen_incremental_source ~size:4
           ~consts:(Array.init 10 (fun i -> (i * seed) + 1))
           seed))
    [ 3; 11 ];
  compare_all S89_workloads.Livermore.source;
  compare_all (S89_workloads.Simple_code.source ());
  check Alcotest.bool "tables compared" true (!n > 100)

let suite =
  [
    Alcotest.test_case "rename keeps the body fingerprint" `Quick
      rename_keeps_fingerprint;
    Alcotest.test_case "body edit invalidates exactly the caller cone" `Quick
      body_edit_invalidates_caller_cone;
    Alcotest.test_case "rename: leaf hits, call-site cone misses" `Quick
      rename_hits_callers_miss;
    Alcotest.test_case "analysis layer rebuilds only changed bodies" `Quick
      analysis_layer_hits_on_unchanged_bodies;
    Alcotest.test_case "placement layer re-plans only changed bodies" `Quick
      placement_layer_replans_only_changed_bodies;
    Alcotest.test_case "report bodies are cached only under a memo" `Quick
      report_bodies_cached_only_under_a_memo;
    Alcotest.test_case "warm summaries confirm; stale ones raise MEMO002" `Quick
      warm_summaries_confirm_and_mismatch;
    Alcotest.test_case "conflicting summary loads raise MEMO001" `Quick
      conflicting_loads_raise_memo001;
    Alcotest.test_case "memo records round-trip and survive compaction" `Quick
      memo_records_roundtrip_and_compact;
    Alcotest.test_case "torn memo record recovers via the WAL prefix" `Quick
      torn_memo_record_recovers;
    Alcotest.test_case "edit streams: pinned hit counts, memoized = scratch" `Quick
      edit_stream_hits;
    Alcotest.test_case "VM code layer: warm memo = cold create" `Quick
      vm_code_layer_equals_cold;
    Alcotest.test_case "memo size is flat across edit blocks" `Quick
      memo_size_is_flat_across_edit_blocks;
    Alcotest.test_case "totals fingerprints keep their values" `Quick
      totals_fp_values_unchanged;
    Alcotest.test_case "optimized form is keyed apart from its source" `Quick
      optimized_form_keyed_apart;
  ]
