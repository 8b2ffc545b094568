(* Tests for s89_profiling: basic blocks, condition sites, FREQ, smart and
   naive counter placement, reconstruction (the §3 correctness property:
   an optimized profile loses no information), and the database. *)

module Program = S89_frontend.Program
module Ir = S89_frontend.Ir
module Interp = S89_vm.Interp
module Cfg = S89_cfg.Cfg
module Label = S89_cfg.Label
module Ecfg = S89_cfg.Ecfg
open S89_profiling

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cf = Alcotest.float 1e-9

let fig1 () = Program.of_source (S89_workloads.Demos.fig1 ())

(* ---------------- Blocks ---------------- *)

let blocks_fig1 () =
  let p = Program.find (fig1 ()) "FIG1" in
  let b = Blocks.compute p.Program.cfg in
  (* ENTRY,M=,N= | IF(M) | IF(NLT) | IF(NGE) | CALL | CONT,STOP *)
  check ci "six blocks" 6 (Blocks.num_blocks b);
  check ci "entry chain" 3 (List.length (Blocks.members b (Blocks.block_of b 0)));
  check ci "same block" (Blocks.block_of b 0) (Blocks.block_of b 2);
  check cb "branch alone" true (Blocks.members b (Blocks.block_of b 3) = [ 3 ])

let blocks_partition () =
  List.iter
    (fun src ->
      let prog = Program.of_source src in
      List.iter
        (fun (p : Program.proc) ->
          let b = Blocks.compute p.Program.cfg in
          let seen = Array.make (Cfg.num_nodes p.Program.cfg) 0 in
          for blk = 0 to Blocks.num_blocks b - 1 do
            check ci "leader starts its block" (Blocks.leader b blk)
              (List.hd (Blocks.members b blk));
            List.iter
              (fun n ->
                check ci "block_of consistent" blk (Blocks.block_of b n);
                seen.(n) <- seen.(n) + 1)
              (Blocks.members b blk)
          done;
          Array.iter (fun c -> check ci "each node in exactly one block" 1 c) seen)
        (Program.procs prog))
    [ S89_workloads.Demos.fig1 (); S89_workloads.Demos.branchy ();
      S89_workloads.Demos.computed_goto () ]

(* ---------------- Analysis sites ---------------- *)

let sites_fig1 () =
  let a = Analysis.of_proc (Program.find (fig1 ()) "FIG1") in
  let ecfg = a.Analysis.ecfg in
  let start = Ecfg.start ecfg in
  let ph = Ecfg.preheader_of_header ecfg 3 in
  check cb "branch -> edge site" true
    (Analysis.site_of_condition a (3, Label.T) = Analysis.Edge_site (3, Label.T));
  check cb "preheader -> node site (header)" true
    (Analysis.site_of_condition a (ph, Ecfg.body_label) = Analysis.Node_site 3);
  check cb "start -> invocation site" true
    (Analysis.site_of_condition a (start, Label.U) = Analysis.Invocation_site);
  (* pseudo conditions never fire *)
  List.iter
    (fun ((u, l) as c) ->
      if Label.is_pseudo l then begin
        ignore u;
        check cb "pseudo -> never" true (Analysis.site_of_condition a c = Analysis.Never)
      end)
    a.Analysis.conditions

let exit_free_detection () =
  let prog =
    Program.of_source
      "      PROGRAM T\n\
       \      DO 10 I = 1, 10\n\
       \        X = X + 1.0\n\
       10    CONTINUE\n\
       \      DO 20 J = 1, 10\n\
       \        IF (X .GT. 5.0) GOTO 30\n\
       \        X = X + 1.0\n\
       20    CONTINUE\n\
       30    CONTINUE\n\
       \      END\n"
  in
  let a = Analysis.of_proc (Program.find prog "T") in
  let exit_free = Analysis.exit_free_do_headers a in
  (* exactly one of the two DO loops has no body exit *)
  check ci "one exit-free DO" 1 (List.length exit_free);
  let h = List.hd exit_free in
  match Analysis.do_meta a h with
  | Some meta -> check cb "the I loop" true (meta.Ir.do_var = "I")
  | None -> Alcotest.fail "do_meta missing"

(* ---------------- Freq ---------------- *)

let freq_paper_example () =
  let a = Analysis.of_proc (Program.find (fig1 ()) "FIG1") in
  let ecfg = a.Analysis.ecfg in
  let start = Ecfg.start ecfg in
  let ph = Ecfg.preheader_of_header ecfg 3 in
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (k, v) -> Hashtbl.replace totals k v)
    [ ((start, Label.U), 1); ((ph, Label.U), 10); ((3, Label.T), 5); ((3, Label.F), 5);
      ((4, Label.T), 1); ((4, Label.F), 4); ((5, Label.T), 0); ((5, Label.F), 5) ];
  let f = Freq.compute a totals in
  check ci "invocations" 1 (Freq.invocations f);
  check cf "loop freq 10" 10.0 (Freq.freq f (ph, Label.U));
  check cf "branch prob 0.5" 0.5 (Freq.freq f (3, Label.T));
  check cf "exit prob 0.2" 0.2 (Freq.freq f (4, Label.T));
  check cf "node freq of header" 10.0 (Freq.node_freq f 3);
  check cf "node freq of call" 9.0 (Freq.node_freq f 6);
  check cf "never-taken freq" 0.0 (Freq.freq f (5, Label.T));
  (* division-by-zero rule: a condition of a never-executed node *)
  check cf "start node freq" 1.0 (Freq.node_freq f start)

let freq_zero_division_rule () =
  let a = Analysis.of_proc (Program.find (fig1 ()) "FIG1") in
  (* all-zero profile: every FREQ must be 0, no exceptions *)
  let totals = Hashtbl.create 4 in
  let f = Freq.compute a totals in
  List.iter (fun c -> check cf "all zero" 0.0 (Freq.freq f c)) a.Analysis.conditions

let freq_inconsistent () =
  let a = Analysis.of_proc (Program.find (fig1 ()) "FIG1") in
  let totals = Hashtbl.create 4 in
  (* a positive count on a node that never executes *)
  Hashtbl.replace totals (3, Label.T) 5;
  match Freq.compute a totals with
  | exception Freq.Inconsistent _ -> ()
  | _ -> Alcotest.fail "expected Inconsistent"

(* ---------------- Placement ---------------- *)

let placement_counts_fig1 () =
  let prog = fig1 () in
  let analyses = Analysis.of_program prog in
  let plan = Placement.plan analyses in
  let naive = Naive.plan prog in
  (* regression: values validated in depth during development *)
  check ci "smart counters" 6 (Placement.n_counters plan);
  check ci "naive counters" 9 (Naive.n_counters naive);
  let pp = Placement.proc_plan plan "FIG1" in
  check cb "measured + derived = conditions" true
    (List.length pp.Placement.measured + List.length pp.Placement.derived
    = List.length
        (List.filter
           (fun c ->
             Analysis.site_of_condition pp.Placement.analysis c <> Analysis.Never)
           pp.Placement.analysis.Analysis.conditions))

let placement_opt_monotonic () =
  List.iter
    (fun src ->
      let prog = Program.of_source src in
      let analyses = Analysis.of_program prog in
      let vm = Interp.create prog in
      ignore (Interp.run vm);
      let p1 = Placement.plan ~opt2:false ~opt3:false analyses in
      let p12 = Placement.plan ~opt2:true ~opt3:false analyses in
      let p123 = Placement.plan ~opt2:true ~opt3:true analyses in
      check cb "opt2 reduces counters" true
        (Placement.n_counters p12 <= Placement.n_counters p1);
      check cb "opt3 keeps counters bounded" true
        (Placement.n_counters p123 <= Placement.n_counters p12);
      (* opt3's real payoff is dynamic: fewer counter updates at run time *)
      check cb "opt2 reduces updates" true
        (Placement.dynamic_updates p12 vm <= Placement.dynamic_updates p1 vm);
      check cb "opt3 reduces updates" true
        (Placement.dynamic_updates p123 vm <= Placement.dynamic_updates p12 vm))
    [ S89_workloads.Demos.fig1 (); S89_workloads.Demos.branchy ();
      S89_workloads.Demos.nested_random (); S89_workloads.Livermore.source ]

let placement_static_do_needs_nothing () =
  (* a constant-trip exit-free DO loop must need no loop counters at all *)
  let prog =
    Program.of_source
      "      PROGRAM T\n      DO 10 I = 1, 10\n        X = X + 1.0\n10    CONTINUE\n      END\n"
  in
  let plan = Placement.plan (Analysis.of_program prog) in
  (* only the invocation counter remains *)
  check ci "one counter" 1 (Placement.n_counters plan)

(* the central §3 property: reconstruct(smart counters) = oracle counts *)
let roundtrip prog seed =
  let analyses = Analysis.of_program prog in
  let plan = Placement.plan analyses in
  let config = { Interp.default_config with instr = Placement.probes plan; seed } in
  let vm = Interp.create ~config prog in
  ignore (Interp.run vm);
  let totals = Reconstruct.totals plan ~counters:(Interp.counters vm) in
  Hashtbl.iter
    (fun pname (a : Analysis.t) ->
      let rt = Hashtbl.find totals pname in
      List.iter
        (fun c ->
          let oracle = Analysis.oracle_total a vm c in
          let recon = match Hashtbl.find_opt rt c with Some v -> v | None -> min_int in
          if oracle <> recon then
            Alcotest.failf "%s (%d,%s): oracle=%d reconstructed=%d" pname (fst c)
              (Label.to_string (snd c))
              oracle recon)
        a.Analysis.conditions)
    analyses

let reconstruction_demos () =
  List.iter
    (fun src -> roundtrip (Program.of_source src) 3)
    [ S89_workloads.Demos.fig1 (); S89_workloads.Demos.branchy ();
      S89_workloads.Demos.chunky (); S89_workloads.Demos.nested_random ();
      S89_workloads.Demos.computed_goto (); S89_workloads.Demos.irreducible ();
      S89_workloads.Demos.recursive (); S89_workloads.Demos.sort ();
      S89_workloads.Demos.sieve (); S89_workloads.Linpack_like.source ();
      S89_workloads.Livermore.source;
      S89_workloads.Simple_code.source ~n:16 ~cycles:2 () ]

let reconstruction_random_prop =
  QCheck.Test.make ~count:60 ~name:"reconstruct(smart) = oracle (random programs)"
    QCheck.(pair (int_range 0 100000) (int_range 0 1000))
    (fun (seed, vmseed) ->
      roundtrip (Gen_prog.gen_program seed) vmseed;
      true)

(* ablated placements must reconstruct too *)
let reconstruction_ablations () =
  let prog = Program.of_source S89_workloads.Livermore.source in
  let analyses = Analysis.of_program prog in
  List.iter
    (fun (opt2, opt3) ->
      let plan = Placement.plan ~opt2 ~opt3 analyses in
      let config =
        { Interp.default_config with instr = Placement.probes plan; seed = 5 }
      in
      let vm = Interp.create ~config prog in
      ignore (Interp.run vm);
      let totals = Reconstruct.totals plan ~counters:(Interp.counters vm) in
      Hashtbl.iter
        (fun pname (a : Analysis.t) ->
          let rt = Hashtbl.find totals pname in
          List.iter
            (fun c ->
              if Hashtbl.find_opt rt c <> Some (Analysis.oracle_total a vm c) then
                Alcotest.failf "ablation (%b,%b) mismatch in %s" opt2 opt3 pname)
            a.Analysis.conditions)
        analyses)
    [ (false, false); (true, false); (false, true) ]

let smart_cheaper_than_naive () =
  List.iter
    (fun src ->
      let prog = Program.of_source src in
      let analyses = Analysis.of_program prog in
      let plan = Placement.plan analyses in
      let naive = Naive.plan prog in
      let vm = Interp.create prog in
      ignore (Interp.run vm);
      check cb "smart updates <= naive updates" true
        (Placement.dynamic_updates plan vm <= Naive.dynamic_updates naive prog vm))
    [ S89_workloads.Demos.fig1 (); S89_workloads.Demos.branchy ();
      S89_workloads.Livermore.source;
      S89_workloads.Simple_code.source ~n:16 ~cycles:2 () ]

(* naive block counters equal the leader's execution count *)
let naive_counts_blocks () =
  let prog = Program.of_source (S89_workloads.Demos.branchy ()) in
  let naive = Naive.plan prog in
  let config = { Interp.default_config with instr = Naive.probes naive; seed = 9 } in
  let vm = Interp.create ~config prog in
  ignore (Interp.run vm);
  let counters = Interp.counters vm in
  List.iter
    (fun (p : Program.proc) ->
      let pp = Naive.proc_plan naive p.Program.name in
      Array.iteri
        (fun b counter ->
          match counter with
          | Naive.Per_execution id ->
              check ci "block counter = leader execs"
                (Interp.node_execs vm p.Program.name (Blocks.leader pp.Naive.blocks b))
                counters.(id)
          | Naive.Bulk_at_entry id ->
              (* total adds = body executions *)
              let body_leader = Blocks.leader pp.Naive.blocks b in
              check ci "bulk counter = body execs"
                (Interp.node_execs vm p.Program.name body_leader)
                counters.(id)
          | Naive.Static _ -> ())
        pp.Naive.counters)
    (Program.procs prog)

(* second moments: constant inner trip count means E[F²] = (k+1)² *)
let second_moments_constant () =
  let prog =
    Program.of_source
      "      PROGRAM T\n      DO 20 I = 1, 5\n      DO 10 J = 1, 7\n      X = X + 1.0\n10    CONTINUE\n20    CONTINUE\n      END\n"
  in
  let analyses = Analysis.of_program prog in
  let plan = Placement.plan ~second_moments:true analyses in
  let config = { Interp.default_config with instr = Placement.probes plan } in
  let vm = Interp.create ~config prog in
  ignore (Interp.run vm);
  let counters = Interp.counters vm in
  let totals = Reconstruct.totals plan ~counters in
  let tot = Hashtbl.find totals "T" in
  let sms = Reconstruct.loop_second_moments plan ~counters "T" tot in
  check cb "some loops tracked" true (sms <> []);
  List.iter
    (fun (_, ef2) ->
      check cb "E[F^2] is a square of trips+1" true (ef2 = 64.0 || ef2 = 36.0))
    sms

(* variable trip counts: E[F²] ≥ E[F]² with equality iff deterministic *)
let second_moments_variable () =
  let prog = Program.of_source (S89_workloads.Demos.nested_random ()) in
  let analyses = Analysis.of_program prog in
  let plan = Placement.plan ~second_moments:true analyses in
  let config = { Interp.default_config with instr = Placement.probes plan; seed = 3 } in
  let vm = Interp.create ~config prog in
  ignore (Interp.run vm);
  let counters = Interp.counters vm in
  let totals = Reconstruct.totals plan ~counters in
  let tot = Hashtbl.find totals "NESTED" in
  let f = Freq.compute (Hashtbl.find analyses "NESTED") tot in
  let a = Hashtbl.find analyses "NESTED" in
  List.iter
    (fun (h, ef2) ->
      let ph = Ecfg.preheader_of_header a.Analysis.ecfg h in
      let ef = Freq.freq f (ph, Ecfg.body_label) in
      check cb "E[F^2] >= E[F]^2" true (ef2 >= (ef *. ef) -. 1e-9))
    (Reconstruct.loop_second_moments plan ~counters "NESTED" tot)

(* ---------------- Database ---------------- *)

let database_accumulate_save_load () =
  let prog = Program.of_source (S89_workloads.Demos.branchy ()) in
  let analyses = Analysis.of_program prog in
  let db = Database.create () in
  let per_run_totals = ref [] in
  for seed = 1 to 3 do
    let vm = Interp.create ~config:{ Interp.default_config with seed } prog in
    ignore (Interp.run vm);
    let per_proc = Hashtbl.create 4 in
    Hashtbl.iter
      (fun name a -> Hashtbl.replace per_proc name (Analysis.oracle_totals a vm))
      analyses;
    per_run_totals := per_proc :: !per_run_totals;
    Database.accumulate db per_proc
  done;
  check ci "three runs" 3 (Database.runs db);
  (* sums equal element-wise sums *)
  let summed = Database.proc_totals db "BRANCHY" in
  Hashtbl.iter
    (fun c v ->
      let expected =
        List.fold_left
          (fun acc per_proc ->
            acc
            + (match Hashtbl.find_opt (Hashtbl.find per_proc "BRANCHY") c with
              | Some n -> n
              | None -> 0))
          0 !per_run_totals
      in
      check ci "summed" expected v)
    summed;
  (* save / load round-trip *)
  let path = Filename.temp_file "s89db" ".txt" in
  Database.save db path;
  let db2 = Database.load path in
  Sys.remove path;
  check ci "runs preserved" 3 (Database.runs db2);
  let reload = Database.proc_totals db2 "BRANCHY" in
  Hashtbl.iter
    (fun c v -> check ci "entry preserved" v (Hashtbl.find reload c))
    summed;
  (* merge doubles everything *)
  Database.merge ~into:db db2;
  check ci "merged runs" 6 (Database.runs db);
  Hashtbl.iter
    (fun c v -> check ci "merged sums" (2 * v) (Hashtbl.find (Database.proc_totals db "BRANCHY") c))
    summed

(* frequencies from sums over several runs are averages (§3: ratios) *)
let database_freq_from_sums () =
  let prog = Program.of_source (S89_workloads.Demos.fig1 ~m:5 ()) in
  let analyses = Analysis.of_program prog in
  let a = Hashtbl.find analyses "FIG1" in
  let db = Database.create () in
  for seed = 1 to 4 do
    let vm = Interp.create ~config:{ Interp.default_config with seed } prog in
    ignore (Interp.run vm);
    let per_proc = Hashtbl.create 4 in
    Hashtbl.iter
      (fun name a -> Hashtbl.replace per_proc name (Analysis.oracle_totals a vm))
      analyses;
    Database.accumulate db per_proc
  done;
  let f = Freq.compute a (Database.proc_totals db "FIG1") in
  check ci "four invocations" 4 (Freq.invocations f);
  (* FIG1 is deterministic: per-invocation frequencies match one run *)
  let vm = Interp.create prog in
  ignore (Interp.run vm);
  let f1 = Freq.compute a (Analysis.oracle_totals a vm) in
  List.iter
    (fun c -> check cf "same average freq" (Freq.freq f1 c) (Freq.freq f c))
    a.Analysis.conditions

let suite =
  [
    Alcotest.test_case "blocks: fig1" `Quick blocks_fig1;
    Alcotest.test_case "blocks: partition" `Quick blocks_partition;
    Alcotest.test_case "sites: fig1" `Quick sites_fig1;
    Alcotest.test_case "exit-free DO detection" `Quick exit_free_detection;
    Alcotest.test_case "freq: paper example" `Quick freq_paper_example;
    Alcotest.test_case "freq: zero-division rule" `Quick freq_zero_division_rule;
    Alcotest.test_case "freq: inconsistent totals" `Quick freq_inconsistent;
    Alcotest.test_case "placement: fig1 counts" `Quick placement_counts_fig1;
    Alcotest.test_case "placement: optimizations monotonic" `Quick placement_opt_monotonic;
    Alcotest.test_case "placement: static DO free" `Quick placement_static_do_needs_nothing;
    Alcotest.test_case "reconstruction: demos" `Slow reconstruction_demos;
    QCheck_alcotest.to_alcotest reconstruction_random_prop;
    Alcotest.test_case "reconstruction: ablations" `Slow reconstruction_ablations;
    Alcotest.test_case "smart cheaper than naive" `Slow smart_cheaper_than_naive;
    Alcotest.test_case "naive counts blocks" `Quick naive_counts_blocks;
    Alcotest.test_case "second moments: constant" `Quick second_moments_constant;
    Alcotest.test_case "second moments: variable" `Quick second_moments_variable;
    Alcotest.test_case "database: accumulate/save/load/merge" `Quick
      database_accumulate_save_load;
    Alcotest.test_case "database: freq from sums" `Quick database_freq_from_sums;
  ]

(* ---------------- the §3 conservation laws, from oracle counts ----------------
   These are the very equations the smart placement exploits; here they are
   verified directly against ground-truth counts on random programs. *)

let conservation_laws_prop =
  QCheck.Test.make ~count:40 ~name:"§3 conservation laws hold on oracle counts"
    QCheck.(pair (int_range 0 100000) (int_range 0 300))
    (fun (seed, vmseed) ->
      let prog = Gen_prog.gen_program seed in
      let vm = Interp.create ~config:{ Interp.default_config with seed = vmseed } prog in
      ignore (Interp.run vm);
      List.for_all
        (fun (p : S89_frontend.Program.proc) ->
          let a = Analysis.of_proc p in
          let ecfg = a.Analysis.ecfg in
          let totals = Analysis.oracle_totals a vm in
          let get c = match Hashtbl.find_opt totals c with Some v -> v | None -> 0 in
          let node_total x =
            match Reconstruct.node_total a totals x with Some v -> v | None -> -1
          in
          List.for_all
            (fun h ->
              let ph = Ecfg.preheader_of_header ecfg h in
              (* observation 1: Σ exits = preheader entries *)
              let exits =
                List.concat_map
                  (fun pe ->
                    List.filter_map
                      (fun (e : Label.t S89_graph.Digraph.edge) ->
                        if Label.is_pseudo e.label then None
                        else Some (e.src, e.label))
                      (S89_graph.Digraph.pred_edges (S89_cdg.Fcdg.graph a.Analysis.fcdg) pe))
                  (Ecfg.postexits_of_header ecfg h)
                |> List.sort_uniq compare
              in
              let law1 =
                List.fold_left (fun acc c -> acc + get c) 0 exits = node_total ph
              in
              (* observation 2: Σ latch-edge totals = header − preheader *)
              let latch_total =
                List.fold_left
                  (fun acc (e : Label.t S89_graph.Digraph.edge) ->
                    acc + Interp.edge_count vm p.S89_frontend.Program.name e.src e.label)
                  0 (Ecfg.latch_edges ecfg h)
              in
              let law2 = latch_total = get (ph, Ecfg.body_label) - node_total ph in
              law1 && law2)
            (Ecfg.headers ecfg))
        (S89_frontend.Program.procs prog))

(* node-balance law: for a branch node with all labels as conditions,
   Σ label totals = node executions *)
let node_balance_prop =
  QCheck.Test.make ~count:40 ~name:"§3 node balance holds on oracle counts"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let prog = Gen_prog.gen_program seed in
      let vm = Interp.create prog in
      ignore (Interp.run vm);
      List.for_all
        (fun (p : S89_frontend.Program.proc) ->
          let a = Analysis.of_proc p in
          let totals = Analysis.oracle_totals a vm in
          let conds = a.Analysis.conditions in
          let ok = ref true in
          Cfg.iter_nodes
            (fun u ->
              let labels = Cfg.out_labels p.S89_frontend.Program.cfg u in
              if
                List.length labels >= 2
                && List.for_all (fun l -> List.mem (u, l) conds) labels
              then begin
                let sum =
                  List.fold_left
                    (fun acc l ->
                      acc
                      + (match Hashtbl.find_opt totals (u, l) with
                        | Some v -> v
                        | None -> 0))
                    0 labels
                in
                if sum <> Interp.node_execs vm p.S89_frontend.Program.name u then
                  ok := false
              end)
            p.S89_frontend.Program.cfg;
          !ok)
        (S89_frontend.Program.procs prog))

(* FREQ consistency: NODE_FREQ(u) × invocations = node executions *)
let node_freq_consistency_prop =
  QCheck.Test.make ~count:40 ~name:"NODE_FREQ × invocations = executions"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let prog = Gen_prog.gen_program seed in
      let vm = Interp.create prog in
      ignore (Interp.run vm);
      List.for_all
        (fun (p : S89_frontend.Program.proc) ->
          let a = Analysis.of_proc p in
          let f = Freq.of_oracle a vm in
          let inv = float_of_int (Freq.invocations f) in
          let ok = ref true in
          Cfg.iter_nodes
            (fun u ->
              let expected =
                float_of_int (Interp.node_execs vm p.S89_frontend.Program.name u)
              in
              let got = Freq.node_freq f u *. inv in
              if Float.abs (got -. expected) > 1e-6 *. (1.0 +. expected) then ok := false)
            p.S89_frontend.Program.cfg;
          !ok)
        (S89_frontend.Program.procs prog))

let laws_extra =
  [
    QCheck_alcotest.to_alcotest conservation_laws_prop;
    QCheck_alcotest.to_alcotest node_balance_prop;
    QCheck_alcotest.to_alcotest node_freq_consistency_prop;
  ]

let suite = suite @ laws_extra

(* reconstruction also holds on the optimizer's output (what Table 1's
   opt-ON rows instrument) *)
let reconstruction_optimized () =
  List.iter
    (fun src ->
      roundtrip (S89_vm.Optimize.program (Program.of_source src)) 7)
    [ S89_workloads.Demos.fig1 (); S89_workloads.Demos.branchy ();
      S89_workloads.Demos.sieve (); S89_workloads.Livermore.source ]

let reconstruction_optimized_random_prop =
  QCheck.Test.make ~count:30 ~name:"reconstruct = oracle on optimized programs"
    QCheck.(int_range 0 100000)
    (fun seed ->
      roundtrip (S89_vm.Optimize.program (Gen_prog.gen_program seed)) 13;
      true)

let database_rejects_garbage () =
  let path = Filename.temp_file "s89bad" ".txt" in
  let oc = open_out path in
  output_string oc "this is not a database\n";
  close_out oc;
  (match Database.load path with
  | exception Database.Load_error { line = 1; _ } -> ()
  | exception Database.Load_error { line; _ } ->
      Alcotest.failf "Load_error on unexpected line %d" line
  | _ -> Alcotest.fail "expected Load_error on garbage");
  Sys.remove path

let pretty_printers_smoke () =
  let prog = Program.of_source (S89_workloads.Demos.fig1 ()) in
  let analyses = Analysis.of_program prog in
  let plan = Placement.plan analyses in
  let s = Fmt.str "%a" Placement.pp plan in
  check cb "plan printer mentions counters" true
    (String.length s > 0
    &&
    let rec contains i =
      i + 8 <= String.length s && (String.sub s i 8 = "measured" || contains (i + 1))
    in
    contains 0);
  let a = Hashtbl.find analyses "FIG1" in
  let vm = Interp.create prog in
  ignore (Interp.run vm);
  let f = Freq.of_oracle a vm in
  let s = Fmt.str "%a" Freq.pp f in
  check cb "freq printer mentions totals" true (String.length s > 20)

(* Words allocated by one [Analysis.of_proc]: minor-heap words plus
   direct major-heap allocations (major words minus promotions).  Both
   are exact counters of this domain, so the figure is deterministic —
   a gate on work done, not on wall time. *)
let analysis_words (p : Program.proc) =
  let major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  ignore (Analysis.of_proc p);
  let m0 = Gc.minor_words () and j0 = major () in
  ignore (Sys.opaque_identity (Analysis.of_proc p));
  Gc.minor_words () -. m0 +. (major () -. j0)

(* The analysis layer allocates linearly: pinned words per CFG node, and
   twice the nodes may cost at most 2.2x the words. *)
let analysis_alloc_linear () =
  let measure nodes =
    let prog = Program.of_source (Gen_prog.gen_wide_cfg_source ~nodes ()) in
    let p = List.hd (Program.procs prog) in
    (Cfg.num_nodes p.Program.cfg, analysis_words p)
  in
  let n1, w1 = measure 8_800 and n2, w2 = measure 17_600 in
  check cb "about 7k and 14k nodes" true
    (n1 > 6_500 && n1 < 7_500 && n2 > 13_000 && n2 < 15_000);
  let per_node n w = w /. float_of_int n in
  List.iter
    (fun (n, w) ->
      if per_node n w > 175.0 then
        Alcotest.failf "%d nodes: %.1f words per node, ceiling 175" n (per_node n w))
    [ (n1, w1); (n2, w2) ];
  if w2 > 2.2 *. w1 then
    Alcotest.failf "%d nodes: %.0f words, over 2.2x the %.0f of %d nodes" n2 w2 w1 n1

let suite =
  suite
  @ [
      Alcotest.test_case "analysis allocation is linear" `Quick analysis_alloc_linear;
      Alcotest.test_case "reconstruction: optimized programs" `Slow
        reconstruction_optimized;
      QCheck_alcotest.to_alcotest reconstruction_optimized_random_prop;
      Alcotest.test_case "database rejects garbage" `Quick database_rejects_garbage;
      Alcotest.test_case "pretty printers" `Quick pretty_printers_smoke;
    ]
