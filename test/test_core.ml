(* Tests for s89_core: COST/TIME/VAR estimation, the paper's worked
   example (golden 920/300), the exactness property against the VM,
   variance models, interprocedural rules and recursion handling. *)

module Program = S89_frontend.Program
module Interp = S89_vm.Interp
module Analysis = S89_profiling.Analysis
module Label = S89_cfg.Label
module Ecfg = S89_cfg.Ecfg
open S89_core

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check = Alcotest.check
let cb = Alcotest.bool
let cf = Alcotest.float 1e-9
let cfl tol = Alcotest.float tol

(* ---------------- the paper's worked example ---------------- *)

let figure3_setup () =
  let t = Pipeline.of_source (S89_workloads.Demos.fig1 ()) in
  let a = Hashtbl.find t.Pipeline.analyses "FIG1" in
  let ecfg = a.Analysis.ecfg in
  let start = Ecfg.start ecfg in
  let ph = Ecfg.preheader_of_header ecfg 3 in
  let fig1_totals = Hashtbl.create 16 in
  List.iter
    (fun (k, v) -> Hashtbl.replace fig1_totals k v)
    [ ((start, Label.U), 1); ((ph, Label.U), 10); ((3, Label.T), 5); ((3, Label.F), 5);
      ((4, Label.T), 1); ((4, Label.F), 4); ((5, Label.T), 0); ((5, Label.F), 5) ];
  let a2 = Hashtbl.find t.Pipeline.analyses "FOO" in
  let foo_totals = Hashtbl.create 4 in
  Hashtbl.replace foo_totals (Ecfg.start a2.Analysis.ecfg, Label.U) 9;
  let totals = function "FIG1" -> fig1_totals | _ -> foo_totals in
  let cost_override name node =
    match (name, node) with
    | "FIG1", (3 | 4 | 5) -> 1.0
    | "FOO", 1 -> 100.0
    | _ -> 0.0
  in
  (t, Pipeline.estimate_totals t ~totals ~cost_override)

let golden_headline () =
  let _, est = figure3_setup () in
  check cf "TIME(START) = 920" 920.0 (Interproc.program_time est);
  check cf "VAR(START) = 90000" 90000.0 (Interproc.program_var est);
  check cf "STD_DEV(START) = 300" 300.0 (Interproc.program_std_dev est)

let golden_node_tuples () =
  let _, est = figure3_setup () in
  let pe = Interproc.proc_est est "FIG1" in
  (* node 3 = the loop IF; tuple [1, 92, 9364, 900, 30] *)
  check cf "COST(3)" 1.0 (Time_est.cost pe.Interproc.time 3);
  check cf "TIME(3)" 92.0 (Time_est.time pe.Interproc.time 3);
  check cf "E[T²](3)" 9364.0 (Variance.e2 pe.Interproc.variance 3);
  check cf "VAR(3)" 900.0 (Variance.var pe.Interproc.variance 3);
  check cf "STD_DEV(3)" 30.0 (Variance.std_dev pe.Interproc.variance 3);
  (* node 4 = IF(N.LT.0); [1, 81, 8161, 1600, 40] *)
  check cf "TIME(4)" 81.0 (Time_est.time pe.Interproc.time 4);
  check cf "VAR(4)" 1600.0 (Variance.var pe.Interproc.variance 4);
  (* node 5 = IF(N.GE.0); [1, 101, 10201, 0, 0] *)
  check cf "TIME(5)" 101.0 (Time_est.time pe.Interproc.time 5);
  check cf "VAR(5)" 0.0 (Variance.var pe.Interproc.variance 5);
  (* the CALL costs TIME(FOO) = 100 via rule 2 *)
  check cf "COST(CALL)" 100.0 (Time_est.cost pe.Interproc.time 6);
  let foo = Interproc.proc_est est "FOO" in
  check cf "TIME(FOO)" 100.0 (Time_est.total_time foo.Interproc.time foo.Interproc.analysis)

(* The whole Figure-3 report of the worked example: headline 920/300,
   the node tuples, and the CALL statement on one line. *)
let fig1_report =
  {|program estimate: TIME=920 STD_DEV=300

procedure FIG1: TIME(START)=920 STD_DEV(START)=300
   10 START                              [0, 920, 936400, 90000, 300]
        -U-> 0  <1, 1>
        -U-> 1  <1, 1>
        -U-> 2  <1, 1>
        -U-> 9  <1, 1>
        -U-> 7  <1, 1>
        -U-> 8  <1, 1>
    0 ENTRY                              [0, 0, 0, 0, 0]
    1 M = 3                              [0, 0, 0, 0, 0]
    2 N = 7                              [0, 0, 0, 0, 0]
    7 20 CONTINUE                        [0, 0, 0, 0, 0]
    8 STOP                               [0, 0, 0, 0, 0]
    9 PREHEADER(3)                       [0, 920, 936400, 90000, 300]
        -U-> 3  <10, 10>
        -Z2-> 12  <0, 0>
        -Z3-> 13  <0, 0>
    3 10 IF (M .GE. 0)                   [1, 92, 9364, 900, 30]
        -T-> 4  <0.5, 5>
        -F-> 5  <0.5, 5>
    4 IF (N .LT. 0)                      [1, 81, 8161, 1600, 40]
        -F-> 6  <0.8, 4>
        -T-> 13  <0.2, 1>
    5 IF (N .GE. 0)                      [1, 101, 10201, 0, 0]
        -F-> 6  <1, 5>
        -T-> 12  <0, 0>
    6 CALL FOO(M, N)                     [100, 100, 10000, 0, 0]
   11 STOP                               [0, 0, 0, 0, 0]
   12 POSTEXIT(3)                        [0, 0, 0, 0, 0]
   13 POSTEXIT(3)                        [0, 0, 0, 0, 0]

procedure FOO: TIME(START)=100 STD_DEV(START)=0
    5 START                              [0, 100, 10000, 0, 0]
        -U-> 0  <1, 9>
        -U-> 1  <1, 9>
        -U-> 2  <1, 9>
        -U-> 4  <1, 9>
    0 ENTRY                              [0, 0, 0, 0, 0]
    1 M = M - 1                          [100, 100, 10000, 0, 0]
    2 IF (M .EQ. 1)                      [0, 0, 0, 0, 0]
        -T-> 3  <0, 0>
    3 N = -N                             [0, 0, 0, 0, 0]
    4 RETURN                             [0, 0, 0, 0, 0]
    6 STOP                               [0, 0, 0, 0, 0]|}

let golden_report () =
  let _, est = figure3_setup () in
  check Alcotest.string "Figure-3 report" fig1_report (Fmt.str "%a" Report.pp est);
  let dot = Report.fcdg_dot (Interproc.main_est est) in
  check cb "dot graph" true (contains dot "digraph fcdg");
  let a = (Interproc.main_est est).Interproc.analysis in
  check cb "ecfg dot" true (contains (Report.ecfg_dot a) "digraph ecfg")

(* ---------------- exactness: estimate = measurement ---------------- *)

let exactness prog_src seed =
  let t = Pipeline.of_source prog_src in
  let vm = Pipeline.run_once ~seed t in
  let est = Pipeline.estimate_oracle t vm in
  let measured = float_of_int (Interp.cycles vm) in
  let predicted = Interproc.program_time est in
  if Float.abs (measured -. predicted) > 1e-6 *. (1.0 +. measured) then
    Alcotest.failf "measured %.3f but predicted %.3f" measured predicted

let exactness_demos () =
  List.iter
    (fun src -> exactness src 11)
    [ S89_workloads.Demos.fig1 (); S89_workloads.Demos.branchy ();
      S89_workloads.Demos.chunky (); S89_workloads.Demos.nested_random ();
      S89_workloads.Demos.computed_goto (); S89_workloads.Demos.irreducible ();
      S89_workloads.Demos.sort (); S89_workloads.Demos.sieve ();
      S89_workloads.Linpack_like.source (); S89_workloads.Livermore.source ]

let exactness_random_prop =
  QCheck.Test.make ~count:50
    ~name:"TIME(START) = measured cycles (oracle freqs, random programs)"
    QCheck.(pair (int_range 0 100000) (int_range 0 500))
    (fun (seed, vmseed) ->
      exactness (Gen_prog.gen_source seed) vmseed;
      true)

(* the same holds under the unoptimized cost model *)
let exactness_cost_models () =
  let t = Pipeline.of_source (S89_workloads.Demos.branchy ()) in
  List.iter
    (fun cm ->
      let vm = Pipeline.run_once ~cost_model:cm ~seed:4 t in
      let est = Pipeline.estimate_oracle ~cost_model:cm t vm in
      check (cfl 1e-6) "exact"
        (float_of_int (Interp.cycles vm))
        (Interproc.program_time est))
    [ S89_vm.Cost_model.optimized; S89_vm.Cost_model.unoptimized ]

(* ---------------- TIME properties ---------------- *)

let time_scales_with_cost () =
  let t = Pipeline.of_source (S89_workloads.Demos.branchy ()) in
  let vm = Pipeline.run_once t in
  let est1 = Pipeline.estimate_oracle t vm in
  let est2 =
    Pipeline.estimate_oracle ~cost_override:(fun _ _ -> 10.0) t vm
  in
  let est3 =
    Pipeline.estimate_oracle ~cost_override:(fun _ _ -> 20.0) t vm
  in
  ignore est1;
  check (cfl 1e-6) "doubling all costs doubles TIME"
    (2.0 *. Interproc.program_time est2)
    (Interproc.program_time est3)

(* ---------------- variance ---------------- *)

let variance_zero_for_straight_line () =
  let t =
    Pipeline.of_source
      "      PROGRAM T\n      X = 1.0\n      Y = X + 2.0\n      Z = X * Y\n      END\n"
  in
  let vm = Pipeline.run_once t in
  let est = Pipeline.estimate_oracle t vm in
  check cf "no branches, no variance" 0.0 (Interproc.program_var est)

(* a single Bernoulli branch: VAR = p(1-p)·ΔT² analytically *)
let variance_bernoulli () =
  let t = Pipeline.of_source (S89_workloads.Demos.fig1 ()) in
  let a = Hashtbl.find t.Pipeline.analyses "FIG1" in
  let ecfg = a.Analysis.ecfg in
  let start = Ecfg.start ecfg in
  let ph = Ecfg.preheader_of_header ecfg 3 in
  (* one "iteration": the loop runs once, IF(M) goes T with p=0.7 over many
     invocations: totals 70/30 of 100 invocations, loop entered once each *)
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (k, v) -> Hashtbl.replace totals k v)
    [ ((start, Label.U), 100); ((ph, Label.U), 100); ((3, Label.T), 70);
      ((3, Label.F), 30); ((4, Label.T), 70); ((4, Label.F), 0); ((5, Label.T), 30);
      ((5, Label.F), 0) ];
  let foo_totals = Hashtbl.create 4 in
  let a2 = Hashtbl.find t.Pipeline.analyses "FOO" in
  Hashtbl.replace foo_totals (Ecfg.start a2.Analysis.ecfg, Label.U) 0;
  let cost_override name node =
    match (name, node) with
    | "FIG1", 4 -> 10.0 (* T path costs 10 *)
    | "FIG1", 5 -> 30.0 (* F path costs 30 *)
    | _ -> 0.0
  in
  let est =
    Pipeline.estimate_totals t
      ~totals:(function "FIG1" -> totals | _ -> foo_totals)
      ~cost_override
  in
  (* T_C at node 3: 0.7·10 + 0.3·30 = 16; E[T²] = 0.7·100 + 0.3·900 = 340;
     VAR = 340 − 256 = 84 = p(1−p)(30−10)² *)
  let pe = Interproc.proc_est est "FIG1" in
  check cf "bernoulli variance" 84.0 (Variance.var pe.Interproc.variance 3)

(* loop frequency variance models (Case 1's second and third terms) *)
let variance_loop_freq_models () =
  let t = Pipeline.of_source (S89_workloads.Demos.nested_random ()) in
  let vm = Pipeline.run_once ~seed:2 t in
  let sd freq_var =
    Interproc.program_std_dev (Pipeline.estimate_oracle ~freq_var t vm)
  in
  let zero = sd Interproc.Zero in
  let poisson = sd Interproc.Poisson in
  let uniform = sd Interproc.Uniform in
  let geometric = sd Interproc.Geometric in
  check cb "freq variance adds variance" true
    (zero <= poisson && poisson <= uniform && uniform <= geometric);
  check cb "geometric strictly larger" true (geometric > zero)

(* profiled E[F²]: exact value propagates *)
let variance_profiled_freq () =
  let t =
    Pipeline.of_source
      "      PROGRAM T\n      N = IRAND(5)\n      DO 10 I = 1, N\n      X = X + 1.0\n10    CONTINUE\n      END\n"
  in
  let profile = Pipeline.profile_smart ~runs:40 ~seed:1 t in
  let est = Pipeline.estimate_profiled t profile in
  let est0 = Pipeline.estimate_profiled ~use_second_moments:false t profile in
  (* with trip-count randomness, profiled second moments must add variance *)
  check cb "profiled E[F²] adds variance" true
    (Interproc.program_std_dev est > Interproc.program_std_dev est0)

(* iteration models: paper's F² vs Wald; for F iid iterations the paper
   formula is exactly F times the Wald variance when VAR(F)=0 *)
let variance_iteration_models () =
  let t = Pipeline.of_source (S89_workloads.Demos.branchy ()) in
  let vm = Pipeline.run_once ~seed:6 t in
  let v_paper =
    Interproc.program_var
      (Pipeline.estimate_oracle ~iteration_model:Variance.Paper_correlated t vm)
  in
  let v_indep =
    Interproc.program_var
      (Pipeline.estimate_oracle ~iteration_model:Variance.Independent t vm)
  in
  check cb "paper >= independent" true (v_paper >= v_indep);
  check cb "both positive" true (v_indep > 0.0)

(* ---------------- interprocedural ---------------- *)

let interproc_chain () =
  let t =
    Pipeline.of_source
      "      PROGRAM M\n      CALL A\n      CALL A\n      END\n\n      SUBROUTINE A\n      CALL B\n      END\n\n      SUBROUTINE B\n      X = 1.0\n      END\n"
  in
  let vm = Pipeline.run_once t in
  let est = Pipeline.estimate_oracle t vm in
  let time name =
    let pe = Interproc.proc_est est name in
    Time_est.total_time pe.Interproc.time pe.Interproc.analysis
  in
  (* rule 2 composition: M costs its own linkage plus 2·TIME(A) *)
  check cb "A > B" true (time "A" > time "B");
  check cb "M > 2·A" true (time "M" >= 2.0 *. time "A");
  check (cfl 1e-6) "exact" (float_of_int (Interp.cycles vm)) (time "M")

let interproc_call_variance () =
  let src =
    "      PROGRAM M\n      DO 10 I = 1, 50\n      CALL A\n10    CONTINUE\n      END\n\n      SUBROUTINE A\n      IF (RAND() .GT. 0.5) THEN\n      X = SQRT(2.0)\n      ENDIF\n      END\n"
  in
  let t = Pipeline.of_source src in
  let vm = Pipeline.run_once t in
  let est0 = Pipeline.estimate_oracle ~call_variance:false t vm in
  let est1 = Pipeline.estimate_oracle ~call_variance:true t vm in
  (* the caller's own loop accounts for some variance either way; the
     callee's branch variance is only included when propagation is on *)
  check cb "propagation adds variance" true
    (Interproc.program_var est1 > Interproc.program_var est0);
  (* the callee's own per-invocation variance is positive too *)
  let pa = Interproc.proc_est est1 "A" in
  check cb "callee variance positive" true
    (Variance.total_var pa.Interproc.variance pa.Interproc.analysis > 0.0)

let interproc_recursion_reject () =
  let t = Pipeline.of_source (S89_workloads.Demos.recursive ()) in
  let vm = Pipeline.run_once t in
  match Pipeline.estimate_oracle t vm with
  | exception Interproc.Recursion_unsupported names ->
      check cb "names EVEN/ODD" true
        (List.mem "EVEN" names && List.mem "ODD" names)
  | _ -> Alcotest.fail "expected Recursion_unsupported"

let interproc_recursion_fixpoint () =
  let t = Pipeline.of_source (S89_workloads.Demos.recursive ~n:12 ()) in
  let vm = Pipeline.run_once t in
  let est =
    Pipeline.estimate_oracle
      ~recursion:(Interproc.Fixpoint { tol = 1e-9; max_iter = 500 })
      t vm
  in
  (* the fixpoint solves the per-invocation averages; the whole-program
     estimate from them must still equal the measured cycles *)
  check (cfl 1e-3) "fixpoint reproduces measured cycles"
    (float_of_int (Interp.cycles vm))
    (Interproc.program_time est)

let suite =
  [
    Alcotest.test_case "golden: TIME 920 / SD 300" `Quick golden_headline;
    Alcotest.test_case "golden: Figure 3 node tuples" `Quick golden_node_tuples;
    Alcotest.test_case "golden: report rendering" `Quick golden_report;
    Alcotest.test_case "exactness: demos" `Slow exactness_demos;
    QCheck_alcotest.to_alcotest exactness_random_prop;
    Alcotest.test_case "exactness: both cost models" `Quick exactness_cost_models;
    Alcotest.test_case "time scales with cost" `Quick time_scales_with_cost;
    Alcotest.test_case "variance: straight line = 0" `Quick variance_zero_for_straight_line;
    Alcotest.test_case "variance: bernoulli analytic" `Quick variance_bernoulli;
    Alcotest.test_case "variance: loop freq models" `Quick variance_loop_freq_models;
    Alcotest.test_case "variance: profiled E[F²]" `Quick variance_profiled_freq;
    Alcotest.test_case "variance: iteration models" `Quick variance_iteration_models;
    Alcotest.test_case "interproc: call chain" `Quick interproc_chain;
    Alcotest.test_case "interproc: call variance" `Quick interproc_call_variance;
    Alcotest.test_case "interproc: recursion rejected" `Quick interproc_recursion_reject;
    Alcotest.test_case "interproc: recursion fixpoint" `Quick interproc_recursion_fixpoint;
  ]

(* ---------------- compile-time frequency analysis (X5) ---------------- *)

let static_freq_exact_cases () =
  (* constant-bound DO loops and compile-time conditions: exact *)
  let src =
    "      PROGRAM T\n      DO 10 I = 1, 25\n      X = X + 1.0\n10    CONTINUE\n      IF (1 .GT. 2) THEN\n      Y = SQRT(2.0)\n      ENDIF\n      END\n"
  in
  let t = Pipeline.of_source src in
  let est_static =
    Pipeline.estimate_totals t
      ~totals:(Static_freq.program_totals t.Pipeline.analyses)
  in
  let vm = Pipeline.run_once t in
  let est_oracle = Pipeline.estimate_oracle t vm in
  (* everything in this program is statically analyzable *)
  check (cfl 1e-3) "static = profiled on analyzable code"
    (Interproc.program_time est_oracle)
    (Interproc.program_time est_static)

let static_freq_heuristics () =
  (* data-dependent branch: heuristic probability, sane scale *)
  let t = Pipeline.of_source (S89_workloads.Demos.branchy ()) in
  let est =
    Pipeline.estimate_totals t
      ~totals:(Static_freq.program_totals t.Pipeline.analyses)
  in
  check cb "positive" true (Interproc.program_time est > 0.0);
  (* custom heuristics shift the estimate *)
  let est_long_loops =
    Pipeline.estimate_totals t
      ~totals:
        (Static_freq.program_totals
           ~heuristics:{ Static_freq.default_heuristics with loop_freq = 100.0 }
           t.Pipeline.analyses)
  in
  check cb "longer assumed loops, larger TIME" true
    (Interproc.program_time est_long_loops > Interproc.program_time est)

let optimizer_refines_static_trips () =
  (* a constant bound reaching the DO through an assignment becomes a
     static trip after global constant propagation *)
  let src =
    "      PROGRAM T\n      N = 37\n      DO 5 I = 1, 10\n      X = X + 1.0\n5     CONTINUE\n      DO 10 J = 1, N\n      Y = Y + 1.0\n10    CONTINUE\n      END\n"
  in
  let prog = S89_frontend.Program.of_source src in
  let trips prog =
    let p = S89_frontend.Program.main_proc prog in
    let acc = ref [] in
    S89_cfg.Cfg.iter_nodes
      (fun n ->
        match (S89_cfg.Cfg.info p.S89_frontend.Program.cfg n).S89_frontend.Ir.ir with
        | S89_frontend.Ir.Do_test m -> acc := m.S89_frontend.Ir.static_trip :: !acc
        | _ -> ())
      p.S89_frontend.Program.cfg;
    List.sort compare !acc
  in
  check cb "before: one unknown trip" true (List.mem None (trips prog));
  let opt = S89_vm.Optimize.program prog in
  check cb "after: both trips static" true
    (trips opt = [ Some 10; Some 37 ] || trips opt = [ Some 37; Some 10 ]);
  (* and the static estimate becomes exact *)
  let t = Pipeline.create opt in
  let est_static =
    Pipeline.estimate_totals t ~totals:(Static_freq.program_totals t.Pipeline.analyses)
  in
  let vm = Pipeline.run_once t in
  let est_oracle = Pipeline.estimate_oracle t vm in
  check (cfl 1e-3) "static exact after optimization"
    (Interproc.program_time est_oracle)
    (Interproc.program_time est_static)

let static_suite_extra =
  [
    Alcotest.test_case "static freq: exact cases" `Quick static_freq_exact_cases;
    Alcotest.test_case "static freq: heuristics" `Quick static_freq_heuristics;
    Alcotest.test_case "optimizer refines static trips" `Quick
      optimizer_refines_static_trips;
  ]

let suite = suite @ static_suite_extra

(* ---------------- flat profile & CSV export ---------------- *)

let report_flat_profile () =
  let t = Pipeline.of_source (S89_workloads.Demos.fig1 ()) in
  let vm = Pipeline.run_once t in
  let est = Pipeline.estimate_oracle t vm in
  let s = Fmt.str "%a" Report.flat_profile est in
  check cb "has header row" true (contains s "TIME/call");
  check cb "lists FIG1" true (contains s "FIG1");
  check cb "lists FOO" true (contains s "FOO");
  check cb "main is 100%" true (contains s "100.0%")

let report_csv () =
  let t = Pipeline.of_source (S89_workloads.Demos.fig1 ()) in
  let vm = Pipeline.run_once t in
  let est = Pipeline.estimate_oracle t vm in
  let s = Report.csv est in
  let lines = String.split_on_char '\n' (String.trim s) in
  check cb "header" true
    (List.hd lines = "procedure,node,kind,cost,time,e_t2,var,std_dev,node_freq");
  (* one row per FCDG node of each procedure *)
  let expected =
    Hashtbl.fold
      (fun _ (a : Analysis.t) acc ->
        acc + Array.length (S89_cdg.Fcdg.topological a.Analysis.fcdg))
      t.Pipeline.analyses 0
  in
  check Alcotest.int "row count" expected (List.length lines - 1);
  (* every row has 9 comma-separated fields (kind is comma-sanitized) *)
  List.iter
    (fun l ->
      check Alcotest.int "fields" 9 (List.length (String.split_on_char ',' l)))
    (List.tl lines)

let suite =
  suite
  @ [
      Alcotest.test_case "report: flat profile" `Quick report_flat_profile;
      Alcotest.test_case "report: csv export" `Quick report_csv;
    ]

let report_hotspots () =
  let t = Pipeline.of_source (S89_workloads.Demos.branchy ()) in
  let vm = Pipeline.run_once t in
  let est = Pipeline.estimate_oracle t vm in
  let hs = Report.hotspots ~top:5 est in
  check Alcotest.int "top 5" 5 (List.length hs);
  (* sorted descending, shares within [0,100] *)
  let rec sorted = function
    | (_, _, _, a, _) :: ((_, _, _, b, _) :: _ as rest) -> a >= b && sorted rest
    | _ -> true
  in
  check cb "descending" true (sorted hs);
  List.iter (fun (_, _, _, _, share) -> check cb "share sane" true (share >= 0.0 && share <= 100.0)) hs;
  (* a call site is marked as including callees *)
  let t2 = Pipeline.of_source (S89_workloads.Demos.fig1 ()) in
  let vm2 = Pipeline.run_once t2 in
  let est2 = Pipeline.estimate_oracle t2 vm2 in
  check cb "call marked" true
    (List.exists (fun (_, _, d, _, _) -> contains d "[incl. callees]")
       (Report.hotspots ~top:20 est2))

let suite = suite @ [ Alcotest.test_case "report: hotspots" `Quick report_hotspots ]

(* ---------------- node splitting, end to end ---------------- *)

(* A program with a second entry into a DO body lowers to reducible,
   valid CFGs, one of them split (a labelled statement is copied); on
   every backend the smart counters reconstruct the VM's oracle counts
   and TIME equals the measured cycles. *)
let node_split_end_to_end_prop =
  QCheck.Test.make ~count:40 ~name:"node-split programs: reconstruct = oracle, TIME = cycles"
    QCheck.(pair (int_range 0 100000) (int_range 0 500))
    (fun (seed, vmseed) ->
      let module Cfg = S89_cfg.Cfg in
      let module Placement = S89_profiling.Placement in
      let t = Pipeline.of_source (Gen_prog.gen_irreducible_source seed) in
      let procs = Program.procs t.Pipeline.prog in
      List.iter
        (fun (p : Program.proc) ->
          let cfg = p.Program.cfg in
          if not (S89_graph.Reducibility.is_reducible (Cfg.graph cfg) ~root:(Cfg.entry cfg))
          then Alcotest.failf "%s: irreducible after lowering" p.Program.name;
          if Cfg.validate cfg <> Ok () then Alcotest.failf "%s: invalid CFG" p.Program.name)
        procs;
      let main = (Program.main_proc t.Pipeline.prog).Program.cfg in
      let labels = ref [] and copied = ref false in
      Cfg.iter_nodes
        (fun n ->
          match (Cfg.info main n).S89_frontend.Ir.src_label with
          | Some l ->
              if List.mem l !labels then copied := true;
              labels := l :: !labels
          | None -> ())
        main;
      if not !copied then Alcotest.fail "no statement was split";
      if Pipeline.diagnostics t <> [] then Alcotest.fail "a procedure was not analyzed";
      let plan = Placement.plan t.Pipeline.analyses in
      List.iter
        (fun backend ->
          let config =
            { Interp.default_config with instr = Placement.probes plan; seed = vmseed; backend }
          in
          let vm = Interp.create ~config t.Pipeline.prog in
          ignore (Interp.run vm);
          let totals = S89_profiling.Reconstruct.totals plan ~counters:(Interp.counters vm) in
          Hashtbl.iter
            (fun name (a : Analysis.t) ->
              let rt = Hashtbl.find totals name in
              List.iter
                (fun c ->
                  if Hashtbl.find_opt rt c <> Some (Analysis.oracle_total a vm c) then
                    Alcotest.failf "%s (%d,%s): reconstructed <> oracle" name (fst c)
                      (Label.to_string (snd c)))
                a.Analysis.conditions)
            t.Pipeline.analyses;
          let vm = Pipeline.run_once ~seed:vmseed ~backend t in
          let measured = float_of_int (Interp.cycles vm) in
          let predicted = Interproc.program_time (Pipeline.estimate_oracle t vm) in
          if Float.abs (measured -. predicted) > 1e-6 *. (1.0 +. measured) then
            Alcotest.failf "measured %.3f but predicted %.3f" measured predicted)
        [ Interp.Tree; Interp.Compiled; Interp.Bytecode ];
      true)

let suite = suite @ [ QCheck_alcotest.to_alcotest node_split_end_to_end_prop ]
