(* Tests for s89_cdg: control dependence (Definition 2) and the forward
   control dependence graph, checked against the paper's Figure 3 and an
   independent definitional oracle on randomly generated programs. *)

open S89_cfg
open S89_cdg
module Digraph = S89_graph.Digraph
module Program = S89_frontend.Program

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let fig1_analysis () =
  let prog = Program.of_source (S89_workloads.Demos.fig1 ()) in
  S89_profiling.Analysis.of_proc (Program.find prog "FIG1")

(* In the lowered FIG1: 0=ENTRY 1=M= 2=N= 3=IF(M) 4=IF(N.LT.0) 5=IF(N.GE.0)
   6=CALL 7=CONT 8=STOP-node — verified by the frontend tests. *)

let cdg_fig1_memberships () =
  let a = fig1_analysis () in
  let cd = a.S89_profiling.Analysis.cdg in
  let ecfg = a.S89_profiling.Analysis.ecfg in
  let is_cd ~on y = Control_dep.is_control_dependent cd ecfg ~on y in
  (* the worked example's control dependences *)
  check cb "IF(N.LT.0) CD on (IFM,T)" true (is_cd ~on:(3, Label.T) 4);
  check cb "IF(N.GE.0) CD on (IFM,F)" true (is_cd ~on:(3, Label.F) 5);
  check cb "CALL CD on (IFNLT,F)" true (is_cd ~on:(4, Label.F) 6);
  check cb "CALL CD on (IFNGE,F)" true (is_cd ~on:(5, Label.F) 6);
  check cb "CALL not CD on (IFM,T)" false (is_cd ~on:(3, Label.T) 6);
  let start = Ecfg.start ecfg in
  check cb "CONT CD on START" true (is_cd ~on:(start, Label.U) 7);
  let ph = Ecfg.preheader_of_header ecfg 3 in
  check cb "header CD on preheader" true (is_cd ~on:(ph, Ecfg.body_label) 3);
  check cb "preheader CD on START" true (is_cd ~on:(start, Label.U) ph);
  (* loop-carried: nothing is CD on the unconditional latch *)
  check cb "nothing CD on CALL,U" false (is_cd ~on:(6, Label.U) 3)

let fcdg_fig1_structure () =
  let a = fig1_analysis () in
  let fcdg = a.S89_profiling.Analysis.fcdg in
  let ecfg = a.S89_profiling.Analysis.ecfg in
  let start = Ecfg.start ecfg in
  let ph = Ecfg.preheader_of_header ecfg 3 in
  (* Figure 3's shape *)
  check cb "start -> preheader" true (List.mem ph (Fcdg.children fcdg start Label.U));
  check cb "start -> cont" true (List.mem 7 (Fcdg.children fcdg start Label.U));
  check cb "preheader -U-> header" true
    (List.mem 3 (Fcdg.children fcdg ph Ecfg.body_label));
  check cb "ifm -T-> ifnlt" true (Fcdg.children fcdg 3 Label.T = [ 4 ]);
  check cb "ifm -F-> ifnge" true (Fcdg.children fcdg 3 Label.F = [ 5 ]);
  check cb "call child of both" true
    (List.mem 6 (Fcdg.children fcdg 4 Label.F)
    && List.mem 6 (Fcdg.children fcdg 5 Label.F));
  (* postexits hang under the preheader's pseudo edges and the exit branches *)
  List.iter
    (fun pe ->
      let parents = List.map (fun (e : Label.t Digraph.edge) -> e.src) (Digraph.pred_edges (Fcdg.graph fcdg) pe) in
      check cb "postexit under preheader" true (List.mem ph parents);
      check cb "postexit under an exit branch" true
        (List.mem 4 parents || List.mem 5 parents))
    (Ecfg.postexits_of_header ecfg 3);
  (* the labels L(u) and conditions *)
  check cb "labels of ifm" true (Fcdg.labels fcdg 3 = [ Label.T; Label.F ]);
  check cb "conditions include (ifm,T)" true
    (List.mem (3, Label.T) (Fcdg.control_conditions fcdg))

let fcdg_well_formed a =
  let fcdg = a.S89_profiling.Analysis.fcdg in
  let ecfg = a.S89_profiling.Analysis.ecfg in
  let g = Fcdg.graph fcdg in
  (* acyclic *)
  if not (S89_graph.Topo.is_acyclic g) then Alcotest.fail "FCDG cyclic";
  (* rooted: everything except STOP reachable from START *)
  let num = S89_graph.Dfs.number g ~root:(Fcdg.start fcdg) in
  Digraph.iter_nodes
    (fun v ->
      if v <> Fcdg.stop fcdg && not (S89_graph.Dfs.reachable num v) then
        Alcotest.failf "node %d not reachable in FCDG" v)
    g;
  (* STOP is never control dependent on anything *)
  if Digraph.pred_edges (Fcdg.graph fcdg) (Fcdg.stop fcdg) <> [] then Alcotest.fail "STOP has parents";
  (* the topological orders are consistent *)
  let topo = Fcdg.topological fcdg in
  let pos = Array.make (Digraph.num_nodes g) 0 in
  Array.iteri (fun i v -> pos.(v) <- i) topo;
  Digraph.iter_edges
    (fun e -> if pos.(e.src) >= pos.(e.dst) then Alcotest.fail "topo violated")
    g;
  let bu = Fcdg.bottom_up fcdg in
  check ci "bottom_up is reverse" topo.(0) bu.(Array.length bu - 1);
  ignore ecfg

let fcdg_well_formed_demos () =
  List.iter
    (fun src ->
      let prog = Program.of_source src in
      List.iter
        (fun (p : Program.proc) -> fcdg_well_formed (S89_profiling.Analysis.of_proc p))
        (Program.procs prog))
    [ S89_workloads.Demos.fig1 (); S89_workloads.Demos.branchy ();
      S89_workloads.Demos.chunky (); S89_workloads.Demos.nested_random ();
      S89_workloads.Demos.computed_goto (); S89_workloads.Demos.irreducible ();
      S89_workloads.Simple_code.source ~n:8 ~cycles:1 () ]

let fcdg_back_edges_on_loops () =
  (* a bottom-tested loop has a loop-carried control dependence that must
     be removed: IF at the bottom branching back to the body top *)
  let src =
    {|
      PROGRAM BOT
      INTEGER K
      K = 10
10    K = K - 1
      IF (K .GT. 0) GOTO 10
      END
|}
  in
  let prog = Program.of_source src in
  let a = S89_profiling.Analysis.of_proc (Program.find prog "BOT") in
  check cb "some CDG back edge removed" true
    (Fcdg.removed_back_edges a.S89_profiling.Analysis.fcdg <> []);
  fcdg_well_formed a

(* Oracle completeness/soundness: the FCDG+removed-back-edges together are
   exactly the definitional control dependences, on random programs. *)
let cd_oracle_prop =
  QCheck.Test.make ~count:40 ~name:"CDG = Definition 2 oracle (random programs)"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let prog = Gen_prog.gen_program seed in
      List.for_all
        (fun (p : Program.proc) ->
          let a = S89_profiling.Analysis.of_proc p in
          let cd = a.S89_profiling.Analysis.cdg in
          let ecfg = a.S89_profiling.Analysis.ecfg in
          let cdg = Control_dep.graph cd in
          let n = Digraph.num_nodes cdg in
          (* soundness: every CDG edge satisfies the definition *)
          let sound =
            Digraph.fold_edges
              (fun ok e ->
                ok
                && Control_dep.is_control_dependent cd ecfg ~on:(e.src, e.label) e.dst)
              true cdg
          in
          (* completeness: every definitional dependence is a CDG edge *)
          let complete = ref true in
          let ext = Ecfg.cfg ecfg in
          for x = 0 to n - 1 do
            List.iter
              (fun l ->
                for y = 0 to n - 1 do
                  if
                    Control_dep.is_control_dependent cd ecfg ~on:(x, l) y
                    && not
                         (List.exists
                            (fun (e : Label.t Digraph.edge) ->
                              e.dst = y && Label.equal e.label l)
                            (Digraph.succ_edges cdg x))
                  then complete := false
                done)
              (Cfg.out_labels ext x)
          done;
          sound && !complete)
        (Program.procs prog))

(* FCDG node frequencies are what control dependence promises: a node's
   execution count equals the sum of its parent conditions' totals *)
let node_total_prop =
  QCheck.Test.make ~count:40
    ~name:"NODE_TOTAL(v) = sum of in-condition totals (random programs)"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let prog = Gen_prog.gen_program seed in
      let vm = S89_vm.Interp.create prog in
      ignore (S89_vm.Interp.run vm);
      List.for_all
        (fun (p : Program.proc) ->
          let a = S89_profiling.Analysis.of_proc p in
          let fcdg = a.S89_profiling.Analysis.fcdg in
          let ecfg = a.S89_profiling.Analysis.ecfg in
          let totals = S89_profiling.Analysis.oracle_totals a vm in
          let ok = ref true in
          Digraph.iter_nodes
            (fun v ->
              if
                v <> Fcdg.start fcdg && v <> Fcdg.stop fcdg
                && Ecfg.is_original ecfg v
              then begin
                let expected =
                  List.fold_left
                    (fun acc (e : Label.t Digraph.edge) ->
                      acc
                      + (match Hashtbl.find_opt totals (e.src, e.label) with
                        | Some n -> n
                        | None -> 0))
                    0 (Digraph.pred_edges (Fcdg.graph fcdg) v)
                in
                let actual =
                  S89_vm.Interp.node_execs vm p.Program.name v
                in
                if expected <> actual then ok := false
              end)
            (Fcdg.graph fcdg);
          !ok)
        (Program.procs prog))

let suite =
  [
    Alcotest.test_case "CDG: fig1 memberships" `Quick cdg_fig1_memberships;
    Alcotest.test_case "FCDG: fig1 = Figure 3 shape" `Quick fcdg_fig1_structure;
    Alcotest.test_case "FCDG: well-formed on demos" `Quick fcdg_well_formed_demos;
    Alcotest.test_case "FCDG: back edges on bottom-test loop" `Quick
      fcdg_back_edges_on_loops;
    QCheck_alcotest.to_alcotest cd_oracle_prop;
    QCheck_alcotest.to_alcotest node_total_prop;
  ]
