(* Tests for smart counter placement as a whole: golden plans (every
   measured/derived list, counter id, probe realization and second-moment
   entry pinned by digest), reconstruction at scale and under every
   ablation, and the node-balance victim preference. *)

module Program = S89_frontend.Program
module Ast = S89_frontend.Ast
module Interp = S89_vm.Interp
module Label = S89_cfg.Label
module Ecfg = S89_cfg.Ecfg
module Fcdg = S89_cdg.Fcdg
module Codec = S89_util.Codec
open S89_profiling

let check = Alcotest.check

(* ---------------- golden plans ---------------- *)

let cond_str (u, l) = Printf.sprintf "(%d,%s)" u (Label.to_string l)
let conds_str cs = String.concat " " (List.map cond_str cs)

let term_str = function
  | Placement.Tcond c -> cond_str c
  | Placement.Tnode_total x -> Printf.sprintf "N%d" x

let terms_str ts = String.concat " " (List.map term_str ts)

let derivation_str = function
  | Placement.Node_balance { node; others } ->
      Printf.sprintf "node %d [%s]" node (conds_str others)
  | Placement.Exit_balance { ph; others } ->
      Printf.sprintf "exit %d [%s]" ph (conds_str others)
  | Placement.Latch_balance { ph; header_cond; others } ->
      Printf.sprintf "latch %d %s [%s]" ph (cond_str header_cond) (terms_str others)
  | Placement.Header_from_latches { ph; latches } ->
      Printf.sprintf "header %d [%s]" ph (terms_str latches)
  | Placement.Static_trip { ph; trip } -> Printf.sprintf "trip %d %d" ph trip
  | Placement.Static_body { ph; trip } -> Printf.sprintf "body %d %d" ph trip

let realization_str = function
  | Placement.Incr_edge (u, l) -> Printf.sprintf "edge %d %s" u (Label.to_string l)
  | Placement.Incr_node u -> Printf.sprintf "node %d" u
  | Placement.Bulk_entries (h, e) -> Fmt.str "bulk %d %a" h Ast.pp_expr e

(* Everything a plan decides, as text: the printed plan, then per
   procedure each measured condition with its counter id and probe, each
   derivation with its operands, and each second-moment entry. *)
let render_plan plan =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Fmt.str "%a" Placement.pp plan);
  List.iter
    (fun name ->
      let pp = Placement.proc_plan plan name in
      Printf.bprintf b "\n%s\n" name;
      List.iter
        (fun (c, id, r) ->
          Printf.bprintf b "m %s %d %s\n" (cond_str c) id (realization_str r))
        pp.Placement.measured;
      List.iter
        (fun (c, d) -> Printf.bprintf b "d %s %s\n" (cond_str c) (derivation_str d))
        pp.Placement.derived;
      List.iter
        (fun (h, id, trip) ->
          Printf.bprintf b "s %d %d %s\n" h id
            (match trip with Some k -> string_of_int k | None -> "-"))
        pp.Placement.second_moment)
    (Placement.proc_names plan);
  Buffer.contents b

(* (opt2, opt3, second_moments) *)
let settings =
  [ (true, true, true); (true, true, false); (true, false, false);
    (false, true, false); (false, false, false) ]

(* Digest of every plan of [sources], each planned from the unoptimized and
   the optimized program under every setting, and the total of their
   counter counts. *)
let golden sources =
  let digests = Buffer.create 4096 in
  let counters = ref 0 in
  List.iter
    (fun src ->
      let prog = Program.of_source src in
      List.iter
        (fun prog ->
          let analyses = Analysis.of_program prog in
          List.iter
            (fun (opt2, opt3, second_moments) ->
              let plan = Placement.plan ~opt2 ~opt3 ~second_moments analyses in
              counters := !counters + Placement.n_counters plan;
              Buffer.add_string digests (Codec.fnv64_hex (render_plan plan)))
            settings)
        [ prog; S89_vm.Optimize.program prog ])
    sources;
  (Codec.fnv64_hex (Buffer.contents digests), !counters)

let demo_sources () =
  let open S89_workloads in
  [ Demos.fig1 (); Demos.branchy (); Demos.chunky (); Demos.nested_random ();
    Demos.recursive (); Demos.irreducible (); Demos.computed_goto ();
    Demos.sort (); Demos.sieve (); Livermore.source;
    Simple_code.source ~n:16 ~cycles:2 (); Linpack_like.source () ]

let wide_sources () =
  [ Gen_prog.gen_wide_cfg_source ~nodes:1100 ();
    Gen_prog.gen_wide_cfg_source ~nodes:4400 () ]

let random_sources () = List.init 100 (fun i -> Gen_prog.gen_source (i + 1))

(* Digests and counter totals captured from a placement that re-solved
   the solvability fixpoint from scratch after every re-measurement; any
   change to which counters are dropped, kept or re-measured, or in what
   order, changes them.  The demos digest was re-captured when
   [Optimize] stopped rewriting user-call actuals (the optimized
   recursive demo and Linpack changed; counter totals did not). *)
let golden_demos () =
  check
    Alcotest.(pair string int)
    "demos, LOOPS, SIMPLE, Linpack" ("c175d83cec569354", 2343) (golden (demo_sources ()))

let golden_wide () =
  check
    Alcotest.(pair string int)
    "wide procedures" ("1434133fefa30929", 20148) (golden (wide_sources ()))

let golden_random () =
  check
    Alcotest.(pair string int)
    "random programs, seeds 1-100" ("40b9bc54355af81d", 12688) (golden (random_sources ()))

(* ---------------- reconstruction ---------------- *)

let check_reconstruction ~what plan analyses vm =
  let totals = Reconstruct.totals plan ~counters:(Interp.counters vm) in
  Hashtbl.iter
    (fun pname (a : Analysis.t) ->
      let rt = Hashtbl.find totals pname in
      List.iter
        (fun c ->
          let oracle = Analysis.oracle_total a vm c in
          match Hashtbl.find_opt rt c with
          | Some v when v = oracle -> ()
          | got ->
              Alcotest.failf "%s: %s %s: oracle=%d reconstructed=%s" what pname
                (cond_str c) oracle
                (match got with Some v -> string_of_int v | None -> "none"))
        a.Analysis.conditions)
    analyses

let instrumented_run plan prog seed =
  let config = { Interp.default_config with instr = Placement.probes plan; seed } in
  let vm = Interp.create ~config prog in
  ignore (Interp.run vm);
  vm

(* a 20k-node procedure: the solvability pass re-measures about one
   circular drop per loop block, over a hundred rounds *)
let reconstruction_at_scale () =
  let prog = Program.of_source (Gen_prog.gen_wide_cfg_source ~nodes:20_000 ()) in
  let analyses = Analysis.of_program prog in
  let plan = Placement.plan ~second_moments:true analyses in
  check_reconstruction ~what:"wide 20k" plan analyses (instrumented_run plan prog 11)

(* ablated plans take different solvability paths; all must reconstruct *)
let ablations_random_prop =
  QCheck.Test.make ~count:40 ~name:"reconstruct = oracle under every (opt2, opt3)"
    QCheck.(pair (int_range 0 100000) (int_range 0 1000))
    (fun (seed, vmseed) ->
      let prog = Gen_prog.gen_program seed in
      let analyses = Analysis.of_program prog in
      List.iter
        (fun (opt2, opt3) ->
          let plan = Placement.plan ~opt2 ~opt3 analyses in
          check_reconstruction
            ~what:(Printf.sprintf "seed %d (%b,%b)" seed opt2 opt3)
            plan analyses (instrumented_run plan prog vmseed))
        [ (true, true); (true, false); (false, true); (false, false) ];
      true)

(* ---------------- victim preference ---------------- *)

(* A node balance drops the first label that is not a cold loop exit and
   keeps the exit label: the exit fires once per loop entry, the other
   label up to once per iteration. *)

let plan_of src =
  let analyses = Analysis.of_program (Program.of_source src) in
  let a = Hashtbl.find analyses "T" in
  (a, Placement.proc_plan (Placement.plan analyses) "T")

let is_exit (a : Analysis.t) (u, l) =
  List.exists (Ecfg.is_postexit a.Analysis.ecfg) (Fcdg.children a.Analysis.fcdg u l)

let node_balances (pp : Placement.proc_plan) =
  List.filter_map
    (fun (c, d) ->
      match d with
      | Placement.Node_balance { node; others } -> Some (c, node, others)
      | _ -> None)
    pp.Placement.derived

let is_measured (pp : Placement.proc_plan) c =
  List.exists (fun (m, _, _) -> m = c) pp.Placement.measured

let check_branch a u =
  check Alcotest.bool "(u,T) is the exit label" true (is_exit a (u, Label.T));
  check Alcotest.bool "(u,F) is not" false (is_exit a (u, Label.F))

(* in a GOTO loop the balance survives: (4,F) = NODE_TOTAL(4) - (4,T) *)
let node_balance_goto_loop () =
  let a, pp =
    plan_of
      "      PROGRAM T\n\
       \      I = 0\n\
       10    CONTINUE\n\
       \      X = RAND()\n\
       \      IF (X .GT. 0.99) GOTO 20\n\
       \      I = I + 1\n\
       \      IF (I .LT. 50) GOTO 10\n\
       20    CONTINUE\n\
       \      END\n"
  in
  check_branch a 4;
  match node_balances pp with
  | [ (c, node, others) ] ->
      check Alcotest.string "dropped" "(4,F)" (cond_str c);
      check Alcotest.int "balance node" 4 node;
      check Alcotest.string "operand" "(4,T)" (conds_str others)
  | l -> Alcotest.failf "expected one node balance, got %d" (List.length l)

(* in a DO loop the greedy step drops (6,F); with the header derived from
   the latch, which (6,F) controls, that drop is circular and is
   re-measured, so both labels end up measured.  Dropping the exit label
   (6,T) instead would have left it derived. *)
let node_balance_do_loop () =
  let a, pp =
    plan_of
      "      PROGRAM T\n\
       \      X = RAND()\n\
       \      DO 10 I = 1, 50\n\
       \        X = RAND()\n\
       \        IF (X .GT. 0.99) GOTO 20\n\
       \        Y = Y + 1.0\n\
       10    CONTINUE\n\
       20    CONTINUE\n\
       \      END\n"
  in
  check_branch a 6;
  check Alcotest.bool "(6,T) measured" true (is_measured pp (6, Label.T));
  check Alcotest.bool "(6,F) measured" true (is_measured pp (6, Label.F));
  List.iter
    (fun (c, _, _) ->
      check Alcotest.bool ("no exit label is balanced: " ^ cond_str c) false (is_exit a c))
    (node_balances pp)

let suite =
  [
    Alcotest.test_case "golden: demos and Table-1 programs" `Quick golden_demos;
    Alcotest.test_case "golden: wide procedures" `Quick golden_wide;
    Alcotest.test_case "golden: random programs" `Quick golden_random;
    Alcotest.test_case "reconstruction: 20k-node procedure" `Quick
      reconstruction_at_scale;
    QCheck_alcotest.to_alcotest ablations_random_prop;
    Alcotest.test_case "node balance keeps the exit label (GOTO loop)" `Quick
      node_balance_goto_loop;
    Alcotest.test_case "node balance keeps the exit label (DO loop)" `Quick
      node_balance_do_loop;
  ]
