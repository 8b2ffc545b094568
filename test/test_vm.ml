(* Tests for s89_vm: Value semantics, Builtins, the interpreter (results,
   calling conventions, oracle counts, cycle accounting, sampling, fuel),
   the cost model and the optimizer. *)

module Ast = S89_frontend.Ast
module Ir = S89_frontend.Ir
module Program = S89_frontend.Program
module Interp = S89_vm.Interp
module Value = S89_vm.Value
module CM = S89_vm.Cost_model
module Cfg = S89_cfg.Cfg

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cf = Alcotest.float 1e-9

(* ---------------- Value ---------------- *)

let value_arith () =
  check cb "int add" true (Value.add (Value.Int 2) (Value.Int 3) = Value.Int 5);
  check cb "mixed promotes" true
    (Value.add (Value.Int 2) (Value.Real 0.5) = Value.Real 2.5);
  (* Fortran integer division truncates toward zero *)
  check cb "int div" true (Value.div (Value.Int 7) (Value.Int 2) = Value.Int 3);
  check cb "neg int div" true (Value.div (Value.Int (-7)) (Value.Int 2) = Value.Int (-3));
  check cb "int pow" true (Value.pow (Value.Int 2) (Value.Int 10) = Value.Int 1024);
  check cb "pow zero" true (Value.pow (Value.Int 5) (Value.Int 0) = Value.Int 1);
  check cb "real pow int" true (Value.pow (Value.Real 2.0) (Value.Int (-1)) = Value.Real 0.5);
  check cb "neg" true (Value.neg (Value.Int 3) = Value.Int (-3));
  check cb "rel" true (Value.rel Ast.Lt (Value.Int 1) (Value.Real 1.5) = Value.Bool true);
  check cb "logic" true
    (Value.logic Ast.And (Value.Bool true) (Value.Bool false) = Value.Bool false)

let value_errors () =
  let expect_err f =
    match f () with
    | exception Value.Runtime_error _ -> ()
    | _ -> Alcotest.fail "expected runtime error"
  in
  expect_err (fun () -> Value.div (Value.Int 1) (Value.Int 0));
  expect_err (fun () -> Value.div (Value.Real 1.0) (Value.Real 0.0));
  expect_err (fun () -> Value.add (Value.Bool true) (Value.Int 1));
  expect_err (fun () -> Value.pow (Value.Int 2) (Value.Int (-1)));
  expect_err (fun () -> Value.coerce Ast.Tlogical (Value.Int 1));
  expect_err (fun () -> ignore (Value.to_bool (Value.Int 1)))

let value_coerce () =
  check cb "int->real" true (Value.coerce Ast.Treal (Value.Int 3) = Value.Real 3.0);
  check cb "real->int truncates" true (Value.coerce Ast.Tint (Value.Real 3.9) = Value.Int 3);
  check cb "identity" true (Value.coerce Ast.Tint (Value.Int 3) = Value.Int 3)

(* ---------------- Builtins ---------------- *)

let builtins () =
  let rng = S89_util.Prng.create ~seed:1 in
  let app name vs = S89_vm.Builtins.apply rng name vs in
  check cb "ABS int" true (app "ABS" [ Value.Int (-3) ] = Value.Int 3);
  check cb "ABS real" true (app "ABS" [ Value.Real (-1.5) ] = Value.Real 1.5);
  check cb "SQRT" true (app "SQRT" [ Value.Real 9.0 ] = Value.Real 3.0);
  (* Fortran MOD keeps the dividend's sign (truncated division) *)
  check cb "MOD" true (app "MOD" [ Value.Int 7; Value.Int 3 ] = Value.Int 1);
  check cb "MOD negative" true (app "MOD" [ Value.Int (-7); Value.Int 3 ] = Value.Int (-1));
  check cb "MIN variadic" true
    (app "MIN" [ Value.Int 3; Value.Int 1; Value.Int 2 ] = Value.Int 1);
  check cb "MAX mixed" true
    (app "MAX" [ Value.Int 3; Value.Real 3.5 ] = Value.Real 3.5);
  check cb "MIN0" true (app "MIN0" [ Value.Int 4; Value.Int 9 ] = Value.Int 4);
  check cb "INT truncates" true (app "INT" [ Value.Real 2.9 ] = Value.Int 2);
  check cb "FLOAT" true (app "FLOAT" [ Value.Int 2 ] = Value.Real 2.0);
  check cb "SIGN" true (app "SIGN" [ Value.Int (-5); Value.Int 1 ] = Value.Int 5);
  check cb "SIGN negative" true (app "SIGN" [ Value.Int 5; Value.Int (-1) ] = Value.Int (-5));
  (* IRAND in [1, n] *)
  for _ = 1 to 200 do
    match app "IRAND" [ Value.Int 6 ] with
    | Value.Int i when i >= 1 && i <= 6 -> ()
    | _ -> Alcotest.fail "IRAND out of range"
  done;
  (match app "RAND" [] with
  | Value.Real r when r >= 0.0 && r < 1.0 -> ()
  | _ -> Alcotest.fail "RAND out of range");
  match app "SQRT" [ Value.Real (-1.0) ] with
  | exception Value.Runtime_error _ -> ()
  | _ -> Alcotest.fail "SQRT(-1) should fail"

(* ---------------- Interp: computation results ---------------- *)

let run_and_output ?(seed = 42) src =
  let prog = Program.of_source src in
  let config = { Interp.default_config with seed } in
  let vm = Interp.create ~config prog in
  ignore (Interp.run vm);
  (vm, String.trim (Interp.output vm))

let interp_factorial () =
  let _, out =
    run_and_output
      "      PROGRAM T\n      NFACT = 1\n      DO 10 I = 1, 6\n      NFACT = NFACT * I\n10    CONTINUE\n      PRINT *, NFACT\n      END\n"
  in
  check Alcotest.string "6! = 720" "720" out

let interp_function_call () =
  let _, out =
    run_and_output
      "      PROGRAM T\n      PRINT *, IFIB(10)\n      END\n\n      INTEGER FUNCTION IFIB(N)\n      INTEGER A, B, T, I\n      A = 0\n      B = 1\n      DO 10 I = 1, N\n      T = A + B\n      A = B\n      B = T\n10    CONTINUE\n      IFIB = A\n      END\n"
  in
  check Alcotest.string "fib 10 = 55" "55" out

let interp_by_reference () =
  let _, out =
    run_and_output
      "      PROGRAM T\n      INTEGER A, B\n      A = 1\n      B = 2\n      CALL SWAP(A, B)\n      PRINT *, A, B\n      END\n\n      SUBROUTINE SWAP(X, Y)\n      INTEGER X, Y, T\n      T = X\n      X = Y\n      Y = T\n      END\n"
  in
  check Alcotest.string "swapped" "2 1" out

let interp_array_element_ref () =
  let _, out =
    run_and_output
      "      PROGRAM T\n      REAL A(3)\n      A(2) = 5.0\n      CALL BUMP(A(2))\n      PRINT *, A(2)\n      END\n\n      SUBROUTINE BUMP(X)\n      X = X + 1.0\n      END\n"
  in
  check Alcotest.string "array element by ref" "6" out

let interp_aliasing () =
  (* CALL FOO(M, M): both parameters alias the same cell *)
  let _, out =
    run_and_output
      "      PROGRAM T\n      INTEGER M\n      M = 3\n      CALL FOO(M, M)\n      PRINT *, M\n      END\n\n      SUBROUTINE FOO(A, B)\n      INTEGER A, B\n      A = A + 1\n      B = B + 10\n      END\n"
  in
  check Alcotest.string "aliased" "14" out

let interp_copy_in () =
  (* expression arguments are copy-in: writes are lost *)
  let _, out =
    run_and_output
      "      PROGRAM T\n      INTEGER M\n      M = 3\n      CALL FOO(M + 0)\n      PRINT *, M\n      END\n\n      SUBROUTINE FOO(A)\n      INTEGER A\n      A = 99\n      END\n"
  in
  check Alcotest.string "copy-in" "3" out

let interp_2d_arrays () =
  let _, out =
    run_and_output
      "      PROGRAM T\n      REAL A(3, 4)\n      DO 10 I = 1, 3\n      DO 10 J = 1, 4\n      A(I, J) = REAL(I * 10 + J)\n10    CONTINUE\n      PRINT *, A(2, 3)\n      END\n"
  in
  check Alcotest.string "2d indexing" "23" out

let interp_zero_trip () =
  let _, out =
    run_and_output
      "      PROGRAM T\n      K = 0\n      DO 10 I = 5, 1\n      K = K + 1\n10    CONTINUE\n      PRINT *, K\n      END\n"
  in
  check Alcotest.string "zero-trip DO" "0" out

let interp_negative_step () =
  let _, out =
    run_and_output
      "      PROGRAM T\n      K = 0\n      DO 10 I = 10, 1, -2\n      K = K + I\n10    CONTINUE\n      PRINT *, K\n      END\n"
  in
  check Alcotest.string "10+8+6+4+2" "30" out

let interp_computed_goto () =
  let _, out =
    run_and_output
      "      PROGRAM T\n      DO 50 K = 1, 4\n      GOTO (10, 20, 30), K\n      PRINT *, 99\n      GOTO 50\n10    PRINT *, 1\n      GOTO 50\n20    PRINT *, 2\n      GOTO 50\n30    PRINT *, 3\n50    CONTINUE\n      END\n"
  in
  check Alcotest.string "dispatch" "1\n2\n3\n99"
    (String.concat "\n" (List.map String.trim (String.split_on_char '\n' out)))

let interp_stop_unwinds () =
  let vm, out =
    run_and_output
      "      PROGRAM T\n      CALL DEEP\n      PRINT *, 2\n      END\n\n      SUBROUTINE DEEP\n      PRINT *, 1\n      STOP\n      END\n"
  in
  ignore vm;
  check Alcotest.string "stopped before 2" "1" out

let interp_out_of_fuel () =
  let prog =
    Program.of_source
      "      PROGRAM T\n10    X = X + 1.0\n      IF (X .GT. -1.0) GOTO 10\n      END\n"
  in
  let config = { Interp.default_config with max_steps = 1000 } in
  let vm = Interp.create ~config prog in
  match Interp.run vm with
  | exception Interp.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected Out_of_fuel"

(* ---------------- Interp: oracle counts & cycles ---------------- *)

let interp_oracle_counts () =
  let prog = Program.of_source (S89_workloads.Demos.fig1 ()) in
  let vm = Interp.create prog in
  ignore (Interp.run vm);
  (* M=3: header IF executes 3 times; FOO called twice; exit via (4,T) *)
  check ci "invocations main" 1 (Interp.invocations vm "FIG1");
  check ci "invocations foo" 2 (Interp.invocations vm "FOO");
  check ci "header execs" 3 (Interp.node_execs vm "FIG1" 3);
  check ci "call execs" 2 (Interp.node_execs vm "FIG1" 6);
  check ci "edge (3,T)" 3 (Interp.edge_count vm "FIG1" 3 S89_cfg.Label.T);
  check ci "edge (3,F)" 0 (Interp.edge_count vm "FIG1" 3 S89_cfg.Label.F);
  check ci "edge (4,T) exit" 1 (Interp.edge_count vm "FIG1" 4 S89_cfg.Label.T);
  check ci "edge (4,F)" 2 (Interp.edge_count vm "FIG1" 4 S89_cfg.Label.F)

let interp_cycles_by_hand () =
  (* straight-line program: cycles = sum of node costs, both models *)
  let src = "      PROGRAM T\n      X = 1.0\n      Y = X + 2.0\n      END\n" in
  List.iter
    (fun cm ->
      let prog = Program.of_source src in
      let config = { Interp.default_config with cost_model = cm } in
      let vm = Interp.create ~config prog in
      ignore (Interp.run vm);
      let p = Program.find prog "T" in
      let expected = ref 0 in
      Cfg.iter_nodes
        (fun n -> expected := !expected + CM.node_cost cm (Cfg.info p.Program.cfg n).Ir.ir)
        p.Program.cfg;
      check ci ("cycles = sum of costs, " ^ cm.CM.name) !expected (Interp.cycles vm))
    [ CM.optimized; CM.unoptimized ]

let interp_determinism () =
  let cycles seed =
    let prog = Program.of_source (S89_workloads.Demos.branchy ()) in
    let config = { Interp.default_config with seed } in
    let vm = Interp.create ~config prog in
    ignore (Interp.run vm);
    Interp.cycles vm
  in
  check ci "same seed same cycles" (cycles 7) (cycles 7);
  check cb "different seeds differ" true (cycles 7 <> cycles 8)

let interp_sampling () =
  let prog = Program.of_source (S89_workloads.Demos.branchy ()) in
  let interval = 50 in
  let config = { Interp.default_config with sample_interval = Some interval } in
  let vm = Interp.create ~config prog in
  ignore (Interp.run vm);
  let total = ref 0 in
  List.iter
    (fun (p : Program.proc) ->
      Cfg.iter_nodes
        (fun n -> total := !total + Interp.node_samples vm p.Program.name n)
        p.Program.cfg)
    (Program.procs prog);
  let expected = Interp.cycles vm / interval in
  check cb "sample count ~ cycles/interval" true (abs (!total - expected) <= 1)

(* probes: instrumented counters count what they should *)
let interp_probes () =
  let prog = Program.of_source (S89_workloads.Demos.fig1 ()) in
  let probes = S89_vm.Probe.make ~n_counters:3 in
  let num_nodes = Cfg.num_nodes (Program.find prog "FIG1").Program.cfg in
  S89_vm.Probe.add_node_action probes ~proc:"FIG1" ~num_nodes ~node:3
    (S89_vm.Probe.Incr 0);
  S89_vm.Probe.add_edge_action probes ~proc:"FIG1" ~num_nodes ~node:3
    ~label:S89_cfg.Label.T (S89_vm.Probe.Incr 1);
  S89_vm.Probe.add_edge_action probes ~proc:"FIG1" ~num_nodes ~node:0
    ~label:S89_cfg.Label.U
    (S89_vm.Probe.Bulk_add (2, Ast.Int 7));
  let config = { Interp.default_config with instr = probes } in
  let vm = Interp.create ~config prog in
  ignore (Interp.run vm);
  let c = Interp.counters vm in
  check ci "node probe" 3 c.(0);
  check ci "edge probe" 3 c.(1);
  check ci "bulk probe" 7 c.(2);
  (* instrumented run costs more *)
  let vm0 = Interp.create prog in
  ignore (Interp.run vm0);
  check cb "probe cost charged" true (Interp.cycles vm > Interp.cycles vm0)

(* ---------------- Optimizer ---------------- *)

let optimize_folds () =
  (* RAND() is impure, so these cannot be propagated away entirely *)
  let prog =
    Program.of_source
      "      PROGRAM T\n      X = 2.0 * 3.0 + RAND()\n      Z = X ** 2\n      PRINT *, Z\n      END\n"
  in
  let opt = S89_vm.Optimize.program prog in
  let p = Program.find opt "T" in
  let found_fold = ref false and found_sq = ref false in
  Cfg.iter_nodes
    (fun n ->
      match (Cfg.info p.Program.cfg n).Ir.ir with
      | Ir.Assign (Ast.Lvar "X", Ast.Binop (Ast.Add, Ast.Real 6.0, Ast.Call ("RAND", [])))
        ->
          found_fold := true
      | Ir.Assign (Ast.Lvar "Z", Ast.Binop (Ast.Mul, Ast.Var "X", Ast.Var "X")) ->
          found_sq := true
      | _ -> ())
    p.Program.cfg;
  check cb "constant folded" true !found_fold;
  check cb "x**2 -> x*x" true !found_sq

let optimize_propagates () =
  let prog =
    Program.of_source
      "      PROGRAM T\n      K = 3\n      M = K + 4\n      PRINT *, M\n      END\n"
  in
  let opt = S89_vm.Optimize.program prog in
  let p = Program.find opt "T" in
  let found = ref false in
  Cfg.iter_nodes
    (fun n ->
      match (Cfg.info p.Program.cfg n).Ir.ir with
      (* K=3 and M=K+4 both propagate all the way into the PRINT *)
      | Ir.Print [ Ast.Int 7 ] -> found := true
      | _ -> ())
    p.Program.cfg;
  check cb "constant propagated through chain" true !found

let optimize_removes_dead () =
  let prog =
    Program.of_source
      "      PROGRAM T\n      X = 1.0\n      X = 2.0\n      UNUSED = 5.0\n      PRINT *, X\n      END\n"
  in
  let before = Cfg.num_nodes (Program.find prog "T").Program.cfg in
  let opt = S89_vm.Optimize.program prog in
  let after = Cfg.num_nodes (Program.find opt "T").Program.cfg in
  check cb "dead assign elided" true (after < before)

let optimize_reduces_cycles () =
  let prog = Program.of_source S89_workloads.Livermore.source in
  let opt = S89_vm.Optimize.program prog in
  let cycles prog =
    let vm = Interp.create prog in
    ignore (Interp.run vm);
    Interp.cycles vm
  in
  check cb "optimizer reduces simulated cycles" true (cycles opt < cycles prog)

(* semantics preservation: same output and same branch counts on demos *)
let optimize_preserves_semantics () =
  List.iter
    (fun src ->
      let prog = Program.of_source src in
      let opt = S89_vm.Optimize.program prog in
      let run prog =
        let config = { Interp.default_config with seed = 33 } in
        let vm = Interp.create ~config prog in
        ignore (Interp.run vm);
        vm
      in
      let vm0 = run prog and vm1 = run opt in
      check Alcotest.string "same output" (Interp.output vm0) (Interp.output vm1);
      (* procedure invocation counts unchanged *)
      List.iter
        (fun (p : Program.proc) ->
          check ci "same invocations" (Interp.invocations vm0 p.Program.name)
            (Interp.invocations vm1 p.Program.name))
        (Program.procs prog))
    [ S89_workloads.Demos.fig1 (); S89_workloads.Demos.branchy ();
      S89_workloads.Demos.chunky (); S89_workloads.Demos.computed_goto ();
      S89_workloads.Demos.nested_random () ]

let optimize_preserves_random_prop =
  QCheck.Test.make ~count:30 ~name:"optimizer preserves semantics (random programs)"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let prog = Gen_prog.gen_program seed in
      let opt = S89_vm.Optimize.program prog in
      let run prog =
        let config = { Interp.default_config with seed = 5 } in
        let vm = Interp.create ~config prog in
        ignore (Interp.run vm);
        vm
      in
      let vm0 = run prog and vm1 = run opt in
      Interp.output vm0 = Interp.output vm1
      && Interp.invocations vm0 "HELPER" = Interp.invocations vm1 "HELPER"
      && Interp.cycles vm1 <= Interp.cycles vm0)

(* a user call's actual keeps its passing mode under optimization: a
   known-constant [I] stays a reference, and [I * 1] stays a copy even
   though it folds to a bare variable *)
let optimize_keeps_call_actuals () =
  let by_ref =
    "      PROGRAM T\n      I = 3\n      CALL H(I)\n      PRINT *, I\n      END\n\
    \      SUBROUTINE H(N)\n      N = N + 1\n      RETURN\n      END\n"
  in
  let by_copy =
    "      PROGRAM T\n      I = 2\n      DO 10 K = 1, 2\n      I = I + 1\n\
     10    CONTINUE\n      CALL H(I * 1)\n      PRINT *, I\n      END\n\
    \      SUBROUTINE H(N)\n      N = N + 1\n      RETURN\n      END\n"
  in
  let output prog backend =
    let config = { Interp.default_config with seed = 7; backend } in
    let vm = Interp.create ~config prog in
    ignore (Interp.run vm);
    Interp.output vm
  in
  List.iter
    (fun (what, src, expect) ->
      let prog = Program.of_source src in
      let plain = output prog Interp.Tree in
      (match expect with
      | Some e -> check Alcotest.string (what ^ ": plain") e (String.trim plain)
      | None -> ());
      let opt = S89_vm.Optimize.program prog in
      List.iter
        (fun b -> check Alcotest.string (what ^ ": optimized") plain (output opt b))
        [ Interp.Tree; Interp.Bytecode ])
    [ ("CALL H(I)", by_ref, Some "4");
      ("CALL H(I * 1)", by_copy, Some "4");
      ("call mix 131", Gen_prog.gen_call_mix_source 131, None) ]

(* cost model: expr_cost of a known expression *)
let cost_model_expr () =
  let cm = CM.optimized in
  (* X + 1 : var + const + add *)
  let e = Ast.Binop (Ast.Add, Ast.Var "X", Ast.Int 1) in
  check ci "x+1" (cm.CM.c_var + cm.CM.c_const + cm.CM.c_add) (CM.expr_cost cm e);
  (* A(I): idx var + 1 dim + elem *)
  let e = Ast.Index ("A", [ Ast.Var "I" ]) in
  check ci "a(i)" (cm.CM.c_var + cm.CM.c_index + cm.CM.c_elem) (CM.expr_cost cm e);
  (* SQRT(X) expensive intrinsic *)
  let e = Ast.Call ("SQRT", [ Ast.Var "X" ]) in
  check ci "sqrt" (cm.CM.c_var + cm.CM.c_intrinsic_expensive) (CM.expr_cost cm e);
  (* user call: argument + linkage; the callee body is charged elsewhere *)
  let e = Ast.Call ("F", [ Ast.Var "X" ]) in
  check ci "user call" (cm.CM.c_var + cm.CM.c_call) (CM.expr_cost cm e)

let suite =
  [
    Alcotest.test_case "value arithmetic" `Quick value_arith;
    Alcotest.test_case "value errors" `Quick value_errors;
    Alcotest.test_case "value coercion" `Quick value_coerce;
    Alcotest.test_case "builtins" `Quick builtins;
    Alcotest.test_case "interp: factorial" `Quick interp_factorial;
    Alcotest.test_case "interp: function call" `Quick interp_function_call;
    Alcotest.test_case "interp: by-reference args" `Quick interp_by_reference;
    Alcotest.test_case "interp: array element ref" `Quick interp_array_element_ref;
    Alcotest.test_case "interp: parameter aliasing" `Quick interp_aliasing;
    Alcotest.test_case "interp: copy-in expressions" `Quick interp_copy_in;
    Alcotest.test_case "interp: 2-d arrays" `Quick interp_2d_arrays;
    Alcotest.test_case "interp: zero-trip DO" `Quick interp_zero_trip;
    Alcotest.test_case "interp: negative step DO" `Quick interp_negative_step;
    Alcotest.test_case "interp: computed goto" `Quick interp_computed_goto;
    Alcotest.test_case "interp: STOP unwinds" `Quick interp_stop_unwinds;
    Alcotest.test_case "interp: out of fuel" `Quick interp_out_of_fuel;
    Alcotest.test_case "interp: oracle counts" `Quick interp_oracle_counts;
    Alcotest.test_case "interp: cycles by hand" `Quick interp_cycles_by_hand;
    Alcotest.test_case "interp: determinism" `Quick interp_determinism;
    Alcotest.test_case "interp: sampling" `Quick interp_sampling;
    Alcotest.test_case "interp: probes" `Quick interp_probes;
    Alcotest.test_case "optimize: folds" `Quick optimize_folds;
    Alcotest.test_case "optimize: propagates" `Quick optimize_propagates;
    Alcotest.test_case "optimize: dead assigns" `Quick optimize_removes_dead;
    Alcotest.test_case "optimize: reduces cycles" `Slow optimize_reduces_cycles;
    Alcotest.test_case "optimize: preserves semantics" `Quick optimize_preserves_semantics;
    QCheck_alcotest.to_alcotest optimize_preserves_random_prop;
    Alcotest.test_case "cost model expr" `Quick cost_model_expr;
  ]

(* ---------------- runtime errors and Fortran corner cases ---------------- *)

let expect_runtime_error src =
  let prog = Program.of_source src in
  let vm = Interp.create prog in
  match Interp.run vm with
  | exception Value.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected Runtime_error"

let interp_runtime_errors () =
  (* out-of-bounds subscript *)
  expect_runtime_error
    "      PROGRAM T\n      REAL A(3)\n      I = 4\n      A(I) = 1.0\n      END\n";
  (* zero subscript *)
  expect_runtime_error
    "      PROGRAM T\n      REAL A(3)\n      I = 0\n      X = A(I)\n      END\n";
  (* integer division by zero *)
  expect_runtime_error
    "      PROGRAM T\n      K = 0\n      M = 7 / K\n      END\n";
  (* SQRT of a negative *)
  expect_runtime_error
    "      PROGRAM T\n      X = SQRT(0.0 - 2.0)\n      END\n"

let interp_assumed_size_arrays () =
  (* the callee declares an assumed-size X and indexes the caller's storage *)
  let _, out =
    run_and_output
      "      PROGRAM T\n      REAL A(5)\n      DO 10 I = 1, 5\n      A(I) = REAL(I)\n10    CONTINUE\n      PRINT *, TOTAL(A, 5)\n      END\n\n      REAL FUNCTION TOTAL(X, N)\n      REAL X(*)\n      INTEGER N, I\n      TOTAL = 0.0\n      DO 20 I = 1, N\n      TOTAL = TOTAL + X(I)\n20    CONTINUE\n      END\n"
  in
  check Alcotest.string "sums via assumed size" "15" out;
  (* but the flat bound is still enforced *)
  expect_runtime_error
    "      PROGRAM T\n      REAL A(3)\n      CALL F(A)\n      END\n\n      SUBROUTINE F(X)\n      REAL X(*)\n      X(9) = 1.0\n      END\n"

let interp_param_coercion () =
  (* copy-in expression arguments coerce to the declared parameter type *)
  let _, out =
    run_and_output
      "      PROGRAM T\n      CALL F(2.9 + 0.0)\n      END\n\n      SUBROUTINE F(K)\n      INTEGER K\n      PRINT *, K\n      END\n"
  in
  check Alcotest.string "real expr into INTEGER param truncates" "2" out

let interp_whole_array_pass () =
  (* 2-D arrays pass by reference, callee mutates in place *)
  let _, out =
    run_and_output
      "      PROGRAM T\n      REAL M(2, 2)\n      M(1, 1) = 1.0\n      CALL SCALE(M)\n      PRINT *, M(1, 1)\n      END\n\n      SUBROUTINE SCALE(A)\n      REAL A(2, 2)\n      A(1, 1) = A(1, 1) * 4.0\n      END\n"
  in
  check Alcotest.string "2-d array by reference" "4" out

let suite =
  suite
  @ [
      Alcotest.test_case "interp: runtime errors" `Quick interp_runtime_errors;
      Alcotest.test_case "interp: assumed-size arrays" `Quick interp_assumed_size_arrays;
      Alcotest.test_case "interp: parameter coercion" `Quick interp_param_coercion;
      Alcotest.test_case "interp: whole-array passing" `Quick interp_whole_array_pass;
    ]

let interp_call_depth_guard () =
  (* unbounded recursion must fail cleanly, not blow the OCaml stack *)
  let prog =
    Program.of_source
      "      PROGRAM T\n      CALL LOOPY(0)\n      END\n\n      SUBROUTINE LOOPY(N)\n      INTEGER N\n      CALL LOOPY(N + 1)\n      END\n"
  in
  let config = { Interp.default_config with max_call_depth = 500 } in
  let vm = Interp.create ~config prog in
  match Interp.run vm with
  | exception Interp.Call_depth_exceeded d -> check cb "depth reported" true (d > 500)
  | _ -> Alcotest.fail "expected Call_depth_exceeded"

let suite =
  suite @ [ Alcotest.test_case "interp: call depth guard" `Quick interp_call_depth_guard ]

(* ---------------- Differential: Tree vs Compiled vs Bytecode ----------------

   The bytecode engine, both with native ops ([Bytecode]) and with every
   node a closure over a slot frame ([Compiled]), must be
   observationally identical to the tree walker: same cycles, steps,
   output, probe counters, invocation counts and oracle node/edge counts
   on every program.  We check this on every generated program (which
   exercises DO nests, IFs, calls, arrays and the PRNG intrinsics) and on
   the demo corpus (which adds computed GOTO, recursion and unstructured
   control flow). *)

module Label = S89_cfg.Label
module Probe = S89_vm.Probe

let placement_probes prog =
  S89_profiling.Placement.probes
    (S89_profiling.Placement.plan ~second_moments:true
       (S89_profiling.Analysis.of_program prog))

let run_backend ~instr ~seed backend prog =
  let config = { Interp.default_config with seed; instr; backend } in
  let vm = Interp.create ~config prog in
  let outcome = Interp.run vm in
  (vm, outcome)

(* the main program's arrays, exactly: a guard that trips between a
   store and its edge's accounting shows here *)
let render_arrays vm =
  String.concat "\n"
    (List.map
       (fun (name, vs) ->
         name ^ " ="
         ^ String.concat ""
             (Array.to_list
                (Array.map
                   (function
                     | S89_vm.Value.Int i -> " " ^ string_of_int i
                     | S89_vm.Value.Real r -> Printf.sprintf " %h" r
                     | S89_vm.Value.Bool b -> " " ^ string_of_bool b)
                   vs)))
       (Interp.main_arrays vm))

(* everything one run shows: how it ended (an error as its code and
   message), its output and the main program's arrays, steps, cycles
   and counters, each procedure's invocations, and every node's execs
   and samples and every edge's traversals *)
let observe config backend prog =
  let vm = Interp.create ~config:{ config with Interp.backend } prog in
  let ended =
    match Interp.run_result vm with
    | Ok Interp.Normal_stop -> "STOP"
    | Ok Interp.Fell_off_end -> "END"
    | Error d -> d.S89_diag.Diag.code ^ " " ^ d.S89_diag.Diag.message
  in
  let counts = ref [] in
  let add k v = counts := (k, v) :: !counts in
  add "steps" (Interp.steps vm);
  add "cycles" (Interp.cycles vm);
  Array.iteri (fun i c -> add (Printf.sprintf "counter %d" i) c) (Interp.counters vm);
  List.iter
    (fun (p : Program.proc) ->
      let name = p.Program.name and cfg = p.Program.cfg in
      add ("invocations " ^ name) (Interp.invocations vm name);
      for node = 0 to Cfg.num_nodes cfg - 1 do
        add (Printf.sprintf "execs %s/%d" name node) (Interp.node_execs vm name node);
        add (Printf.sprintf "samples %s/%d" name node) (Interp.node_samples vm name node);
        List.iter
          (fun l ->
            add
              (Printf.sprintf "edge %s/%d/%s" name node (Label.to_string l))
              (Interp.edge_count vm name node l))
          (S89_cfg.Cfg.out_labels cfg node)
      done)
    (Program.procs prog);
  (ended, Interp.output vm ^ "\n" ^ render_arrays vm, List.rev !counts)

(* Compiled and Bytecode observe what Tree does under [config];
   [~complete] also requires Tree's run to end normally, since a program
   that fails alike on every backend (out of fuel, say) would compare
   only a prefix of its run *)
let agree ?(complete = false) what config prog =
  let ended, output, counts = observe config Interp.Tree prog in
  if complete && ended <> "STOP" && ended <> "END" then
    Alcotest.failf "%s: Tree did not complete: %s" what ended;
  List.iter
    (fun (tag, backend) ->
      let what = Printf.sprintf "%s [%s]" what tag in
      let ended', output', counts' = observe config backend prog in
      check Alcotest.string (what ^ ": ended") ended ended';
      check Alcotest.string (what ^ ": output and arrays") output output';
      List.iter2 (fun (k, v) (_, v') -> check ci (what ^ ": " ^ k) v v') counts counts')
    [ ("compiled", Interp.Compiled); ("bytecode", Interp.Bytecode) ]

let check_backends_agree ?(instr = Probe.empty) ?(seed = 42) what prog =
  agree ~complete:true what { Interp.default_config with instr; seed } prog

let diff_generated () =
  for seed = 0 to 59 do
    let prog = Gen_prog.gen_program seed in
    let instr = placement_probes prog in
    check_backends_agree ~instr ~seed (Printf.sprintf "gen %d" seed) prog
  done

let diff_demos () =
  List.iter
    (fun (name, src) ->
      let prog = Program.of_source src in
      let instr = placement_probes prog in
      check_backends_agree ~instr (Printf.sprintf "demo %s" name) prog)
    [
      ("fig1", S89_workloads.Demos.fig1 ());
      ("branchy", S89_workloads.Demos.branchy ());
      ("chunky", S89_workloads.Demos.chunky ());
      ("nested_random", S89_workloads.Demos.nested_random ());
      ("recursive", S89_workloads.Demos.recursive ());
      ("computed_goto", S89_workloads.Demos.computed_goto ());
      ("sort", S89_workloads.Demos.sort ());
      ("sieve", S89_workloads.Demos.sieve ());
    ]

(* Multi-way Select dispatch: per-Case oracle edge counts and edge probes.
   A 3-arm computed GOTO driven by IRAND(4) takes each Case and the
   fallthrough; per-label counts must agree across backends, sum to the
   trip count, and edge probes attached to every outgoing label must
   reproduce the oracle counts exactly. *)
let select_edge_bookkeeping () =
  let n = 200 in
  let prog = Program.of_source (S89_workloads.Demos.computed_goto ~n ()) in
  let p = Program.find prog "CGOTO" in
  let cfg = p.Program.cfg in
  let num_nodes = Cfg.num_nodes cfg in
  let sel = ref (-1) in
  for i = 0 to num_nodes - 1 do
    match (Cfg.info cfg i).Ir.ir with Ir.Select _ -> sel := i | _ -> ()
  done;
  check cb "found Select node" true (!sel >= 0);
  let sel = !sel in
  let labels = S89_cfg.Cfg.out_labels cfg sel in
  check ci "four outgoing labels" 4 (List.length labels);
  let instr = Probe.make ~n_counters:(List.length labels) in
  List.iteri
    (fun k l ->
      Probe.add_edge_action instr ~proc:"CGOTO" ~num_nodes ~node:sel ~label:l
        (Probe.Incr k))
    labels;
  let t, _ = run_backend ~instr ~seed:7 Interp.Tree prog in
  let c, _ = run_backend ~instr ~seed:7 Interp.Compiled prog in
  let b, _ = run_backend ~instr ~seed:7 Interp.Bytecode prog in
  let total = ref 0 in
  List.iteri
    (fun k l ->
      let et = Interp.edge_count t "CGOTO" sel l in
      let ec = Interp.edge_count c "CGOTO" sel l in
      let eb = Interp.edge_count b "CGOTO" sel l in
      check ci (Printf.sprintf "oracle agrees on %s" (Label.to_string l)) et ec;
      check ci
        (Printf.sprintf "bytecode oracle agrees on %s" (Label.to_string l))
        et eb;
      check ci
        (Printf.sprintf "tree probe matches oracle on %s" (Label.to_string l))
        et
        (Interp.counters t).(k);
      check ci
        (Printf.sprintf "compiled probe matches oracle on %s" (Label.to_string l))
        ec
        (Interp.counters c).(k);
      check ci
        (Printf.sprintf "bytecode probe matches oracle on %s" (Label.to_string l))
        eb
        (Interp.counters b).(k);
      total := !total + ec)
    labels;
  check ci "case counts sum to trips" n !total;
  (* IRAND(4) over 3 arms: every arm and the fallthrough must fire *)
  List.iter
    (fun l ->
      check cb
        (Printf.sprintf "%s taken at least once" (Label.to_string l))
        true
        (Interp.edge_count c "CGOTO" sel l > 0))
    labels

let suite =
  suite
  @ [
      Alcotest.test_case "backends: 60 generated programs" `Quick diff_generated;
      Alcotest.test_case "backends: demo corpus" `Quick diff_demos;
      Alcotest.test_case "backends: Select edge bookkeeping" `Quick
        select_edge_bookkeeping;
    ]

(* ---------------- Differential: the generic evaluator ----------------

   Gen_prog emits rank-1 arrays only, no [**], no .AND./.OR., and MAX0/
   MIN0 with two arguments and a constant second.  These programs cover
   the rest of what the generic closures (every node under [Compiled],
   FALLBACK nodes under [Bytecode]) and the native MAX0/MIN0 opcodes must
   evaluate exactly as the tree walker does. *)

let generic_arrays_src =
  {|      PROGRAM ARRS
      INTEGER A(3, 4), B(2, 3, 4), W(10), I, J, K, S
      REAL X(2, 2, 2), T
      LOGICAL L(6), P, Q
      S = 0
      T = 0.0
      DO I = 1, 3
        DO J = 1, 4
          A(I, J) = I ** 2 + J * 2 ** I
          DO K = 1, 2
            B(K, I, J) = A(I, J) * K - (-2) ** K
          ENDDO
        ENDDO
      ENDDO
      DO I = 1, 2
        DO J = 1, 2
          DO K = 1, 2
            X(I, J, K) = REAL(I) ** 2 + 0.5 ** J - K ** 0.5 + 2.0 ** (-K)
          ENDDO
        ENDDO
      ENDDO
      DO I = 1, 6
        L(I) = MOD(I, 3) .EQ. 0 .OR. I .EQ. 1
      ENDDO
      DO I = 1, 6
        P = L(I) .AND. I .GT. 2
        Q = .NOT. L(I) .OR. P
        IF (P .OR. .NOT. Q) THEN
          S = S + B(2, 3, 4) - A(3, MOD(I, 4) + 1)
        ELSE IF (.NOT. P .AND. L(7 - I)) THEN
          S = S - B(1, MOD(I, 3) + 1, 2)
        ENDIF
        IF (L(I) .AND. .NOT. (X(1, 2, 1) .GT. T)) S = S + 1
        T = T + X(MOD(I, 2) + 1, 2, MOD(I + 1, 2) + 1) ** 2
      ENDDO
      DO I = 1, 10
        W(I) = I * I
      ENDDO
      CALL FILL(A, 3, 4)
      CALL FLAT(W, 10, L)
      PRINT *, S, T, A(2, 3), B(2, 3, 4), L(3), X(2, 2, 2), W(7)
      END

      SUBROUTINE FILL(M, NR, NC)
      INTEGER NR, NC, M(3, 4)
      DO J = 1, NC
        DO I = 1, NR
          M(I, J) = M(I, J) + MAX0(I, J, NR) * (I - J) ** 2
        ENDDO
      ENDDO
      END

      SUBROUTINE FLAT(V, N, F)
      INTEGER N, V(*)
      LOGICAL F(*)
      DO I = 2, N
        V(I) = V(I - 1) + MIN0(V(I), N, I * 3)
        IF (F(MOD(I, 6) + 1) .OR. V(I) .GT. 50) V(I) = V(I) - 1
      ENDDO
      END
|}

let generic_minmax_src =
  {|      PROGRAM MM
      INTEGER I, J, K, M, S, N(5)
      REAL X, Y
      S = 0
      X = 2.5
      Y = -1.5
      DO I = 1, 5
        N(I) = IRAND(9) - 5
      ENDDO
      DO I = -3, 3
        J = 2 - I
        K = I * I - 4
        M = MAX0(I, -J, 3, K)
        S = S + M
        M = MIN0(-I, -I, J - 7, -2)
        S = S + M * 3
        M = MAX0(I, I)
        S = S + MIN0(J, J, J) - M
        K = MAX0(J, K - 1, K)
        S = S + K * 1000
        K = MIN0(K + 1, J + 3, K)
        S = S + K * 10000
        S = S + MAX0(IRAND(10), IRAND(10), IRAND(10)) * 100
        S = S + MIN0(IRAND(5) - 3, -1, IRAND(7), N(MOD(I + 5, 5) + 1))
        M = MAX0(X, 2.5, Y + I)
        S = S + M + MIN0(X * I, Y, -0.5)
        IF (MAX0(I, J, K) .GT. MIN0(I, J, K) + 4) S = S + 7
        GOTO (10, 20, 30), MIN0(MAX0(I, 0), 3, K + 5)
        S = S - 1
        GOTO 40
   10   S = S + 10
        GOTO 40
   20   S = S + 20
        GOTO 40
   30   S = S + 30
   40   CONTINUE
      ENDDO
      PRINT *, S, M, K, MAX0(-7, -9, -8), MIN0(4, 4, 5), MAX(2, 2.0)
      END
|}

(* Sema refuses a subroutine called as a function, but the VM must
   still fail on such a program exactly: build it by rewriting call
   sites (and unit names) after lowering. *)
let rewrite_calls ~from ~to_ (prog : Program.t) =
  let rec ex (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Call (f, args) -> Ast.Call ((if f = from then to_ else f), List.map ex args)
    | Ast.Index (n, idx) -> Ast.Index (n, List.map ex idx)
    | Ast.Unop (o, a) -> Ast.Unop (o, ex a)
    | Ast.Binop (o, a, b) -> Ast.Binop (o, ex a, ex b)
    | Ast.Int _ | Ast.Real _ | Ast.Bool _ | Ast.Var _ -> e
  in
  let node (ir : Ir.node) : Ir.node =
    match ir with
    | Ir.Assign (lv, e) -> Ir.Assign (lv, ex e)
    | Ir.Branch e -> Ir.Branch (ex e)
    | Ir.Select (e, n) -> Ir.Select (ex e, n)
    | Ir.Print es -> Ir.Print (List.map ex es)
    | ir -> ir
  in
  let procs =
    Array.map
      (fun (p : Program.proc) ->
        let cfg =
          Cfg.map_info (fun _ (info : Ir.info) -> { info with Ir.ir = node info.Ir.ir }) p.Program.cfg
        in
        let p = { p with Program.cfg } in
        if p.Program.name = from then { p with Program.name = to_ } else p)
      prog.Program.procs
  in
  let by_name = Hashtbl.create 8 and index = Hashtbl.create 8 in
  Array.iteri
    (fun i (p : Program.proc) ->
      Hashtbl.replace by_name p.Program.name p;
      Hashtbl.replace index p.Program.name i)
    procs;
  { prog with Program.procs; by_name; index }

let diff_generic_path () =
  List.iter
    (fun (what, prog) ->
      check_backends_agree what prog;
      check_backends_agree ~instr:(placement_probes prog) (what ^ " probed") prog)
    [
      ("arrays/**/logic", Program.of_source generic_arrays_src);
      ("MAX0/MIN0", Program.of_source generic_minmax_src);
    ]

(* A runtime error is part of the observable behaviour: every backend must
   fail with the same message after the same steps and cycles. *)
let error_cases =
  let main body = "      PROGRAM E\n" ^ body ^ "      END\n" in
  let prog src () = Program.of_source src in
  let rank_sub =
    {|
      SUBROUTINE S(V, N)
      INTEGER V(*), N
      V(N) = 1
      END
|}
  in
  [
    ( "rank-1 bounds",
      prog (main "      INTEGER A(5), I\n      DO I = 1, 6\n        A(I) = I\n      ENDDO\n"),
      "A: subscript 6 of dimension 1 out of bounds [1,5]" );
    ( "rank-2 bounds",
      prog
        (main
           "      REAL G(3, 4), X\n      INTEGER J\n      X = 0.0\n      DO J = 1, 5\n        X = X + G(2, J)\n      ENDDO\n"),
      "G: subscript 5 of dimension 2 out of bounds [1,4]" );
    ( "rank-3 bounds",
      prog
        (main
           "      INTEGER C(2, 2, 2), K\n      DO K = 1, 3\n        C(1, K, 2) = K\n      ENDDO\n"),
      "C: subscript 3 of dimension 2 out of bounds [1,2]" );
    ( "rank mismatch",
      prog (main "      INTEGER G(2, 3)\n      CALL S(G, 2)\n" ^ rank_sub),
      "V: rank mismatch" );
    ( "assumed-size bound",
      prog (main "      INTEGER W(4)\n      CALL S(W, 5)\n" ^ rank_sub),
      "V: subscript 5 of dimension 1 out of bounds [1,4]" );
    ( "INTEGER / 0 in MAX0",
      prog
        (main
           "      INTEGER I, J, M\n      J = 3\n      DO I = 1, 5\n        J = J - 1\n        M = MAX0(I, 10 / J, 2)\n      ENDDO\n"),
      "INTEGER division by zero" );
    ( "REAL / 0 in MIN0",
      prog
        (main
           "      INTEGER I, M\n      REAL Y\n      Y = 2.0\n      DO I = 1, 4\n        Y = Y - 1.0\n        M = MIN0(I, INT(1.0 / Y), 7)\n      ENDDO\n"),
      "REAL division by zero" );
    ( "MOD by zero",
      prog
        (main
           "      INTEGER I, J, M\n      J = 2\n      DO I = 1, 3\n        J = J - 1\n        M = MOD(I, J)\n      ENDDO\n"),
      "MOD by zero" );
    ( "IRAND(0)",
      prog
        (main
           "      INTEGER I, J, M\n      J = 2\n      DO I = 1, 3\n        J = J - 1\n        M = MAX0(1, IRAND(J))\n      ENDDO\n"),
      "IRAND bound must be positive" );
    ( "negative exponent",
      prog
        (main
           "      INTEGER I, J, M\n      J = 2\n      DO I = 1, 4\n        J = J - 1\n        M = I ** J\n      ENDDO\n"),
      "negative INTEGER exponent" );
    ( "LOGICAL into INTEGER",
      prog (main "      LOGICAL P\n      INTEGER M\n      P = .TRUE.\n      M = P\n"),
      "cannot store LOGICAL in arithmetic variable" );
    ( "subroutine as function",
      (fun () ->
        rewrite_calls ~from:"F" ~to_:"SUBR"
          (Program.of_source
             (main "      INTEGER M\n      M = F(1)\n" ^ {|
      INTEGER FUNCTION F(K)
      INTEGER K
      F = K
      END

      SUBROUTINE SUBR(K)
      INTEGER K
      K = K + 1
      END
|}))),
      "subroutine SUBR used as a function" );
    ( "array as scalar",
      prog
        (main "      REAL A(4)\n      CALL S(A)\n" ^ {|
      SUBROUTINE S(X)
      REAL X, Y
      Y = X + 1.0
      END
|}),
      "array X used as a scalar" );
  ]

let diff_runtime_errors () =
  List.iter
    (fun (what, prog, msg) ->
      let prog = prog () in
      let run backend =
        let config = { Interp.default_config with backend } in
        let vm = Interp.create ~config prog in
        match Interp.run_result vm with
        | Ok _ -> Alcotest.failf "%s: expected a runtime error" what
        | Error d -> (d.S89_diag.Diag.code, d.S89_diag.Diag.message, Interp.steps vm,
                      Interp.cycles vm)
      in
      let code, m, steps, cycles = run Interp.Tree in
      check Alcotest.string (what ^ ": code") "RUN001" code;
      check Alcotest.string (what ^ ": message") msg m;
      List.iter
        (fun (tag, backend) ->
          let code', m', steps', cycles' = run backend in
          let what = Printf.sprintf "%s [%s]" what tag in
          check Alcotest.string (what ^ ": code") code code';
          check Alcotest.string (what ^ ": message") m m';
          check ci (what ^ ": steps") steps steps';
          check ci (what ^ ": cycles") cycles cycles')
        [ ("compiled", Interp.Compiled); ("bytecode", Interp.Bytecode) ])
    error_cases

(* [**] on INTEGERs is exponentiation by squaring: equal to the repeated
   (wrapping) product, and a huge exponent neither overflows the stack
   nor takes linear time *)
let int_pow_by_squaring () =
  for base = -3 to 3 do
    let prod = ref 1 in
    for e = 0 to 64 do
      check cb
        (Printf.sprintf "%d ** %d" base e)
        true
        (Value.pow (Value.Int base) (Value.Int e) = Value.Int !prod);
      prod := !prod * base
    done
  done;
  let n = 100_000_000 in
  let r = ref 1 in
  for _ = 1 to n do
    r := !r * 3
  done;
  check cb "3 ** 10^8" true (Value.pow (Value.Int 3) (Value.Int n) = Value.Int !r);
  let src =
    Printf.sprintf
      "      PROGRAM POW\n      INTEGER N, K\n      N = %d\n      K = 3 ** N\n      PRINT *, K\n      END\n"
      n
  in
  let expect = Printf.sprintf "%d \n" !r in
  let prog = Program.of_source src in
  List.iter
    (fun (tag, backend, prog) ->
      let vm, _ = run_backend ~instr:Probe.empty ~seed:42 backend prog in
      check Alcotest.string ("3 ** N printed, " ^ tag) expect (Interp.output vm))
    [
      ("tree", Interp.Tree, prog);
      ("compiled", Interp.Compiled, prog);
      ("bytecode", Interp.Bytecode, prog);
      ("-O", Interp.Bytecode, S89_vm.Optimize.program prog);
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "backends: generic path beyond Gen_prog" `Quick
        diff_generic_path;
      Alcotest.test_case "backends: runtime errors agree" `Quick diff_runtime_errors;
      Alcotest.test_case "value: INTEGER ** by squaring" `Quick int_pow_by_squaring;
    ]

(* ---------------- dummy arguments typed from their call sites ----------------

   Emit types a scalar dummy by every binding its call sites can give it.
   Each program below has a dummy whose judgement differs from its
   declaration: it must run identically on all three engines, and the
   judgement itself is pinned. *)

(* a REAL actual to a declared-INTEGER dummy (copied and coerced), and
   array elements whose element type differs from the declared type
   (bound by reference, never coerced) *)
let callty_coerce_src =
  {|      PROGRAM COERCE
      INTEGER I, K, IA(4)
      REAL X, RA(4)
      I = 3
      X = 2.75
      DO K = 1, 4
        IA(K) = K * 2
        RA(K) = K * 0.75
      ENDDO
      CALL SETI(X, I)
      CALL SETE(RA(2), I)
      CALL SETR(IA(3))
      CALL SETR(IA(1))
      PRINT *, I, X, IA(1), IA(3), RA(2)
      END

      SUBROUTINE SETI(N, M)
      INTEGER N, M
      N = N * 2 + M
      M = M + N / 2
      END

      SUBROUTINE SETE(N, M)
      INTEGER N, M
      N = N * 3 + 0.5
      IF (N .GT. M) M = N + 1
      END

      SUBROUTINE SETR(R)
      REAL R
      R = R / 4.0 + 0.75
      END
|}

(* disagreeing call sites on an undeclared dummy (cells are coerced to
   its implicit REAL, array elements are not); a dummy forwarded to a
   declared dummy of another type; a FUNCTION's dummy typed by calls in
   expressions; a subroutine with no call site *)
let callty_mixed_src =
  {|      PROGRAM MIXED
      INTEGER I, IA(3)
      REAL X, Y, RA(3)
      I = 7
      X = 1.5
      IA(2) = 4
      RA(2) = 2.5
      CALL MIX(X)
      CALL MIX(I)
      CALL MIX(RA(2))
      CALL MIX(IA(2))
      CALL FWDI(X)
      Y = HALF(X) + HALF(2.0 * I) + HALF(RA(2))
      PRINT *, I, X, Y, IA(2), RA(2)
      END

      SUBROUTINE MIX(V)
      V = V * 3 + 1
      IF (V .GT. 10) V = V - 0.5
      END

      SUBROUTINE FWDI(Y)
      CALL TAKEI(Y)
      END

      SUBROUTINE TAKEI(N)
      INTEGER N
      N = N + 2
      END

      REAL FUNCTION HALF(Q)
      HALF = Q / 2.0 + 1
      END

      SUBROUTINE UNUSED(Z, J)
      Z = Z + J
      END
|}

(* forwarding through two levels and through mutual recursion *)
let callty_forward_src =
  {|      PROGRAM FWD
      INTEGER I
      REAL X
      I = 5
      X = 0.25
      CALL OUTER(X, I)
      CALL EVEN(I, X)
      PRINT *, I, X
      END

      SUBROUTINE OUTER(A, J)
      CALL MIDDLE(A, J)
      J = J + 1
      END

      SUBROUTINE MIDDLE(B, L)
      CALL INNER(B, L)
      END

      SUBROUTINE INNER(C, N2)
      INTEGER N2
      C = C + N2 * 0.5
      N2 = N2 * 3
      END

      SUBROUTINE EVEN(N, R)
      INTEGER N
      IF (N .GT. 0) CALL ODD(N - 1, R)
      R = R + 1.0
      END

      SUBROUTINE ODD(N, R)
      INTEGER N
      IF (N .GT. 0) CALL EVEN(N - 1, R)
      R = R * 2.0
      END
|}

let callty_programs =
  [ ("REAL to INTEGER, element types", callty_coerce_src);
    ("disagreeing sites, no site", callty_mixed_src);
    ("forwarding, mutual recursion", callty_forward_src) ]

let diff_dummy_typing () =
  List.iter
    (fun (what, src) ->
      let prog = Program.of_source src in
      check_backends_agree what prog;
      check_backends_agree ~instr:(placement_probes prog) (what ^ " probed") prog)
    callty_programs

(* dummy -> judged type, per procedure with dummies, for one program *)
let judgement typing src =
  let prog = Program.of_source src in
  List.concat_map
    (fun (p : Program.proc) ->
      let lay = S89_vm.Env.layout p in
      List.mapi
        (fun i ty -> (p.Program.name ^ "." ^ lay.S89_vm.Env.names.(i), ty))
        (Array.to_list (typing prog p lay)))
    (Program.procs prog)
  |> List.sort compare

let call_site_typing prog (p : Program.proc) _ =
  let lays = Hashtbl.create 8 in
  List.iter
    (fun (q : Program.proc) -> Hashtbl.replace lays q.Program.name (S89_vm.Env.layout q))
    (Program.procs prog);
  Hashtbl.find (S89_vm.Emit.dummy_types prog lays) p.Program.name

(* the judgement this test must reject: a scalar dummy is its declared
   (or implicit) type *)
let declared_typing _ _ (lay : S89_vm.Env.layout) =
  Array.init lay.S89_vm.Env.n_params (fun i ->
      match lay.S89_vm.Env.kinds.(i) with
      | S89_frontend.Sema.Scalar ty -> Some ty
      | _ -> None)

let pinned_dummy_types =
  let i = Some Ast.Tint and r = Some Ast.Treal and g = None in
  [ (callty_coerce_src,
     [ ("SETE.M", i); ("SETE.N", r); ("SETI.M", i); ("SETI.N", i); ("SETR.R", i) ]);
    (callty_mixed_src,
     [ ("FWDI.Y", r); ("HALF.Q", r); ("MIX.V", g); ("TAKEI.N", g); ("UNUSED.J", g);
       ("UNUSED.Z", g) ]);
    (callty_forward_src,
     [ ("EVEN.N", i); ("EVEN.R", r); ("INNER.C", r); ("INNER.N2", i); ("MIDDLE.B", r);
       ("MIDDLE.L", i); ("ODD.N", i); ("ODD.R", r); ("OUTER.A", r); ("OUTER.J", i) ]) ]

let ty_opt =
  Alcotest.(list (pair string (option (testable Ast.pp_typ ( = )))))

let dummy_typing_pinned () =
  List.iter
    (fun (src, expected) ->
      check ty_opt "call-site judgement" expected (judgement call_site_typing src))
    pinned_dummy_types;
  (* the pin discriminates: typing dummies by their declarations fails it *)
  check cb "declared types fail the pin" false
    (List.for_all
       (fun (src, expected) -> judgement declared_typing src = expected)
       pinned_dummy_types)

(* With every scalar dummy typed, a FALLBACK executes only for a node
   that calls a user procedure: Gen_prog's incremental programs pass
   REAL locals and forwarded REAL dummies and have no dummy arrays. *)
let fallback_only_at_calls () =
  let prog =
    Program.of_source (Gen_prog.gen_incremental_source ~size:2 ~consts:(Array.make 6 1) 11)
  in
  let vm, _ = run_backend ~instr:(placement_probes prog) ~seed:5 Interp.Bytecode prog in
  let rec has_call (e : Ast.expr) =
    match e with
    | Ast.Call (f, args) -> Hashtbl.mem prog.Program.by_name f || List.exists has_call args
    | Ast.Index (_, idx) -> List.exists has_call idx
    | Ast.Unop (_, a) -> has_call a
    | Ast.Binop (_, a, b) -> has_call a || has_call b
    | Ast.Int _ | Ast.Real _ | Ast.Bool _ | Ast.Var _ -> false
  in
  let call_execs = ref 0 in
  List.iter
    (fun (p : Program.proc) ->
      let cfg = p.Program.cfg in
      for u = 0 to Cfg.num_nodes cfg - 1 do
        let ir = (Cfg.info cfg u).Ir.ir in
        let calls = ref (match ir with Ir.Call _ -> true | _ -> false) in
        Ir.iter_exprs (fun e -> if has_call e then calls := true) ir;
        if !calls then call_execs := !call_execs + Interp.node_execs vm p.Program.name u
      done)
    (Program.procs prog);
  check cb "calls run" true (!call_execs > 0);
  check ci "FALLBACK execs = executions of nodes with a user call" !call_execs
    (Interp.fallback_execs vm)

let suite =
  suite
  @ [
      Alcotest.test_case "backends: dummies typed from call sites" `Quick
        diff_dummy_typing;
      Alcotest.test_case "emit: call-site dummy types pinned" `Quick dummy_typing_pinned;
      Alcotest.test_case "emit: FALLBACK only at user calls" `Quick fallback_only_at_calls;
    ]

(* ---------------- optimizer idempotence ----------------

   Optimizing an already-optimized program is the identity: folding,
   propagation and dead-code elimination reach a fixpoint on the first
   application. *)

module Pipeline = S89_core.Pipeline
module Optimize = S89_vm.Optimize

let cfg_equal (c1 : Ir.info Cfg.t) (c2 : Ir.info Cfg.t) =
  Cfg.num_nodes c1 = Cfg.num_nodes c2
  && Cfg.entry c1 = Cfg.entry c2
  && Cfg.exits c1 = Cfg.exits c2
  &&
  let ok = ref true in
  for u = 0 to Cfg.num_nodes c1 - 1 do
    if
      (Cfg.info c1 u).Ir.ir <> (Cfg.info c2 u).Ir.ir
      || Cfg.node_type c1 u <> Cfg.node_type c2 u
      || Cfg.succ_edges c1 u <> Cfg.succ_edges c2 u
    then ok := false
  done;
  !ok

let progs_equal p1 p2 =
  List.for_all2
    (fun (a : Program.proc) (b : Program.proc) ->
      String.equal a.Program.name b.Program.name
      && cfg_equal a.Program.cfg b.Program.cfg)
    (Program.procs p1) (Program.procs p2)

let optimize_twice_idempotent () =
  for seed = 0 to 29 do
    let prog = Gen_prog.gen_program seed in
    let once = Optimize.program prog in
    let twice = Optimize.program once in
    check cb
      (Printf.sprintf "Optimize.program idempotent on gen %d" seed)
      true (progs_equal once twice)
  done

let suite =
  suite
  @ [
      Alcotest.test_case "optimize: twice is identity" `Quick
        optimize_twice_idempotent;
    ]

(* ---------------- COST(u) golden digests ----------------

   Every CFG node's [Cost_model.node_cost] under both presets, for each
   program unoptimized and [Optimize.program]'d, rendered as one line per
   node and pinned by FNV-1a/64 digest.  The digests were captured from
   the list-based intrinsic lookup and closure-passing cost walk; any
   change to a charge moves them.  The corpus digest was re-captured
   when [Optimize] stopped rewriting user-call actuals: the recursive
   demo keeps [N = 12]/[R = 0] and passes both by reference, and
   Linpack's [CALL GEFA(A, N, IPVT)] keeps [N] instead of [24]. *)

module Codec = S89_util.Codec

let cost_digest sources =
  let b = Buffer.create 65536 in
  let nodes = ref 0 in
  List.iter
    (fun src ->
      let prog = Program.of_source src in
      List.iter
        (fun prog ->
          List.iter
            (fun (cm : CM.t) ->
              List.iter
                (fun (p : Program.proc) ->
                  let cfg = p.Program.cfg in
                  for u = 0 to Cfg.num_nodes cfg - 1 do
                    incr nodes;
                    Printf.bprintf b "%s %s %d %d\n" cm.CM.name p.Program.name u
                      (CM.node_cost cm (Cfg.info cfg u).Ir.ir)
                  done)
                (Program.procs prog))
            [ CM.optimized; CM.unoptimized ])
        [ prog; Optimize.program prog ])
    sources;
  (Codec.fnv64_hex (Buffer.contents b), !nodes)

let cost_golden_corpus () =
  let open S89_workloads in
  check
    Alcotest.(pair string int)
    "demos, LOOPS, SIMPLE, Linpack, wide 1100" ("7bb7490fe1d388d1", 8194)
    (cost_digest
       [ Demos.fig1 (); Demos.branchy (); Demos.chunky (); Demos.nested_random ();
         Demos.recursive (); Demos.irreducible (); Demos.computed_goto ();
         Demos.sort (); Demos.sieve (); Livermore.source; Simple_code.source ();
         Linpack_like.source (); Gen_prog.gen_wide_cfg_source ~nodes:1100 () ])

let cost_golden_random () =
  check
    Alcotest.(pair string int)
    "random programs, seeds 1-100" ("00fefccf7d7b7c04", 19392)
    (cost_digest (List.init 100 (fun i -> Gen_prog.gen_source (i + 1))))

let suite =
  suite
  @ [
      Alcotest.test_case "cost model: golden COST(u), corpus" `Quick cost_golden_corpus;
      Alcotest.test_case "cost model: golden COST(u), seeds 1-100" `Quick
        cost_golden_random;
    ]

(* The table-backed intrinsic lookup answers exactly the table. *)
let intrinsics_lookup () =
  let module I = S89_frontend.Intrinsics in
  check ci "26 intrinsics" 26 (List.length I.table);
  List.iter
    (fun (name, info) ->
      check cb (Printf.sprintf "lookup %s" name) true (I.lookup name = Some info);
      check cb (Printf.sprintf "is_intrinsic %s" name) true (I.is_intrinsic name))
    I.table;
  List.iter
    (fun name ->
      check cb (Printf.sprintf "lookup %s" name) true (I.lookup name = None);
      check cb (Printf.sprintf "is_intrinsic %s" name) false (I.is_intrinsic name))
    [ "P3"; "HELPER"; "sqrt"; "Sqrt"; ""; "SQRTX" ]

(* ---------------- the default engine ----------------

   Bytecode is the default backend, so every caller that does not pin one
   (the pipeline, the CLI, the service, the benchmark) runs it.  Profiling
   through the default must reproduce the Tree oracle exactly: counters,
   cycles, reconstructed totals and PRINT output. *)

let sorted_totals (totals : (string, (S89_profiling.Analysis.cond, int) Hashtbl.t) Hashtbl.t) =
  List.sort compare
    (Hashtbl.fold
       (fun name tbl acc -> Hashtbl.fold (fun c v acc -> (name, c, v) :: acc) tbl acc)
       totals [])

(* None of the demo or Table-1 programs prints, so a PRINT of the main
   program's scalars goes in before its first bare STOP or END: output
   parity is then not vacuous. *)
let with_final_print src =
  let main = Program.main_proc (Program.of_source src) in
  let lay = S89_vm.Env.layout main in
  (* source-level scalars: lowering's own temporaries start with '%' *)
  let scalars =
    List.filter
      (fun s ->
        let name = lay.S89_vm.Env.names.(s) in
        name.[0] <> '%'
        && match lay.S89_vm.Env.kinds.(s) with S89_frontend.Sema.Scalar _ -> true | _ -> false)
      (List.init (Array.length lay.S89_vm.Env.names) Fun.id)
  in
  let print =
    "      PRINT *, "
    ^
    match scalars with
    | [] -> "0"
    | _ -> String.concat ", " (List.map (fun s -> lay.S89_vm.Env.names.(s)) scalars)
  in
  let rec go = function
    | [] -> []
    | l :: rest when List.mem (String.trim l) [ "STOP"; "END" ] -> print :: l :: rest
    | l :: rest -> l :: go rest
  in
  String.concat "\n" (go (String.split_on_char '\n' src))

(* one smart profile through the default engine against one instrumented
   Tree run under the same plan and seed *)
let default_matches_tree what cost_model prog =
  let module Placement = S89_profiling.Placement in
  let t = Pipeline.create prog in
  let p = Pipeline.profile_smart ~cost_model ~runs:1 ~seed:3 t in
  let run backend =
    let config =
      { Interp.default_config with cost_model; seed = 3; backend;
        instr = Placement.probes p.Pipeline.plan }
    in
    let vm = Interp.create ~config prog in
    ignore (Interp.run vm);
    vm
  in
  let vt = run Interp.Tree and vd = run Interp.default_config.Interp.backend in
  let counters = Array.sub (Interp.counters vt) 0 (Placement.n_counters p.Pipeline.plan) in
  check Alcotest.(array int) (what ^ ": counters") counters p.Pipeline.counters;
  check (Alcotest.float 0.) (what ^ ": cycles")
    (float_of_int (Interp.cycles vt)) p.Pipeline.avg_cycles;
  check cb (what ^ ": reconstructed totals") true
    (sorted_totals (S89_profiling.Reconstruct.totals p.Pipeline.plan ~counters)
    = sorted_totals p.Pipeline.totals);
  check cb (what ^ ": prints") true (Interp.output vt <> "");
  check Alcotest.string (what ^ ": PRINT output") (Interp.output vt) (Interp.output vd)

(* [f name cost_model prog] on the 9 demos and the four Table-1 rows,
   each with a final PRINT *)
let on_demos_and_table1 f =
  let open S89_workloads in
  List.iter
    (fun (name, src) -> f name CM.optimized (Program.of_source (with_final_print src)))
    [ ("fig1", Demos.fig1 ()); ("branchy", Demos.branchy ()); ("chunky", Demos.chunky ());
      ("nested_random", Demos.nested_random ()); ("recursive", Demos.recursive ());
      ("irreducible", Demos.irreducible ()); ("computed_goto", Demos.computed_goto ());
      ("sort", Demos.sort ()); ("sieve", Demos.sieve ()) ];
  List.iter
    (fun (name, src) ->
      let base = Program.of_source (with_final_print src) in
      f (name ^ " opt-ON") CM.optimized (Optimize.program base);
      f (name ^ " opt-OFF") CM.unoptimized base)
    [ ("LOOPS", Livermore.source); ("SIMPLE", Simple_code.source ()) ]

let default_backend_parity () =
  check cb "default backend is Bytecode" true
    (Interp.default_config.Interp.backend = Interp.Bytecode);
  on_demos_and_table1 default_matches_tree

(* [Compiled] is the bytecode engine with every node lowered to FALLBACK:
   each executed node escapes to the reference evaluator, and a smart-profiled run
   still equals the Tree oracle in cycles, counters and reconstructed
   totals. *)
let compiled_matches_tree what cost_model prog =
  let module Placement = S89_profiling.Placement in
  let plan = Placement.plan (S89_profiling.Analysis.of_program prog) in
  let run backend =
    let config =
      { Interp.default_config with cost_model; seed = 3; backend;
        instr = Placement.probes plan }
    in
    let vm = Interp.create ~config prog in
    ignore (Interp.run vm);
    vm
  in
  let vt = run Interp.Tree and vc = run Interp.Compiled in
  check cb (what ^ ": runs") true (Interp.steps vc > 0);
  check ci (what ^ ": every step a FALLBACK") (Interp.steps vc) (Interp.fallback_execs vc);
  check ci (what ^ ": Tree runs no FALLBACK") 0 (Interp.fallback_execs vt);
  check ci (what ^ ": cycles") (Interp.cycles vt) (Interp.cycles vc);
  let counters vm = Array.sub (Interp.counters vm) 0 (Placement.n_counters plan) in
  check Alcotest.(array int) (what ^ ": counters") (counters vt) (counters vc);
  let totals vm = sorted_totals (S89_profiling.Reconstruct.totals plan ~counters:(counters vm)) in
  check cb (what ^ ": reconstructed totals") true (totals vt = totals vc);
  check Alcotest.string (what ^ ": PRINT output") (Interp.output vt) (Interp.output vc)

let suite =
  suite
  @ [
      Alcotest.test_case "intrinsics: table-backed lookup" `Quick intrinsics_lookup;
      Alcotest.test_case "default backend: Bytecode, profiles = Tree" `Quick
        default_backend_parity;
      Alcotest.test_case "Compiled lowers every node to FALLBACK" `Quick
        (fun () -> on_demos_and_table1 compiled_matches_tree);
      Alcotest.test_case "optimize: keeps call actuals' passing mode" `Quick
        optimize_keeps_call_actuals;
    ]

(* ---------------- fused DO latches and the array fast paths ----------------

   LATCH runs a DO loop's increment, trip decrement and header test in
   one dispatch, and the array and cell ops run a fast path with one
   range branch beside a generic cold path.  Every guard trip point,
   sample and bounds error must still match the Tree engine exactly. *)

module Bytecode = S89_vm.Bytecode

(* the fused opcodes the census pins *)
let fused_ops =
  Bytecode.
    [ ("LATCH", op_latch); ("LATCHT", op_latcht); ("STAIE", op_staie); ("STAFE", op_stafe);
      ("A2FADD", op_a2fadd); ("A2FSUB", op_a2fsub); ("A2FMUL", op_a2fmul);
      ("AOFF2L", op_aoff2l); ("FADDST", op_faddst); ("FSUBST", op_fsubst);
      ("FMULST", op_fmulst) ]

(* How many of each fused opcode the code Emit produces for [prog] holds,
   summed over its procedures' [Bytecode.census] through a cache that
   records every procedure's code *)
let fused_census ?(backend = Interp.Bytecode) ?(instr = Probe.empty) prog =
  let n = Array.make Bytecode.n_opcodes 0 in
  let cache =
    {
      Interp.layouts = (fun ~salt:_ _ f -> f ());
      codes =
        (fun ~salt:_ _ f ->
          let c = f () in
          Array.iteri (fun op k -> n.(op) <- n.(op) + k) (Bytecode.census c);
          c);
    }
  in
  ignore (Interp.create ~cache ~config:{ Interp.default_config with backend; instr } prog);
  List.map (fun (name, op) -> (name, n.(op))) fused_ops

let spin_src =
  "PROGRAM SPIN\n  DO I = 1, 100000\n    X = X + 1.0\n  ENDDO\nEND\n"

let nest_src =
  {|      PROGRAM NEST
      REAL G(3, 4)
      INTEGER I, J, K
      K = 0
      DO J = 1, 4
        DO I = 1, 3
          G(I, J) = G(I, J) + REAL(I * J)
          K = K + I
        ENDDO
      ENDDO
      PRINT *, K, G(3, 4)
      END
|}

(* An Incr on every DO header's T edge: each DO latch is then a plain
   LATCH, and each loop entry an EDGEPA *)
let header_t_probes prog =
  let t = Probe.make ~n_counters:1 in
  List.iter
    (fun (p : Program.proc) ->
      let cfg = p.Program.cfg in
      let num_nodes = Cfg.num_nodes cfg in
      for node = 0 to num_nodes - 1 do
        match (Cfg.info cfg node).Ir.ir with
        | Ir.Do_test _ ->
            Probe.add_edge_action t ~proc:p.Program.name ~num_nodes ~node ~label:Label.T
              (Probe.Incr 0)
        | _ -> ()
      done)
    (Program.procs prog);
  t

(* Every fused opcode in one small program: the inner DO loop's body
   stores through STAFE, updates G(I, J) in place through AOFF2L, reads
   it through A2FADD, A2FSUB and A2FMUL and stores sums, differences and
   products through FADDST, FSUBST and FMULST (the last update is all
   three: AOFF2, then A2FADD, whose FADD is an FADDST, so the AOFF2 stays
   unfused); the outer loop's body
   stores through STAIE, and both latches are LATCHT; PRINT is a
   FALLBACK that reads the arrays back. *)
let fuse_src =
  {|      PROGRAM FUSE
      REAL G(3, 4), H(3, 4), X, Y, Z
      INTEGER IA(4), I, J, K
      K = 0
      X = 0.0
      Y = 1.0
      Z = 1.0
      DO J = 1, 4
        DO I = 1, 3
          G(I, J) = REAL(I + J)
          G(I, J) = G(I, J) * 2.0
          X = X + G(I, J)
          Y = Y - G(I, J)
          Z = 0.5 * G(I, J)
          H(I, J) = X + Y
          H(I, J) = H(I, J) - Z
          H(I, J) = H(I, J) * Y
          G(I, J) = Y + G(I, J)
        ENDDO
        IA(J) = K + J
        K = K + 1
      ENDDO
      PRINT *, X, Y, Z, K, IA(1), IA(4), G(3, 4), H(3, 4)
      END
|}

(* How many of each fused opcode Emit makes, pinned: a change that
   silently stops fusing fails here without a wall-clock gate.  LOOPS
   and SIMPLE, opt-ON and opt-OFF, without and with smart probes, and
   the small programs the guard, sampling and bounds tests run. *)
let latch_coverage_pinned () =
  let open S89_workloads in
  let counts =
    List.concat_map
      (fun (name, src) ->
        let base = Program.of_source src in
        List.concat_map
          (fun (opt, prog) ->
            [ (Printf.sprintf "%s %s unprobed" name opt, fused_census prog);
              ( Printf.sprintf "%s %s smart" name opt,
                fused_census ~instr:(placement_probes prog) prog ) ])
          [ ("opt-ON", Optimize.program base); ("opt-OFF", base) ])
      [ ("LOOPS", Livermore.source); ("SIMPLE", Simple_code.source ());
        ("SPIN", spin_src); ("NEST", nest_src); ("FUSE", fuse_src) ]
  in
  let fuse = Program.of_source fuse_src in
  let counts = counts @ [ ("FUSE T-edge probes", fused_census ~instr:(header_t_probes fuse) fuse) ] in
  let row l = List.map (fun (_, n) -> n) l in
  check
    Alcotest.(list (pair string (list int)))
    "LATCH LATCHT STAIE STAFE A2FADD A2FSUB A2FMUL AOFF2L FADDST FSUBST FMULST per \
     program, form and probes"
    [ ("LOOPS opt-ON unprobed", [ 0; 87; 0; 111; 9; 9; 12; 4; 21; 3; 1 ]);
      ("LOOPS opt-ON smart", [ 0; 87; 0; 111; 9; 9; 12; 4; 21; 3; 1 ]);
      ("LOOPS opt-OFF unprobed", [ 0; 86; 0; 111; 9; 9; 12; 4; 21; 3; 1 ]);
      ("LOOPS opt-OFF smart", [ 0; 86; 0; 111; 9; 9; 12; 4; 21; 3; 1 ]);
      ("SIMPLE opt-ON unprobed", [ 0; 17; 0; 26; 7; 6; 4; 6; 7; 3; 2 ]);
      ("SIMPLE opt-ON smart", [ 0; 17; 0; 26; 7; 6; 4; 6; 7; 3; 2 ]);
      ("SIMPLE opt-OFF unprobed", [ 0; 17; 0; 26; 7; 6; 4; 6; 7; 3; 2 ]);
      ("SIMPLE opt-OFF smart", [ 0; 17; 0; 26; 7; 6; 4; 6; 7; 3; 2 ]);
      ("SPIN opt-ON unprobed", [ 0; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0 ]);
      ("SPIN opt-ON smart", [ 0; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0 ]);
      ("SPIN opt-OFF unprobed", [ 0; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0 ]);
      ("SPIN opt-OFF smart", [ 0; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0 ]);
      ("NEST opt-ON unprobed", [ 0; 2; 0; 1; 0; 0; 0; 1; 1; 0; 0 ]);
      ("NEST opt-ON smart", [ 0; 2; 0; 1; 0; 0; 0; 1; 1; 0; 0 ]);
      ("NEST opt-OFF unprobed", [ 0; 2; 0; 1; 0; 0; 0; 1; 1; 0; 0 ]);
      ("NEST opt-OFF smart", [ 0; 2; 0; 1; 0; 0; 0; 1; 1; 0; 0 ]);
      ("FUSE opt-ON unprobed", [ 0; 2; 1; 6; 2; 1; 1; 3; 2; 1; 1 ]);
      ("FUSE opt-ON smart", [ 0; 2; 1; 6; 2; 1; 1; 3; 2; 1; 1 ]);
      ("FUSE opt-OFF unprobed", [ 0; 2; 1; 6; 2; 1; 1; 3; 2; 1; 1 ]);
      ("FUSE opt-OFF smart", [ 0; 2; 1; 6; 2; 1; 1; 3; 2; 1; 1 ]);
      ("FUSE T-edge probes", [ 2; 0; 1; 6; 2; 1; 1; 3; 2; 1; 1 ]) ]
    (List.map (fun (what, l) -> (what, row l)) counts);
  (* [Compiled] lowers every node to a FALLBACK: no fused opcode *)
  List.iter
    (fun (name, src) ->
      let base = Program.of_source src in
      List.iter
        (fun prog ->
          List.iter
            (fun (op, n) -> check ci (Printf.sprintf "Compiled %s: no %s" name op) 0 n)
            (fused_census ~backend:Interp.Compiled ~instr:(placement_probes prog) prog
            @ fused_census ~backend:Interp.Compiled prog))
        [ Optimize.program base; base ])
    [ ("LOOPS", Livermore.source); ("SIMPLE", Simple_code.source ()) ]

(* Every step budget over a window of whole loop iterations, and every
   cycle budget over the cycles that window takes: a guard may trip at
   any node a fused op accounts for (LATCH's or LATCHT's three, STAIE's
   and STAFE's edge), and must trip there with Tree's steps, cycles,
   execs, edge counts and arrays.  NEST's and FUSE's windows are their
   whole runs; T-edge probes turn their latches into plain LATCHes. *)
let guard_sweeps () =
  List.iter
    (fun (name, src, window) ->
      let prog = Program.of_source src in
      List.iter
        (fun (ptag, instr) ->
          let base = { Interp.default_config with instr } in
          let lo, hi = window base prog in
          for s = lo to hi do
            agree (Printf.sprintf "%s %s max_steps=%d" name ptag s) { base with max_steps = s } prog
          done;
          let cycles_at s =
            let vm = Interp.create ~config:{ base with max_steps = s } prog in
            ignore (Interp.run_result vm);
            Interp.cycles vm
          in
          for c = cycles_at lo to cycles_at hi do
            agree (Printf.sprintf "%s %s max_cycles=%d" name ptag c) { base with max_cycles = c } prog
          done)
        [ ("unprobed", Probe.empty); ("smart", placement_probes prog);
          ("T-edge probes", header_t_probes prog) ])
    (let whole config prog =
       let vm = Interp.create ~config prog in
       ignore (Interp.run vm);
       (1, Interp.steps vm + 1)
     in
     [ (* two whole iterations are 8 steps *)
       ("SPIN", spin_src, fun _ _ -> (20, 40));
       ("NEST", nest_src, whole); ("FUSE", fuse_src, whole) ])

(* every sample interval from 1 to 7 lands each sample on the node
   Tree charges it to, among them samples due at each of LATCHT's three
   nodes (its header among them) and at STAIE's and STAFE's edge *)
let sampling_parity () =
  List.iter
    (fun (name, src) ->
      let prog = Program.of_source src in
      List.iter
        (fun (ptag, instr) ->
          for k = 1 to 7 do
            agree
              (Printf.sprintf "%s %s sample_interval=%d" name ptag k)
              { Interp.default_config with sample_interval = Some k; instr }
              prog
          done)
        [ ("unprobed", Probe.empty); ("T-edge probes", header_t_probes prog) ])
    [ ("SPIN 50", "PROGRAM SPIN\n  DO I = 1, 50\n    X = X + 1.0\n  ENDDO\nEND\n");
      ("NEST", nest_src); ("FUSE", fuse_src) ]

(* A subscript below or above each dimension, on a 1-D and a 2-D array,
   INTEGER and REAL, loaded and stored: the generic cold path raises
   Tree's RUN001 message after Tree's steps and cycles (the access runs
   inside a DO loop, after a LATCH) *)
let bounds_errors_agree () =
  List.iter
    (fun (ty, arr, rhs) ->
      List.iter
        (fun (dims, subs, bad) ->
          let decl = Printf.sprintf "%s %s(%s)" ty arr dims in
          List.iter
            (fun (what, stmt, fused) ->
              let src =
                Printf.sprintf
                  "      PROGRAM B\n      %s\n      INTEGER I, J, K, M\n      REAL X\n\
                  \      K = 0\n      X = 0.0\n      DO M = 1, 2\n      I = 2\n      J = 2\n\
                  \      K = K + M\n      ENDDO\n      I = %d\n      J = %d\n      %s\n      END\n"
                  decl (fst bad) (snd bad) stmt
              in
              let prog = Program.of_source src in
              let what = Printf.sprintf "%s %s(%s) %s" ty arr subs what in
              let config = Interp.default_config in
              let ended, _, _ = observe config Interp.Tree prog in
              check cb (what ^ ": Tree raises RUN001") true
                (String.starts_with ~prefix:"RUN001 " ended);
              (match fused with
              | Some op -> check ci (what ^ ": one " ^ op) 1 (List.assoc op (fused_census prog))
              | None -> ());
              agree what config prog)
            ([ ("load", Printf.sprintf "%s = %s(%s)" rhs arr subs, None);
               ("store", Printf.sprintf "%s(%s) = %s" arr subs rhs, None) ]
            @
            (* a 2-D REAL element as a float op's right operand: the
               fused op's range branch and cold path *)
            if ty = "REAL" && String.contains dims ',' then
              [ ("fused +", Printf.sprintf "X = X + %s(%s)" arr subs, Some "A2FADD");
                ("fused -", Printf.sprintf "X = X - %s(%s)" arr subs, Some "A2FSUB");
                ("fused *", Printf.sprintf "X = 2.0 * %s(%s)" arr subs, Some "A2FMUL") ]
            else []))
        [ ("3", "I", (0, 1)); ("3", "I", (4, 1));
          ("3, 4", "I, J", (0, 2)); ("3, 4", "I, J", (4, 2));
          ("3, 4", "I, J", (2, 0)); ("3, 4", "I, J", (2, 5));
          ("3, 4", "I, J", (0, 5)); ("3", "I + 1", (3, 1)) ])
    [ ("INTEGER", "IA", "K"); ("REAL", "RA", "X") ]

(* A DO step that is zero at run time is named, by every engine, in the
   source form and optimized, where the trip count's division would
   fail: after the upper bound's evaluation (KF prints first), with
   Tree's steps and cycles.  The step is read once, at loop entry: a
   step variable set to 0 inside the loop changes nothing. *)
let zero_step_named () =
  let src step_decl step =
    Printf.sprintf
      "      PROGRAM Z\n      %s\n      DO 10 I = 1, KF(3), %s\n      X = X + 1.0\n\
      \   10 CONTINUE\n      END\n\n      INTEGER FUNCTION KF(N)\n      PRINT *, N\n\
      \      KF = N\n      END\n"
      step_decl step
  in
  List.iter
    (fun (what, src, prints) ->
      let base = Program.of_source src in
      List.iter
        (fun (form, prog) ->
          let what = what ^ " " ^ form in
          let ended, output, _ = observe Interp.default_config Interp.Tree prog in
          check Alcotest.string (what ^ ": Tree's error") "RUN001 Z: DO I has a zero step" ended;
          (* observe's output ends with the main program's (no) arrays *)
          check Alcotest.string (what ^ ": output before the error") (prints ^ "\n") output;
          agree what Interp.default_config prog)
        [ ("opt-OFF", base); ("opt-ON", Optimize.program base) ])
    [ ("variable step", src "K = 0" "K", "3 \n");
      ("expression step", src "J = 5" "J - J", "3 \n");
      (* optimized, the trip count is MAX0(9 / 0, 0): all INTEGER *)
      ( "literal bounds",
        "      PROGRAM Z\n      K = 0\n      DO 10 I = 1, 10, K\n      X = X + 1.0\n\
        \   10 CONTINUE\n      END\n",
        "" ) ];
  check_backends_agree "step set to 0 inside its loop"
    (Program.of_source
       "      PROGRAM Z\n      K = 1\n      DO 10 I = 1, 3, K\n      K = 0\n\
       \   10 CONTINUE\n      PRINT *, I, K\n      END\n")

let suite =
  suite
  @ [
      Alcotest.test_case "backends: a zero DO step is named" `Quick zero_step_named;
      Alcotest.test_case "emit: LATCH coverage pinned" `Quick latch_coverage_pinned;
      Alcotest.test_case "backends: guard sweeps over fused latches" `Quick guard_sweeps;
      Alcotest.test_case "backends: samples agree, intervals 1-7" `Quick sampling_parity;
      Alcotest.test_case "backends: array bounds errors agree" `Quick bounds_errors_agree;
    ]
