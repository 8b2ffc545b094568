(* Architectural cost model.

   §4: "the (average) local execution time of each node u ... has already
   been estimated, and is stored as COST(u).  A simple approach is to
   simply count the number of instructions required to implement a
   primitive operation."  That is what we do, in abstract cycles.

   Two presets stand in for the paper's "compiler optimization ON/OFF" on
   the IBM 3090 + VS Fortran: with optimization on, scalars live in
   registers and subscript arithmetic is strength-reduced (cheap); with
   optimization off, every scalar access is a memory reference and every
   subscript a multiply-add chain.  The instrumented-run overhead of one
   counter update ([c_counter]) is the same in both, as in the real
   system: the profiling code is ordinary compiled code. *)

module Ast = S89_frontend.Ast
module Intrinsics = S89_frontend.Intrinsics
module Ir = S89_frontend.Ir

type t = {
  name : string;
  c_const : int; (* literal operand *)
  c_var : int; (* scalar access *)
  c_assign : int; (* scalar store *)
  c_index : int; (* per-dimension subscript arithmetic *)
  c_elem : int; (* array element load/store *)
  c_add : int;
  c_mul : int;
  c_div : int;
  c_pow : int;
  c_rel : int;
  c_logic : int;
  c_neg : int;
  c_branch : int; (* conditional branch *)
  c_goto : int; (* unconditional jump *)
  c_call : int; (* call/return linkage per invocation *)
  c_intrinsic_cheap : int;
  c_intrinsic_moderate : int;
  c_intrinsic_expensive : int;
  c_print : int;
  c_counter : int; (* one profiling counter update: load+add+store *)
}

(* "Compiler optimization ON": registers + strength reduction. *)
let optimized =
  {
    name = "opt-on";
    c_const = 0;
    c_var = 1;
    c_assign = 1;
    c_index = 1;
    c_elem = 2;
    c_add = 1;
    c_mul = 3;
    c_div = 8;
    c_pow = 12;
    c_rel = 1;
    c_logic = 1;
    c_neg = 1;
    c_branch = 2;
    c_goto = 1;
    c_call = 20;
    c_intrinsic_cheap = 3;
    c_intrinsic_moderate = 8;
    c_intrinsic_expensive = 40;
    c_print = 50;
    c_counter = 3;
  }

(* "Compiler optimization OFF": every scalar access is a memory reference,
   subscripts are recomputed with multiplies. *)
let unoptimized =
  {
    name = "opt-off";
    c_const = 1;
    c_var = 4;
    c_assign = 5;
    c_index = 6;
    c_elem = 5;
    c_add = 2;
    c_mul = 6;
    c_div = 12;
    c_pow = 18;
    c_rel = 2;
    c_logic = 2;
    c_neg = 2;
    c_branch = 4;
    c_goto = 2;
    c_call = 35;
    c_intrinsic_cheap = 6;
    c_intrinsic_moderate = 14;
    c_intrinsic_expensive = 60;
    c_print = 60;
    c_counter = 3;
  }

let class_cost t = function
  | Intrinsics.Cheap -> t.c_intrinsic_cheap
  | Intrinsics.Moderate -> t.c_intrinsic_moderate
  | Intrinsics.Expensive -> t.c_intrinsic_expensive

(* Static cost of evaluating an expression, excluding user-function bodies
   (charged dynamically by the VM and interprocedurally by the estimator:
   [Cost] adds callee TIME at the call sites).  MF77 has no short-circuit
   evaluation, so this is exact.  Plain recursion with an accumulator:
   COST(u) of every node is computed on each [Interp.create], so the walk
   allocates nothing. *)
let rec expr_cost t (e : Ast.expr) =
  match e with
  | Ast.Int _ | Real _ | Bool _ -> t.c_const
  | Var _ -> t.c_var
  | Index (_, idx) -> index_cost t 0 idx + t.c_elem
  | Call (f, args) -> (
      exprs_cost t 0 args
      +
      match Intrinsics.lookup f with
      | Some i -> class_cost t i.Intrinsics.cost
      | None -> t.c_call)
  | Unop (Ast.Neg, e) -> t.c_neg + expr_cost t e
  | Unop (Ast.Not, e) -> t.c_logic + expr_cost t e
  | Binop (op, a, b) ->
      let c =
        match op with
        | Ast.Add | Sub -> t.c_add
        | Mul -> t.c_mul
        | Div -> t.c_div
        | Pow -> t.c_pow
        | Lt | Le | Gt | Ge | Eq | Ne -> t.c_rel
        | And | Or -> t.c_logic
      in
      c + expr_cost t a + expr_cost t b

and exprs_cost t acc = function
  | [] -> acc
  | e :: es -> exprs_cost t (acc + expr_cost t e) es

(* subscripts: each dimension's expression plus its address arithmetic *)
and index_cost t acc = function
  | [] -> acc
  | i :: rest -> index_cost t (acc + expr_cost t i + t.c_index) rest

let lvalue_cost t = function
  | Ast.Lvar _ -> t.c_assign
  | Ast.Larr (_, idx) -> index_cost t 0 idx + t.c_elem

(* Local cost of one execution of a CFG node — the paper's COST(u), except
   that user-function bodies referenced from expressions are not included
   (rule 2 of §4 adds them). *)
let node_cost t (ir : Ir.node) =
  match ir with
  | Ir.Entry -> 0
  | Nop _ -> t.c_goto
  | Assign (lv, e) -> lvalue_cost t lv + expr_cost t e
  | Branch e -> t.c_branch + expr_cost t e
  | Do_test _ -> t.c_branch + t.c_var + t.c_rel (* trip > 0 *)
  | Select (e, _) -> t.c_branch + t.c_goto + expr_cost t e
  | Call (_, args) -> exprs_cost t t.c_call args
  | Return -> t.c_goto
  | Stop -> 0
  | Print es -> exprs_cost t t.c_print es
