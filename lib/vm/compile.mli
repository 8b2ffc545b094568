(** Closure compilation: MF77 expressions and IR nodes are compiled to
    OCaml closures over integer slot indices.  Variable resolution,
    intrinsic dispatch, successor lookup, constant folding of literal
    operands and array stride/bounds precomputation all happen once, at
    compile time; running a node is closure calls over a {!Env.slots}
    frame.  The bytecode engine runs a node this way whenever it cannot
    lower it natively (its FALLBACK op), and for every node under the
    [Compiled] backend. *)

module Ast = S89_frontend.Ast
module Ir = S89_frontend.Ir
module Program = S89_frontend.Program
module Prng = S89_util.Prng
open S89_cfg

(** Runtime hooks shared by all compiled closures of one VM instance.
    [call] is tied to the interpreter's procedure-call machinery after
    compilation (breaking the compile/interp dependency cycle). *)
type rt = {
  rng : Prng.t;
  out : Buffer.t;
  mutable call : Program.proc -> Env.binding list -> Value.t option;
}

val make_rt : rng:Prng.t -> out:Buffer.t -> rt

(** A compiled expression: evaluate against a frame. *)
type cexpr = Env.slots -> Value.t

(** Static typing facts, shared with the bytecode emitter so both
    backends agree exactly on what is statically typed (and therefore on
    which unboxed fast paths are sound).  All return [None]/[false] for
    dummy arguments, whose bindings the caller controls. *)

val static_dims : Env.layout -> int -> int list option
(** Declared dimensions of a non-dummy array slot, when none is [-1]. *)

val static_scalar_ty : Env.layout -> int -> Ast.typ option
(** Value type of a non-dummy scalar or PARAMETER slot. *)

val static_elt_ty : Env.layout -> int -> Ast.typ option
(** Element type of a non-dummy array slot. *)

val static_num : Env.layout -> Ast.expr -> Ast.typ option
(** The numeric type generic evaluation of the expression is guaranteed
    to yield, or [None] when unknown/LOGICAL/call-dependent. *)

val static_int : Env.layout -> Ast.expr -> bool

val compile_expr : rt -> Program.t -> Env.layout -> Ast.expr -> cexpr

(** Compiled argument: Fortran calling conventions (variables and array
    elements by reference, other expressions by copy-in). *)
val compile_arg : rt -> Program.t -> Env.layout -> Ast.expr -> Env.slots -> Env.binding

(** Evaluate compiled arguments left to right. *)
val eval_bindings : (Env.slots -> Env.binding) array -> Env.slots -> Env.binding list

(** Sentinels returned by compiled node steps instead of a successor
    index. *)
val ret_code : int

val stop_code : int

(** [compile_node rt prog layout ~node_id ~succ ir] compiles one IR node
    to a step closure returning the successor {e index} (into [succ]) to
    take, or {!ret_code} / {!stop_code}.  Successor indices, case
    dispatch tables and probe-free fast paths are resolved at compile
    time. *)
val compile_node :
  rt ->
  Program.t ->
  Env.layout ->
  node_id:int ->
  succ:Label.t array ->
  Ir.node ->
  Env.slots ->
  int
