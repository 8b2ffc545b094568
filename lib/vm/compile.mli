(** Closure compilation: MF77 expressions and IR nodes are compiled to
    OCaml closures over integer slot indices.  Variable resolution,
    intrinsic dispatch and successor lookup happen once, at compile time;
    running a node is closure calls over a {!Env.slots} frame, evaluating
    exactly as the tree-walking evaluator does (boxed values, same order,
    same errors).  The bytecode engine runs a node this way whenever
    {!Emit} cannot lower it natively (its FALLBACK op), and for every node
    under the [Compiled] backend. *)

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

val compile_expr : rt -> Program.t -> Env.layout -> Ast.expr -> cexpr

(** Returned by a compiled node step after RETURN, instead of a successor
    index.  (A STOP step returns another negative sentinel.) *)
val ret_code : int

(** [compile_node rt prog layout ~node_id ~succ ir] compiles one IR node
    to a step closure returning the successor {e index} (into [succ]) to
    take, {!ret_code} after RETURN, or a different negative code after
    STOP.  Successor indices and case dispatch tables are resolved at
    compile time. *)
val compile_node :
  rt ->
  Program.t ->
  Env.layout ->
  node_id:int ->
  succ:Label.t array ->
  Ir.node ->
  Env.slots ->
  int
