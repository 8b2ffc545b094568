(* Postdominators: dominators of the reversed graph rooted at the exit.

   The control-dependence construction (Definition 2 of the paper) is stated
   in terms of postdominance in the ECFG, whose unique exit is the STOP
   node.  The reversed graph is the transposed view of the CSR arrays, not a
   copy. *)

type t = { dom : Dominator.t }

let compute g ~exit_ =
  { dom = Dominator.compute (Digraph.transpose g) ~root:exit_ }

let ipostdom t n = Dominator.idom t.dom n

let ipostdom_id t n = Dominator.idom_id t.dom n

let reachable t n = Dominator.reachable t.dom n

let depth t n = Dominator.depth t.dom n

let children t n = Dominator.children t.dom n

let postdominates t u v = Dominator.dominates t.dom u v

let strictly_postdominates t u v = Dominator.strictly_dominates t.dom u v

let postdominators t v = Dominator.dominators t.dom v
