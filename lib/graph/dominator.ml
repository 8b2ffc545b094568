(* Dominator trees via the Cooper–Harvey–Kennedy iterative algorithm
   ("A Simple, Fast Dominance Algorithm", 2001).

   Runs on arbitrary flowgraphs (not just reducible ones) and reads the
   predecessor side of the graph's CSR arrays directly, so a pass over a
   node's predecessors allocates nothing.  Postdominators run the same
   code on the transposed graph (see Postdom).  The finished
   tree is kept as an Lca forest, which makes dominance an O(1) range
   check. *)

type t = {
  root : int;
  idom : int array; (* immediate dominator; -1 for the root and unreachable nodes *)
  tree : Lca.t; (* the dominator tree over [idom]; unreachable nodes are singletons *)
}

let idoms (c : 'l Digraph.t) (num : Dfs.numbering) =
  let n = c.n in
  let root = num.order.(0) in
  let rpo = Dfs.rev_postorder_of num in
  let rpo_idx v = num.count - 1 - num.post.(v) in
  let idom = Array.make n (-1) in
  idom.(root) <- root;
  (* Walk the two candidates up the (partially built) dominator tree until
     they meet; comparisons use RPO indices. *)
  let rec intersect u v =
    if u = v then u
    else if rpo_idx u > rpo_idx v then intersect idom.(u) v
    else intersect u idom.(v)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> root then begin
          let d = ref (-1) in
          for i = c.pred_off.(b) to c.pred_off.(b + 1) - 1 do
            let p = c.pred_src.(i) in
            (* skip predecessors not processed yet (or unreachable) *)
            if idom.(p) <> -1 then d := if !d = -1 then p else intersect !d p
          done;
          if !d <> -1 && idom.(b) <> !d then begin
            idom.(b) <- !d;
            changed := true
          end
        end)
      rpo
  done;
  idom.(root) <- -1;
  idom

let of_dfs c (num : Dfs.numbering) =
  let idom = idoms c num in
  { root = num.order.(0); idom; tree = Lca.of_parents idom }

let compute g ~root = of_dfs g (Dfs.number g ~root)

let idom t n = if t.idom.(n) = -1 then None else Some t.idom.(n)

let idom_id t n = t.idom.(n)

let reachable t n = n = t.root || t.idom.(n) <> -1

let depth t n = if reachable t n then Lca.depth t.tree n else -1

let children t n = Lca.children t.tree n

(* Reflexive dominance: [u] is an ancestor of [v] in the tree. *)
let dominates t u v = reachable t u && reachable t v && Lca.is_ancestor t.tree u v

let strictly_dominates t u v = u <> v && dominates t u v

let dominators t v =
  if not (reachable t v) then []
  else begin
    let rec go x acc = if x = t.root then x :: acc else go t.idom.(x) (x :: acc) in
    go v []
  end
