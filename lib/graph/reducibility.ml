(* Reducibility testing.

   A flowgraph is reducible iff deleting every edge whose target dominates
   its source (the natural-loop back edges) leaves an acyclic graph
   (Aho–Sethi–Ullman §10.4, Hecht–Ullman).  The paper assumes reducible
   CFGs and points at node splitting (see Node_split) for the rest. *)

(* Edges whose target dominates their source, among reachable nodes. *)
let natural_back_edges g ~root =
  let dom = Dominator.compute g ~root in
  Digraph.fold_edges
    (fun acc e ->
      if
        Dominator.reachable dom e.Digraph.src
        && Dominator.dominates dom e.dst e.src
      then e :: acc
      else acc)
    [] g
  |> List.rev

(* The graph with natural back edges removed (labels erased). *)
let forward_part g ~root =
  let dom = Dominator.compute g ~root in
  let fwd = Digraph.Builder.create ~edges:(Digraph.num_edges g) () in
  ignore (Digraph.Builder.add_nodes fwd (Digraph.num_nodes g));
  Digraph.iter_edges
    (fun e ->
      if
        Dominator.reachable dom e.Digraph.src
        && Dominator.reachable dom e.dst
        && not (Dominator.dominates dom e.dst e.src)
      then Digraph.Builder.add_edge fwd ~src:e.src ~dst:e.dst ~label:())
    g;
  Digraph.Builder.freeze fwd

let is_reducible g ~root = Topo.is_acyclic (forward_part g ~root)

(* Retreating edges of the DFS that are not natural back edges — the
   witnesses of irreducibility that Node_split removes.  By Hecht–Ullman
   a graph is reducible iff every retreating edge of a DFS (any DFS) is a
   natural back edge, so the list is empty exactly on reducible graphs. *)
let offending_edges g ~root =
  let dom = Dominator.compute g ~root in
  let num = Dfs.number g ~root in
  Digraph.fold_edges
    (fun acc e ->
      if
        Dfs.reachable num e.Digraph.src
        && Dfs.reachable num e.dst
        && Dfs.classify num e = Dfs.Back
        && not (Dominator.dominates dom e.dst e.src)
      then e :: acc
      else acc)
    [] g
  |> List.rev

(* The same test as a yes/no, over arrays the caller has.  The
   immediate-dominator array is built at the first retreating edge (a
   graph without one needs none), and each retreating edge is answered
   by walking up from its source until the walk passes its target in
   reverse postorder (dominators precede what they dominate). *)
let reducible_dfs (c : 'l Digraph.t) (num : Dfs.numbering) =
  let idom = lazy (Dominator.idoms c num) in
  let rpo v = num.count - 1 - num.post.(v) in
  let rec dominated_by v u =
    u = v || (u >= 0 && rpo u > rpo v && dominated_by v (Lazy.force idom).(u))
  in
  let ok = ref true and u = ref 0 in
  while !ok && !u < c.n do
    if Dfs.reachable num !u then
      for i = c.succ_off.(!u) to c.succ_off.(!u + 1) - 1 do
        let v = c.succ_dst.(i) in
        if Dfs.is_ancestor num v !u && not (dominated_by v !u) then ok := false
      done;
    incr u
  done;
  !ok

let back_edges_if_reducible g ~root =
  if is_reducible g ~root then Some (natural_back_edges g ~root) else None
