(* Depth-first traversal, numbering and edge classification.

   Reverse postorder drives the dominator fixpoint and the FCDG back-edge
   test; the preorder/postorder pair gives O(1) ancestor queries for
   the reducibility test and back-edge classification.  Every traversal
   reads the graph's CSR arrays. *)

type numbering = {
  order : int array; (* nodes in DFS preorder (only the visited prefix) *)
  pre : int array; (* preorder index, -1 if unreachable *)
  post : int array; (* postorder index, -1 if unreachable *)
  parent : int array; (* DFS tree parent, -1 for root/unreachable *)
  count : int; (* number of reachable nodes *)
}

type edge_kind = Tree | Back | Forward | Cross

(* Iterative DFS over the CSR arrays: the tree's parent links are the
   stack, and a per-node cursor into its out-edge slots says where to
   resume, so deep CFGs cannot blow the OCaml stack and nothing is built
   per node.  Successors are visited in adjacency order, exactly as a
   recursive DFS would. *)
let number (c : 'l Digraph.t) ~root =
  let n = c.n in
  let pre = Array.make n (-1) in
  let post = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let order = Array.make n (-1) in
  let cursor = Array.make n 0 in
  let pre_ctr = ref 0 and post_ctr = ref 0 in
  let enter u =
    pre.(u) <- !pre_ctr;
    order.(!pre_ctr) <- u;
    incr pre_ctr;
    cursor.(u) <- c.succ_off.(u)
  in
  enter root;
  let u = ref root in
  while !u >= 0 do
    let i = cursor.(!u) in
    if i = c.succ_off.(!u + 1) then begin
      post.(!u) <- !post_ctr;
      incr post_ctr;
      u := parent.(!u)
    end
    else begin
      cursor.(!u) <- i + 1;
      let v = c.succ_dst.(i) in
      if pre.(v) < 0 then begin
        parent.(v) <- !u;
        enter v;
        u := v
      end
    end
  done;
  { order; pre; post; parent; count = !pre_ctr }

let reachable num n = num.pre.(n) >= 0

(* [is_ancestor num u v]: u is an ancestor of v in the DFS tree (reflexive). *)
let is_ancestor num u v =
  num.pre.(u) >= 0 && num.pre.(v) >= 0
  && num.pre.(u) <= num.pre.(v)
  && num.post.(v) <= num.post.(u)

let classify num (e : 'l Digraph.edge) =
  let u = e.src and v = e.dst in
  if not (reachable num u && reachable num v) then
    invalid_arg "Dfs.classify: edge touches unreachable node";
  (* Self loops and ancestors are Back; among descendant edges, parallel
     copies of the tree edge also report Tree (the distinction is irrelevant
     to every client, which only cares about Back). *)
  if is_ancestor num v u then Back
  else if is_ancestor num u v then if num.parent.(v) = u then Tree else Forward
  else Cross

let rev_postorder_of num =
  let out = Array.make num.count (-1) in
  Array.iteri (fun v p -> if p >= 0 then out.(num.count - 1 - p) <- v) num.post;
  out

let rev_postorder g ~root = rev_postorder_of (number g ~root)

(* Reverse-postorder index per node; unreachable nodes get max_int so they
   sort last and never look like ancestors. *)
let rpo_index g ~root =
  let num = number g ~root in
  let idx = num.post in
  Array.iteri (fun v p -> idx.(v) <- (if p < 0 then max_int else num.count - 1 - p)) idx;
  idx

let back_edges g ~root =
  let num = number g ~root in
  Digraph.fold_edges
    (fun acc e ->
      if reachable num e.Digraph.src && reachable num e.dst && classify num e = Back
      then e :: acc
      else acc)
    [] g
  |> List.rev
