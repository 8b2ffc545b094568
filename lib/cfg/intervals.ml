(* Interval structure of a reducible CFG (paper §2).

   "A reducible control flow graph has a unique depth-first spanning tree
   and hence a unique interval structure ...  The intervals identify the
   loops in the program."

   We realize the interval structure as the natural-loop forest: every
   back-edge target is a header; the interval of header [h] is the union of
   the natural loops of all back edges into [h]; the whole procedure body is
   the outermost interval, headed by the entry node (the paper's
   HDR_PARENT(h) = 0 case).  The entry must have no predecessors
   (lowering's ENTRY node has none) so it can never itself be a loop
   header.

   One DFS and one dominator tree do all the work:
   - reducibility (Hecht–Ullman): the graph is reducible iff every
     retreating edge of the DFS is a back edge, i.e. its target dominates
     its source;
   - the loop forest (Tarjan/Havlak): headers are taken in decreasing DFS
     preorder, so inner loops come first, and each natural loop is found
     by a backward walk from its back-edge sources over a union-find that
     has already collapsed every inner loop into its header — O(n α(n));
   - membership: ordering the nodes by the header-tree preorder of their
     innermost header makes every interval one contiguous slice, and
     "v is in the interval of h" is the O(1) test [encloses h (hdr v)]. *)

open S89_graph

exception Irreducible of (int * int) list
exception Entry_has_preds of int

type t = {
  root : int; (* entry node; id of the outermost interval *)
  hid : int array; (* per node: its interval id if it heads one (root 0), else -1 *)
  ivid : int array; (* per node: the id of its innermost interval *)
  hnode : int array; (* per interval id: the heading node *)
  tree : Lca.t; (* the header tree over interval ids *)
  header_list : int list; (* real headers, outermost-first *)
  back_srcs : int list array; (* per interval id: sources of its back edges *)
  exits : Label.t Digraph.edge list array; (* per interval id: its exit edges *)
  order : int array; (* nodes by the header-tree preorder of their interval *)
  start : int array; (* per preorder index: its first slot in [order] *)
}

let compute (type a) (cfg : a Cfg.t) =
  let c = Cfg.graph cfg in
  let entry = Cfg.entry cfg in
  let n = c.n in
  let num = Dfs.number c ~root:entry in
  let dom = Dominator.of_dfs c num in
  (* back-edge sources per header, in edge order (by source, then slot);
     a retreating edge whose target does not dominate its source makes
     the graph irreducible *)
  let back = Array.make n [] in
  let reducible = ref true in
  for u = n - 1 downto 0 do
    if Dfs.reachable num u then
      for i = c.succ_off.(u + 1) - 1 downto c.succ_off.(u) do
        let v = c.succ_dst.(i) in
        if Dfs.is_ancestor num v u then
          if Dominator.dominates dom v u then back.(v) <- u :: back.(v)
          else reducible := false
      done
  done;
  if not !reducible then
    raise
      (Irreducible
         (List.map
            (fun (e : Label.t Digraph.edge) -> (e.src, e.dst))
            (Reducibility.offending_edges c ~root:entry)));
  if c.pred_off.(entry + 1) > c.pred_off.(entry) then raise (Entry_has_preds entry);
  let is_hdr v = back.(v) <> [] in
  (* union-find: [uf] links each collapsed node to the header of the loop
     that absorbed it; [find] returns the outermost collapsed header *)
  let uf = Array.init n Fun.id in
  let find v =
    let r = ref v in
    while uf.(!r) <> !r do
      r := uf.(!r)
    done;
    let x = ref v in
    while uf.(!x) <> !r do
      let next = uf.(!x) in
      uf.(!x) <- !r;
      x := next
    done;
    !r
  in
  (* [hdr]: innermost header per node; [up]: enclosing header per header.
     A node joins the loop being collapsed when the backward walk first
     finds it; the union makes [find] skip it from then on. *)
  let hdr = Array.make n entry and up = Array.make n entry in
  let work = Array.make n 0 and sp = ref 0 and w = ref 0 in
  let visit y =
    let y = find y in
    if y <> !w then begin
      uf.(y) <- !w;
      if is_hdr y then up.(y) <- !w else hdr.(y) <- !w;
      work.(!sp) <- y;
      incr sp
    end
  in
  for i = num.count - 1 downto 0 do
    w := num.order.(i);
    if is_hdr !w then begin
      hdr.(!w) <- !w;
      List.iter visit back.(!w);
      while !sp > 0 do
        decr sp;
        let x = work.(!sp) in
        for j = c.pred_off.(x) to c.pred_off.(x + 1) - 1 do
          let y = c.pred_src.(j) in
          if Dfs.reachable num y then visit y
        done
      done
    end
  done;
  (* compact interval ids: the root is 0, headers follow in id order *)
  let headers = ref [] in
  for v = n - 1 downto 0 do
    if is_hdr v then headers := v :: !headers
  done;
  let hid = Array.make n (-1) in
  hid.(entry) <- 0;
  List.iteri (fun i h -> hid.(h) <- i + 1) !headers;
  let k = List.length !headers + 1 in
  let hnode = Array.make k entry and parent = Array.make k (-1) in
  let back_srcs = Array.make k [] in
  List.iter
    (fun h ->
      hnode.(hid.(h)) <- h;
      parent.(hid.(h)) <- hid.(up.(h));
      back_srcs.(hid.(h)) <- back.(h))
    !headers;
  let tree = Lca.of_parents parent in
  let header_list =
    List.stable_sort
      (fun a b -> compare (Lca.depth tree hid.(a)) (Lca.depth tree hid.(b)))
      !headers
  in
  let ivid = Array.map (fun h -> hid.(h)) hdr in
  (* counting sort of the nodes by the preorder of their interval *)
  let start = Array.make (k + 1) 0 in
  Array.iter
    (fun i ->
      let p = Lca.preorder tree i in
      start.(p + 1) <- start.(p + 1) + 1)
    ivid;
  for p = 0 to k - 1 do
    start.(p + 1) <- start.(p + 1) + start.(p)
  done;
  let fill = Array.sub start 0 k and order = Array.make n 0 in
  Array.iteri
    (fun v i ->
      let p = Lca.preorder tree i in
      order.(fill.(p)) <- v;
      fill.(p) <- fill.(p) + 1)
    ivid;
  (* exit edges: an edge (u,v) leaves every interval from HDR(u) up to,
     but excluding, the first one that encloses v *)
  let exits = Array.make k [] in
  for u = n - 1 downto 0 do
    for i = c.succ_off.(u + 1) - 1 downto c.succ_off.(u) do
      let iv = ivid.(c.succ_dst.(i)) in
      let h = ref ivid.(u) in
      while not (Lca.is_ancestor tree !h iv) do
        exits.(!h) <-
          { Digraph.src = u; dst = c.succ_dst.(i); label = c.succ_lbl.(i) } :: exits.(!h);
        h := parent.(!h)
      done
    done
  done;
  { root = entry; hid; ivid; hnode; tree; header_list; back_srcs; exits; order; start }

let root t = t.root

let headers t = t.header_list

let is_header t h = t.hid.(h) > 0

let hdr t v = t.hnode.(t.ivid.(v))

(* the interval id of a header or the root *)
let id fn t h =
  let i = t.hid.(h) in
  if i < 0 then invalid_arg (Printf.sprintf "Intervals.%s: %d is not a header" fn h);
  i

(* HDR_PARENT: None encodes the paper's "0" (outermost interval). *)
let hdr_parent t h =
  if h = t.root then None
  else
    match Lca.parent t.tree (id "hdr_parent" t h) with
    | Some p -> Some t.hnode.(p)
    | None -> None

let hdr_lca t h1 h2 = t.hnode.(Lca.lca t.tree (id "hdr_lca" t h1) (id "hdr_lca" t h2))

let interval_depth t h = Lca.depth t.tree (id "interval_depth" t h)

(* [encloses t a b]: interval headed by [a] contains (reflexively) the
   interval headed by [b] in the header tree. *)
let encloses t a b =
  a = b || (t.hid.(a) >= 0 && t.hid.(b) >= 0 && Lca.is_ancestor t.tree t.hid.(a) t.hid.(b))

let mem t h v = Lca.is_ancestor t.tree (id "mem" t h) t.ivid.(v)

(* the slice of [order] holding the members of interval [h] *)
let bounds fn t h =
  let i = id fn t h in
  let p = Lca.preorder t.tree i in
  (t.start.(p), t.start.(p + Lca.subtree_size t.tree i))

let members t h =
  let lo, hi = bounds "members" t h in
  Array.sub t.order lo (hi - lo)

let real fn t h =
  if h = t.root then invalid_arg (Printf.sprintf "Intervals.%s: %d is not a header" fn h);
  id fn t h

let back_edge_sources t h = t.back_srcs.(real "back_edge_sources" t h)

let exit_edges t h = t.exits.(real "exit_edges" t h)

let pp fmt t =
  Fmt.pf fmt "@[<v>intervals: root=%d" t.root;
  List.iter
    (fun h ->
      let ms = members t h in
      Array.sort compare ms;
      Fmt.pf fmt "@,  header %d (parent %d, depth %d): {%a}" h
        (Option.value ~default:(-1) (hdr_parent t h))
        (interval_depth t h)
        Fmt.(array ~sep:comma int)
        ms)
    t.header_list;
  Fmt.pf fmt "@]"
