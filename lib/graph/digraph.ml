(* Directed labelled multigraphs over dense integer node ids.

   This is the common substrate for every analysis in the library: control
   flow graphs, control dependence graphs, call graphs.  Nodes are integers
   [0 .. num_nodes-1] allocated by [add_node]; parallel edges with distinct
   (or even equal) labels are permitted, as required by Definition 1 of the
   paper (a CFG "is in general a multi-graph").

   A graph lives in one of two representations.  While it is being built
   it keeps per-node edge lists, most recent first, so that insertion and
   removal are cheap.  [freeze] turns it, in place and for good, into flat
   CSR arrays for both directions plus each node's edge list in insertion
   order, built once: from then on every reader is an array read, and the
   list readers return the stored lists instead of reversed copies. *)

type 'l edge = { src : int; dst : int; label : 'l }

type 'l csr = {
  n : int;
  succ_off : int array;
  succ_dst : int array;
  succ_lbl : 'l array;
  pred_off : int array;
  pred_src : int array;
  pred_lbl : 'l array;
}

type 'l lists = {
  succs : 'l edge list Vec.t; (* out-edges, most recently added first *)
  preds : 'l edge list Vec.t; (* in-edges, most recently added first *)
}

type 'l rep =
  | Building of 'l lists
  | Frozen of {
      csr : 'l csr;
      out_ : 'l edge list array; (* out-edges, insertion order *)
      in_ : 'l edge list array; (* in-edges, insertion order *)
    }

type 'l t = { mutable rep : 'l rep }

let create () =
  { rep = Building { succs = Vec.create ~dummy:[]; preds = Vec.create ~dummy:[] } }

let num_nodes g =
  match g.rep with Building b -> Vec.length b.succs | Frozen f -> f.csr.n

let building g op =
  match g.rep with
  | Building b -> b
  | Frozen _ -> invalid_arg (Printf.sprintf "Digraph.%s: graph is frozen" op)

let add_node g =
  let b = building g "add_node" in
  let id = Vec.length b.succs in
  Vec.push b.succs [];
  Vec.push b.preds [];
  id

let add_nodes g n = List.init n (fun _ -> add_node g)

let mem_node g n = n >= 0 && n < num_nodes g

let check_node g n =
  if not (mem_node g n) then
    invalid_arg (Printf.sprintf "Digraph: unknown node %d" n)

let add_edge g ~src ~dst ~label =
  check_node g src;
  check_node g dst;
  let b = building g "add_edge" in
  let e = { src; dst; label } in
  Vec.set b.succs src (e :: Vec.get b.succs src);
  Vec.set b.preds dst (e :: Vec.get b.preds dst);
  e

(* Edges are compared structurally; removing deletes one occurrence from each
   adjacency list. *)
let remove_edge g (e : 'l edge) =
  let b = building g "remove_edge" in
  let rec remove_one = function
    | [] -> raise Not_found
    | x :: rest -> if x = e then rest else x :: remove_one rest
  in
  Vec.set b.succs e.src (remove_one (Vec.get b.succs e.src));
  Vec.set b.preds e.dst (remove_one (Vec.get b.preds e.dst))

(* One direction of the CSR form from [n] per-node edge lists, [get v],
   in slot order or, with [newest_first], in reverse slot order (the
   build-time lists); [dst] picks the far end. *)
let flatten ?(newest_first = false) n (get : int -> 'l edge list) ~dst =
  let off = Array.make (n + 1) 0 in
  let first = ref None in
  for v = 0 to n - 1 do
    let l = get v in
    (match (l, !first) with e :: _, None -> first := Some e.label | _ -> ());
    off.(v + 1) <- off.(v) + List.length l
  done;
  let ends = Array.make off.(n) 0 in
  let lbl = match !first with None -> [||] | Some l -> Array.make off.(n) l in
  let step = if newest_first then -1 else 1 in
  let rec fill i = function
    | [] -> ()
    | e :: rest ->
        ends.(i) <- (if dst then e.dst else e.src);
        lbl.(i) <- e.label;
        fill (i + step) rest
  in
  for v = 0 to n - 1 do
    fill (if newest_first then off.(v + 1) - 1 else off.(v)) (get v)
  done;
  (off, ends, lbl)

let make_csr ?newest_first n succs preds =
  let succ_off, succ_dst, succ_lbl = flatten ?newest_first n succs ~dst:true in
  let pred_off, pred_src, pred_lbl = flatten ?newest_first n preds ~dst:false in
  { n; succ_off; succ_dst; succ_lbl; pred_off; pred_src; pred_lbl }

(* The frozen form of per-node out- and in-edge lists in insertion order *)
let frozen out_ in_ =
  let csr = make_csr (Array.length out_) (Array.get out_) (Array.get in_) in
  { rep = Frozen { csr; out_; in_ } }

(* [Array.init] would seed a large array with a young list, which makes
   the runtime run a minor collection first; start from [] instead. *)
let lists n f =
  let a = Array.make n [] in
  for v = 0 to n - 1 do
    a.(v) <- f v
  done;
  a

let in_order (v : 'l edge list Vec.t) = lists (Vec.length v) (fun i -> List.rev (Vec.get v i))

let freeze g =
  match g.rep with
  | Frozen _ -> ()
  | Building b -> g.rep <- (frozen (in_order b.succs) (in_order b.preds)).rep

let csr g =
  match g.rep with
  | Frozen f -> f.csr
  | Building b ->
      make_csr ~newest_first:true (Vec.length b.succs) (Vec.get b.succs) (Vec.get b.preds)

let reverse_csr c =
  {
    c with
    succ_off = c.pred_off;
    succ_dst = c.pred_src;
    succ_lbl = c.pred_lbl;
    pred_off = c.succ_off;
    pred_src = c.succ_dst;
    pred_lbl = c.succ_lbl;
  }

let of_succ_lists out_ =
  let in_ = Array.make (Array.length out_) [] in
  (* prepend last edge first, so each in-list comes out in edge order *)
  let rec back = function
    | [] -> ()
    | e :: rest ->
        back rest;
        in_.(e.dst) <- e :: in_.(e.dst)
  in
  for v = Array.length out_ - 1 downto 0 do
    back out_.(v)
  done;
  frozen out_ in_

let succ_edges g n =
  check_node g n;
  match g.rep with
  | Building b -> List.rev (Vec.get b.succs n)
  | Frozen f -> f.out_.(n)

let pred_edges g n =
  check_node g n;
  match g.rep with
  | Building b -> List.rev (Vec.get b.preds n)
  | Frozen f -> f.in_.(n)

let slice off ends n = List.init (off.(n + 1) - off.(n)) (fun i -> ends.(off.(n) + i))

let succs g n =
  match g.rep with
  | Building _ -> List.map (fun e -> e.dst) (succ_edges g n)
  | Frozen f ->
      check_node g n;
      slice f.csr.succ_off f.csr.succ_dst n

let preds g n =
  match g.rep with
  | Building _ -> List.map (fun e -> e.src) (pred_edges g n)
  | Frozen f ->
      check_node g n;
      slice f.csr.pred_off f.csr.pred_src n

let out_degree g n =
  match g.rep with
  | Building b -> List.length (Vec.get b.succs n)
  | Frozen f -> f.csr.succ_off.(n + 1) - f.csr.succ_off.(n)

let in_degree g n =
  match g.rep with
  | Building b -> List.length (Vec.get b.preds n)
  | Frozen f -> f.csr.pred_off.(n + 1) - f.csr.pred_off.(n)

let iter_nodes f g =
  for n = 0 to num_nodes g - 1 do
    f n
  done

(* A list stored most recent first, visited in insertion order without
   reversing it (recursion depth = the node's degree). *)
let rec iter_oldest_first f = function
  | [] -> ()
  | e :: rest ->
      iter_oldest_first f rest;
      f e

let iter_edges f g =
  match g.rep with
  | Building b -> Vec.iter (iter_oldest_first f) b.succs
  | Frozen fr -> Array.iter (List.iter f) fr.out_

let reachable g ~root =
  let n = num_nodes g in
  let seen = Array.make n false and stack = Array.make n 0 and sp = ref 1 in
  seen.(root) <- true;
  stack.(0) <- root;
  let push v =
    if not seen.(v) then begin
      seen.(v) <- true;
      stack.(!sp) <- v;
      incr sp
    end
  in
  let rec push_all = function
    | [] -> ()
    | e :: rest ->
        push e.dst;
        push_all rest
  in
  while !sp > 0 do
    decr sp;
    let u = stack.(!sp) in
    match g.rep with
    | Building b -> push_all (Vec.get b.succs u)
    | Frozen f ->
        for i = f.csr.succ_off.(u) to f.csr.succ_off.(u + 1) - 1 do
          push f.csr.succ_dst.(i)
        done
  done;
  seen

let fold_edges f init g =
  let acc = ref init in
  iter_edges (fun e -> acc := f !acc e) g;
  !acc

let edges g = List.rev (fold_edges (fun acc e -> e :: acc) [] g)

let num_edges g =
  match g.rep with
  | Building _ -> fold_edges (fun acc _ -> acc + 1) 0 g
  | Frozen f -> Array.length f.csr.succ_dst

let find_edges g ~src ~dst =
  List.filter (fun e -> e.dst = dst) (succ_edges g src)

let has_edge g ~src ~dst = find_edges g ~src ~dst <> []

(* A reversed copy: every edge (u,v,l) becomes (v,u,l). *)
let reverse g =
  let r = create () in
  ignore (add_nodes r (num_nodes g));
  iter_edges (fun e -> ignore (add_edge r ~src:e.dst ~dst:e.src ~label:e.label)) g;
  r

(* Edge records and lists are immutable, so the copy shares them: it
   takes each node's out-list as it is and rebuilds the in-lists in edge
   order, as adding the edges one by one in that order would. *)
let copy g =
  let n = num_nodes g in
  let preds = Vec.make n [] ~dummy:[] in
  let succs =
    match g.rep with
    | Building b -> Vec.copy b.succs
    | Frozen f ->
        let succs = Vec.make n [] ~dummy:[] in
        Array.iteri (fun v l -> Vec.set succs v (List.rev l)) f.out_;
        succs
  in
  iter_edges (fun e -> Vec.set preds e.dst (e :: Vec.get preds e.dst)) g;
  { rep = Building { succs; preds } }

(* The in-lists [copy] would rebuild, built in place: stored most recent
   first, so each comes out in edge order. *)
let order_preds g =
  let b = building g "order_preds" in
  for v = 0 to Vec.length b.preds - 1 do
    Vec.set b.preds v []
  done;
  Vec.iter (iter_oldest_first (fun e -> Vec.set b.preds e.dst (e :: Vec.get b.preds e.dst))) b.succs

let map_labels f g =
  let r = create () in
  ignore (add_nodes r (num_nodes g));
  iter_edges (fun e -> ignore (add_edge r ~src:e.src ~dst:e.dst ~label:(f e))) g;
  r

let pp ?(pp_label = fun fmt _ -> Fmt.string fmt "") fmt g =
  Fmt.pf fmt "@[<v>digraph with %d nodes, %d edges" (num_nodes g) (num_edges g);
  iter_edges
    (fun e -> Fmt.pf fmt "@,  %d -> %d %a" e.src e.dst pp_label e.label)
    g;
  Fmt.pf fmt "@]"
