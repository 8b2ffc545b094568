(* Directed labelled multigraphs over dense integer node ids.

   This is the common substrate for every analysis in the library: control
   flow graphs, control dependence graphs, call graphs.  Nodes are integers
   [0 .. num_nodes-1]; parallel edges with distinct (or even equal) labels
   are permitted, as required by Definition 1 of the paper (a CFG "is in
   general a multi-graph").

   A graph has one form: flat CSR arrays for both directions, built once
   by [Builder.freeze] and read-only from then on.  The builder only
   appends, into parallel source, target and label arrays, so each
   source's out-edges keep the order they were added in; the in-edges are
   the transpose of the out-edges, by source and then out-edge slot.  A
   pass that rewrites a graph builds a new one. *)

type 'l edge = { src : int; dst : int; label : 'l }

type 'l t = {
  n : int;
  succ_off : int array;
  succ_dst : int array;
  succ_lbl : 'l array;
  pred_off : int array;
  pred_src : int array;
  pred_lbl : 'l array;
}

module Builder = struct
  type 'l t = {
    mutable nodes : int;
    mutable m : int;
    mutable src : int array;
    mutable dst : int array;
    mutable lbl : 'l array; (* [||] until the first edge supplies a filler *)
  }

  let create ?(edges = 8) () =
    let cap = max edges 1 in
    { nodes = 0; m = 0; src = Array.make cap 0; dst = Array.make cap 0; lbl = [||] }

  let add_nodes b k =
    let first = b.nodes in
    b.nodes <- first + k;
    first

  let add_node b = add_nodes b 1

  let resize b a cap x =
    let a' = Array.make cap x in
    Array.blit a 0 a' 0 b.m;
    a'

  let check b v =
    if v < 0 || v >= b.nodes then invalid_arg (Printf.sprintf "Digraph: unknown node %d" v)

  let add_edge b ~src ~dst ~label =
    check b src;
    check b dst;
    if b.m = Array.length b.src then begin
      let cap = 2 * b.m in
      b.src <- resize b b.src cap 0;
      b.dst <- resize b b.dst cap 0
    end;
    if b.m = Array.length b.lbl then b.lbl <- resize b b.lbl (Array.length b.src) label;
    b.src.(b.m) <- src;
    b.dst.(b.m) <- dst;
    b.lbl.(b.m) <- label;
    b.m <- b.m + 1

  (* [ends.(i)]'s slot ranges: each node's end, as the placing loops count
     down from it to the node's first slot *)
  let ranges n m ends =
    let off = Array.make (n + 1) m in
    Array.fill off 0 n 0;
    for i = 0 to m - 1 do
      off.(ends.(i)) <- off.(ends.(i)) + 1
    done;
    for v = 1 to n - 1 do
      off.(v) <- off.(v) + off.(v - 1)
    done;
    off

  (* Two stable counting sorts, each placing from the back: the edges by
     source, then the out-slots by target, which is the transpose. *)
  let freeze b =
    let n = b.nodes and m = b.m in
    let succ_off = ranges n m b.src in
    let succ_dst = Array.make m 0 in
    let succ_lbl = if m = 0 then [||] else Array.make m b.lbl.(0) in
    for i = m - 1 downto 0 do
      let k = succ_off.(b.src.(i)) - 1 in
      succ_off.(b.src.(i)) <- k;
      succ_dst.(k) <- b.dst.(i);
      succ_lbl.(k) <- b.lbl.(i)
    done;
    let pred_off = ranges n m b.dst in
    let pred_src = Array.make m 0 in
    let pred_lbl = if m = 0 then [||] else Array.make m b.lbl.(0) in
    for u = n - 1 downto 0 do
      for k = succ_off.(u + 1) - 1 downto succ_off.(u) do
        let v = succ_dst.(k) in
        let j = pred_off.(v) - 1 in
        pred_off.(v) <- j;
        pred_src.(j) <- u;
        pred_lbl.(j) <- succ_lbl.(k)
      done
    done;
    { n; succ_off; succ_dst; succ_lbl; pred_off; pred_src; pred_lbl }
end

let transpose g =
  {
    g with
    succ_off = g.pred_off;
    succ_dst = g.pred_src;
    succ_lbl = g.pred_lbl;
    pred_off = g.succ_off;
    pred_src = g.succ_dst;
    pred_lbl = g.succ_lbl;
  }

let num_nodes g = g.n
let num_edges g = Array.length g.succ_dst
let mem_node g n = n >= 0 && n < g.n
let out_degree g n = g.succ_off.(n + 1) - g.succ_off.(n)
let in_degree g n = g.pred_off.(n + 1) - g.pred_off.(n)

let slots off n f = List.init (off.(n + 1) - off.(n)) (fun i -> f (off.(n) + i))

let succ_edges g n =
  slots g.succ_off n (fun k -> { src = n; dst = g.succ_dst.(k); label = g.succ_lbl.(k) })

let pred_edges g n =
  slots g.pred_off n (fun k -> { src = g.pred_src.(k); dst = n; label = g.pred_lbl.(k) })

let succs g n = slots g.succ_off n (Array.get g.succ_dst)
let preds g n = slots g.pred_off n (Array.get g.pred_src)

let out_labels g n =
  let acc = ref [] in
  for k = g.succ_off.(n) to g.succ_off.(n + 1) - 1 do
    if not (List.mem g.succ_lbl.(k) !acc) then acc := g.succ_lbl.(k) :: !acc
  done;
  List.rev !acc

let iter_nodes f g =
  for n = 0 to g.n - 1 do
    f n
  done

let iter_edges f g =
  for u = 0 to g.n - 1 do
    for k = g.succ_off.(u) to g.succ_off.(u + 1) - 1 do
      f { src = u; dst = g.succ_dst.(k); label = g.succ_lbl.(k) }
    done
  done

let fold_edges f init g =
  let acc = ref init in
  iter_edges (fun e -> acc := f !acc e) g;
  !acc

let has_edge g ~src ~dst =
  let rec go k = k < g.succ_off.(src + 1) && (g.succ_dst.(k) = dst || go (k + 1)) in
  go g.succ_off.(src)

let reachable g ~root =
  let seen = Array.make g.n false and stack = Array.make g.n 0 and sp = ref 1 in
  seen.(root) <- true;
  stack.(0) <- root;
  while !sp > 0 do
    decr sp;
    let u = stack.(!sp) in
    for k = g.succ_off.(u) to g.succ_off.(u + 1) - 1 do
      let v = g.succ_dst.(k) in
      if not seen.(v) then begin
        seen.(v) <- true;
        stack.(!sp) <- v;
        incr sp
      end
    done
  done;
  seen
