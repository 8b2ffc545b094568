(* Tests for s89_graph: Digraph, Dfs, Dominator, Postdom, Lca, Topo,
   Reducibility, Node_split, Dot. *)

open S89_graph

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cil = Alcotest.(list int)

(* a graph on [n] nodes with the given labelled edges, added in order *)
let of_edges n es =
  let b = Digraph.Builder.create () in
  ignore (Digraph.Builder.add_nodes b n);
  List.iter (fun (u, v, l) -> Digraph.Builder.add_edge b ~src:u ~dst:v ~label:l) es;
  Digraph.Builder.freeze b

let of_pairs n es = of_edges n (List.map (fun (u, v) -> (u, v, ())) es)

(* a small random graph generator for properties *)
let random_edges seed ~nodes ~edges =
  let rng = S89_util.Prng.create ~seed in
  List.init edges (fun _ ->
      let u = S89_util.Prng.int rng nodes in
      (u, S89_util.Prng.int rng nodes))

let random_graph seed ~nodes ~edges = of_pairs nodes (random_edges seed ~nodes ~edges)

(* brute-force reachability avoiding a removed node *)
let reaches_avoiding g ~src ~dst ~avoid =
  if src = avoid then dst = src
  else begin
    let n = Digraph.num_nodes g in
    let seen = Array.make n false in
    let rec go u =
      if u = dst then true
      else
        List.exists
          (fun v -> v <> avoid && (not seen.(v)) && (seen.(v) <- true; go v))
          (Digraph.succs g u)
    in
    seen.(src) <- true;
    src = dst || go src
  end

(* ---------------- Digraph ---------------- *)

let digraph_basics () =
  let bld = Digraph.Builder.create () in
  let a = Digraph.Builder.add_node bld in
  let b = Digraph.Builder.add_node bld in
  let c = Digraph.Builder.add_node bld in
  check ci "ids dense" 2 c;
  Digraph.Builder.add_edge bld ~src:b ~dst:c ~label:"z";
  Digraph.Builder.add_edge bld ~src:a ~dst:b ~label:"x";
  Digraph.Builder.add_edge bld ~src:a ~dst:c ~label:"y";
  let g = Digraph.Builder.freeze bld in
  check ci "num_nodes" 3 (Digraph.num_nodes g);
  check ci "num_edges" 3 (Digraph.num_edges g);
  check cil "succs order" [ b; c ] (Digraph.succs g a);
  check cil "preds by source" [ a; b ] (Digraph.preds g c);
  check ci "out_degree" 2 (Digraph.out_degree g a);
  check ci "in_degree" 2 (Digraph.in_degree g c);
  check cb "has_edge" true (Digraph.has_edge g ~src:a ~dst:b);
  check cb "no edge" false (Digraph.has_edge g ~src:c ~dst:a)

let digraph_multi_edges () =
  let g = of_edges 2 [ (0, 1, 1); (0, 1, 2); (0, 1, 1) ] in
  check ci "parallel edges kept" 3 (Digraph.num_edges g);
  check cb "labels in insertion order" true
    (List.map (fun (e : int Digraph.edge) -> e.label) (Digraph.succ_edges g 0) = [ 1; 2; 1 ]);
  check cb "distinct labels" true (Digraph.out_labels g 0 = [ 1; 2 ]);
  check cil "in-edges, the transpose" [ 0; 0; 0 ] (Digraph.preds g 1)

(* in-edges come by source, then out-edge slot, whatever order the edges
   were added in; the transpose swaps the two directions *)
let digraph_transpose_order () =
  let g = of_edges 3 [ (2, 1, "c"); (0, 1, "a"); (2, 0, "d"); (0, 1, "b") ] in
  check cb "in-edges of 1" true
    (List.map (fun (e : string Digraph.edge) -> (e.src, e.label)) (Digraph.pred_edges g 1)
    = [ (0, "a"); (0, "b"); (2, "c") ]);
  let r = Digraph.transpose g in
  check cil "transpose succs" [ 0; 0; 2 ] (Digraph.succs r 1);
  check cil "transpose preds" [ 1; 0 ] (Digraph.preds r 2);
  check ci "edge count" (Digraph.num_edges g) (Digraph.num_edges r)

(* on random multigraphs, against lists kept beside the builder: each
   node's out-edges in the order they were added, and its in-edges in
   edge order (by source, then out-edge position) *)
let builder_prop =
  QCheck.Test.make ~count:100 ~name:"builder: out-edges in insertion order, in-edges transposed"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let n = 1 + (seed mod 9) in
      let es = List.mapi (fun i (u, v) -> (u, v, i)) (random_edges seed ~nodes:n ~edges:(seed mod 20)) in
      let g = of_edges n es in
      let out u = List.filter (fun (s, _, _) -> s = u) es in
      let into v = List.concat_map (fun u -> List.filter (fun (_, d, _) -> d = v) (out u)) (List.init n Fun.id) in
      let triple (e : int Digraph.edge) = (e.src, e.dst, e.label) in
      Digraph.num_nodes g = n
      && Digraph.num_edges g = List.length es
      && List.for_all
           (fun v ->
             List.map triple (Digraph.succ_edges g v) = out v
             && List.map triple (Digraph.pred_edges g v) = into v
             && List.map triple (Digraph.succ_edges (Digraph.transpose g) v)
                = List.map (fun (s, d, l) -> (d, s, l)) (into v))
           (List.init n Fun.id))

let digraph_invalid () =
  let b = Digraph.Builder.create () in
  ignore (Digraph.Builder.add_node b);
  Alcotest.check_raises "bad src" (Invalid_argument "Digraph: unknown node 5")
    (fun () -> Digraph.Builder.add_edge b ~src:5 ~dst:0 ~label:())

(* ---------------- Dfs ---------------- *)

(* diamond with a back edge: 0->1,0->2,1->3,2->3,3->0 *)
let diamond_loop () = of_pairs 4 [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 0) ]

let dfs_numbering () =
  let g = diamond_loop () in
  let num = Dfs.number g ~root:0 in
  check ci "all reachable" 4 num.Dfs.count;
  check cb "root reachable" true (Dfs.reachable num 0);
  check ci "root preorder" 0 num.Dfs.pre.(0);
  check cb "ancestor refl" true (Dfs.is_ancestor num 0 0);
  check cb "root ancestor of all" true (Dfs.is_ancestor num 0 3)

let dfs_back_edges () =
  let g = diamond_loop () in
  let bes = Dfs.back_edges g ~root:0 in
  check ci "one back edge" 1 (List.length bes);
  let e = List.hd bes in
  check ci "back src" 3 e.Digraph.src;
  check ci "back dst" 0 e.Digraph.dst

let dfs_unreachable () =
  let g = of_pairs 3 [ (0, 1) ] in
  let num = Dfs.number g ~root:0 in
  check cb "2 unreachable" false (Dfs.reachable num 2);
  check ci "count" 2 num.Dfs.count

let rpo_prop =
  QCheck.Test.make ~count:100 ~name:"rpo: non-back edges go forward"
    QCheck.(int_range 0 10000)
    (fun seed ->
      let g = random_graph seed ~nodes:10 ~edges:18 in
      let num = Dfs.number g ~root:0 in
      let rpo = Dfs.rpo_index g ~root:0 in
      Digraph.fold_edges
        (fun ok e ->
          ok
          &&
          if Dfs.reachable num e.Digraph.src && Dfs.reachable num e.dst then
            match Dfs.classify num e with
            | Dfs.Back -> true
            | _ -> rpo.(e.src) < rpo.(e.dst)
          else true)
        true g)

(* ---------------- Dominator / Postdom ---------------- *)

let dominator_diamond () =
  let g = diamond_loop () in
  let d = Dominator.compute g ~root:0 in
  check (Alcotest.option ci) "idom 1" (Some 0) (Dominator.idom d 1);
  check (Alcotest.option ci) "idom 2" (Some 0) (Dominator.idom d 2);
  check (Alcotest.option ci) "idom 3" (Some 0) (Dominator.idom d 3);
  check (Alcotest.option ci) "idom root" None (Dominator.idom d 0);
  check cb "0 dom 3" true (Dominator.dominates d 0 3);
  check cb "1 not dom 3" false (Dominator.dominates d 1 3);
  check cb "refl" true (Dominator.dominates d 3 3);
  check cb "strict not refl" false (Dominator.strictly_dominates d 3 3);
  check cil "dominators of 3" [ 0; 3 ] (Dominator.dominators d 3);
  check ci "depth" 1 (Dominator.depth d 3)

let dominator_chain () =
  let g = of_pairs 4 [ (0, 1); (1, 2); (2, 3) ] in
  let d = Dominator.compute g ~root:0 in
  check cb "chain dominance" true (Dominator.dominates d 1 3);
  check ci "depth 3" 3 (Dominator.depth d 3);
  check cil "children of 1" [ 2 ] (Dominator.children d 1)

(* oracle: u strictly-dominates v iff v unreachable when u removed *)
let dominator_oracle_prop =
  QCheck.Test.make ~count:60 ~name:"dominator = cut-vertex oracle"
    QCheck.(int_range 0 10000)
    (fun seed ->
      let g = random_graph seed ~nodes:9 ~edges:14 in
      let d = Dominator.compute g ~root:0 in
      let num = Dfs.number g ~root:0 in
      let ok = ref true in
      for u = 0 to 8 do
        for v = 0 to 8 do
          if u <> v && u <> 0 && Dfs.reachable num u && Dfs.reachable num v then begin
            let dom = Dominator.strictly_dominates d u v in
            let cut = not (reaches_avoiding g ~src:0 ~dst:v ~avoid:u) in
            if dom <> cut then ok := false
          end
        done
      done;
      !ok)

let postdom_basics () =
  (* 0->1(T)/2(F); 1->3; 2->3; 3 = exit *)
  let g = of_pairs 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let pd = Postdom.compute g ~exit_:3 in
  check cb "3 pdom 0" true (Postdom.postdominates pd 3 0);
  check cb "1 not pdom 0" false (Postdom.postdominates pd 1 0);
  check (Alcotest.option ci) "ipdom 0" (Some 3) (Postdom.ipostdom pd 0);
  check cil "postdominators of 0" [ 3; 0 ] (Postdom.postdominators pd 0);
  check cb "refl" true (Postdom.postdominates pd 1 1)

(* ---------------- Lca ---------------- *)

let lca_tree () =
  (*      0
          |
          1
         / \
        2   3
        |
        4       and a second root 5 *)
  let parent = [| -1; 0; 1; 1; 2; -1 |] in
  let l = Lca.of_parents parent in
  check ci "depth root" 0 (Lca.depth l 0);
  check ci "depth 4" 3 (Lca.depth l 4);
  check ci "lca siblings" 1 (Lca.lca l 2 3);
  check ci "lca ancestor" 1 (Lca.lca l 1 4);
  check ci "lca self" 4 (Lca.lca l 4 4);
  check ci "lca deep" 1 (Lca.lca l 4 3);
  check (Alcotest.option ci) "parent" (Some 2) (Lca.parent l 4);
  check (Alcotest.option ci) "parent root" None (Lca.parent l 0);
  check cb "ancestor" true (Lca.is_ancestor l 0 4);
  check cb "not ancestor" false (Lca.is_ancestor l 3 4);
  check cb "refl ancestor" true (Lca.is_ancestor l 4 4);
  Alcotest.check_raises "different trees" Not_found (fun () -> ignore (Lca.lca l 4 5));
  check (Alcotest.option ci) "lca_opt none" None (Lca.lca_opt l 4 5)

(* ---------------- Topo ---------------- *)

let topo_dag () =
  let g = of_pairs 5 [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ] in
  let order = Topo.sort g in
  let pos = Array.make 5 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  Digraph.iter_edges
    (fun e -> if pos.(e.Digraph.src) >= pos.(e.dst) then Alcotest.fail "order violated")
    g;
  check cb "acyclic" true (Topo.is_acyclic g)

let topo_cycle () =
  let g = diamond_loop () in
  check cb "cyclic" false (Topo.is_acyclic g);
  check cb "sort_opt none" true (Topo.sort_opt g = None);
  (try
     ignore (Topo.sort g);
     Alcotest.fail "expected Cycle"
   with Topo.Cycle nodes -> check cb "cycle nonempty" true (nodes <> []))

let topo_sort_prop =
  QCheck.Test.make ~count:100 ~name:"topo: forward edges in random DAGs"
    QCheck.(int_range 0 10000)
    (fun seed ->
      let n = 12 in
      (* force a DAG: edges from smaller to larger id only *)
      let g =
        of_pairs n (List.filter (fun (u, v) -> u < v) (random_edges seed ~nodes:n ~edges:20))
      in
      let order = Topo.sort g in
      let pos = Array.make n 0 in
      Array.iteri (fun i v -> pos.(v) <- i) order;
      Digraph.fold_edges (fun ok e -> ok && pos.(e.Digraph.src) < pos.(e.dst)) true g)

let scc_known () =
  (* two cycles {0,1} and {2,3}, with 1 -> 2, plus isolated 4 *)
  let g = of_pairs 5 [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2) ] in
  let comps = Topo.scc g in
  check ci "three components... plus isolated" 3 (List.length comps);
  let sorted = List.map (List.sort compare) comps in
  check cb "has {0,1}" true (List.mem [ 0; 1 ] sorted);
  check cb "has {2,3}" true (List.mem [ 2; 3 ] sorted);
  check cb "has {4}" true (List.mem [ 4 ] sorted);
  (* callees first: {2,3} (sink) must come before {0,1} *)
  let pos_23 = ref (-1) and pos_01 = ref (-1) in
  List.iteri
    (fun i c ->
      let c = List.sort compare c in
      if c = [ 2; 3 ] then pos_23 := i;
      if c = [ 0; 1 ] then pos_01 := i)
    comps;
  check cb "sink scc first" true (!pos_23 < !pos_01);
  let _, id = Topo.scc_map g in
  check cb "same comp" true (id.(2) = id.(3));
  check cb "diff comp" true (id.(0) <> id.(2))

(* ---------------- Reducibility / Node_split ---------------- *)

(* 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 1 : the classic irreducible loop *)
let irreducible_triangle () = of_pairs 3 [ (0, 1); (0, 2); (1, 2); (2, 1) ]

let reducibility_structured () =
  let g = diamond_loop () in
  check cb "diamond+loop reducible" true (Reducibility.is_reducible g ~root:0);
  check ci "one natural back edge" 1
    (List.length (Reducibility.natural_back_edges g ~root:0));
  match Reducibility.back_edges_if_reducible g ~root:0 with
  | Some [ e ] -> check ci "back edge dst" 0 e.Digraph.dst
  | _ -> Alcotest.fail "expected one back edge"

let reducibility_irreducible () =
  let g = irreducible_triangle () in
  check cb "triangle irreducible" false (Reducibility.is_reducible g ~root:0);
  check cb "no natural back edges" true
    (Reducibility.natural_back_edges g ~root:0 = []);
  check cb "back_edges_if_reducible none" true
    (Reducibility.back_edges_if_reducible g ~root:0 = None)

let node_split_triangle () =
  let g = irreducible_triangle () in
  let g', splits = Node_split.make_reducible g ~root:0 in
  check cb "split happened" true (splits <> []);
  check cb "now reducible" true (Reducibility.is_reducible g' ~root:0);
  check ci "one node per split" (Digraph.num_nodes g + List.length splits) (Digraph.num_nodes g');
  (* the second entry (2) gets its own copy of the region {1, 2}, as 3
     and 4; 0's edge to 2 moves to 4 and goes last among 0's out-edges *)
  check cb "splits" true (splits = [ (1, 3); (2, 4) ]);
  check cil "0's out-edges" [ 1; 4 ] (Digraph.succs g' 0);
  check cil "copy of 1" [ 4 ] (Digraph.succs g' 3);
  check cil "copy of 2" [ 3 ] (Digraph.succs g' 4);
  check cil "1 keeps its loop" [ 2 ] (Digraph.succs g' 1)

let node_split_noop () =
  let g = diamond_loop () in
  let g', splits = Node_split.make_reducible g ~root:0 in
  check cb "no splits on reducible" true (splits = [] && g' == g)

let node_split_prop =
  QCheck.Test.make ~count:60 ~name:"node splitting reaches reducibility"
    QCheck.(int_range 0 10000)
    (fun seed ->
      let g = random_graph seed ~nodes:8 ~edges:14 in
      Reducibility.is_reducible (fst (Node_split.make_reducible g ~root:0)) ~root:0)

(* ---------------- Dot ---------------- *)

let dot_output () =
  let g = of_edges 2 [ (0, 1, "T") ] in
  let s =
    Dot.to_string ~name:"test"
      ~node_attrs:(fun v -> [ ("label", Printf.sprintf "n\"%d\"" v) ])
      ~edge_attrs:(fun e -> [ ("label", e.Digraph.label) ])
      g
  in
  check cb "has digraph" true
    (String.length s > 0 && String.sub s 0 12 = "digraph test");
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check cb "edge present" true (contains "n0 -> n1" s);
  check cb "quote escaped" true (contains "\\\"0\\\"" s);
  let skipped = Dot.to_string ~skip_node:(fun v -> v = 1) g in
  check cb "skipped node absent" false (contains "n1" skipped)

let suite =
  [
    Alcotest.test_case "digraph basics" `Quick digraph_basics;
    Alcotest.test_case "digraph multi-edges" `Quick digraph_multi_edges;
    Alcotest.test_case "digraph in-edge order and transpose" `Quick digraph_transpose_order;
    QCheck_alcotest.to_alcotest builder_prop;
    Alcotest.test_case "digraph invalid nodes" `Quick digraph_invalid;
    Alcotest.test_case "dfs numbering" `Quick dfs_numbering;
    Alcotest.test_case "dfs back edges" `Quick dfs_back_edges;
    Alcotest.test_case "dfs unreachable" `Quick dfs_unreachable;
    QCheck_alcotest.to_alcotest rpo_prop;
    Alcotest.test_case "dominators: diamond+loop" `Quick dominator_diamond;
    Alcotest.test_case "dominators: chain" `Quick dominator_chain;
    QCheck_alcotest.to_alcotest dominator_oracle_prop;
    Alcotest.test_case "postdominators" `Quick postdom_basics;
    Alcotest.test_case "lca forest" `Quick lca_tree;
    Alcotest.test_case "topo sort DAG" `Quick topo_dag;
    Alcotest.test_case "topo cycle detection" `Quick topo_cycle;
    QCheck_alcotest.to_alcotest topo_sort_prop;
    Alcotest.test_case "tarjan scc" `Quick scc_known;
    Alcotest.test_case "reducible structured" `Quick reducibility_structured;
    Alcotest.test_case "irreducible triangle" `Quick reducibility_irreducible;
    Alcotest.test_case "node split triangle" `Quick node_split_triangle;
    Alcotest.test_case "node split noop" `Quick node_split_noop;
    QCheck_alcotest.to_alcotest node_split_prop;
    Alcotest.test_case "dot output" `Quick dot_output;
  ]

(* postdominators are dominators of the reverse graph: check the duality
   directly on random graphs with a designated exit *)
let postdom_duality_prop =
  QCheck.Test.make ~count:60 ~name:"postdom g = dom (reverse g)"
    QCheck.(int_range 0 10000)
    (fun seed ->
      let es = random_edges seed ~nodes:9 ~edges:14 in
      let exit_ = 9 in
      let sinks = List.filter (fun v -> not (List.exists (fun (u, _) -> u = v) es)) (List.init 9 Fun.id) in
      let g = of_pairs 10 (es @ List.map (fun v -> (v, exit_)) sinks @ [ (0, exit_) ]) in
      let pd = Postdom.compute g ~exit_ in
      (* the reversed graph, built edge by edge *)
      let dr =
        Dominator.compute (of_pairs 10 (Digraph.fold_edges (fun acc e -> (e.dst, e.src) :: acc) [] g)) ~root:exit_
      in
      let ok = ref true in
      let n = Digraph.num_nodes g in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Postdom.postdominates pd u v <> Dominator.dominates dr u v then ok := false
        done
      done;
      !ok)

let suite = suite @ [ QCheck_alcotest.to_alcotest postdom_duality_prop ]

(* ---------------- Allen-Cocke interval derivation ---------------- *)

let interval_deriv_diamond () =
  let g = diamond_loop () in
  let part = Interval_deriv.first_order g ~root:0 in
  (* single-entry region headed at 0 absorbs everything: one interval *)
  check cil "one interval" [ 0 ] part.Interval_deriv.headers;
  check ci "all assigned" 0
    (Array.fold_left (fun acc h -> if h = -1 then acc + 1 else acc) 0
       part.Interval_deriv.interval_of);
  check cb "derived-seq reducible" true (Interval_deriv.is_reducible g ~root:0)

let interval_deriv_two_regions () =
  (* 0 -> 1 -> 2 -> 1 (a loop not headed at the root) *)
  let g = of_pairs 3 [ (0, 1); (1, 2); (2, 1) ] in
  let part = Interval_deriv.first_order g ~root:0 in
  (* 1 is re-entered by the back edge, so it heads its own interval *)
  check cil "two intervals" [ 0; 1 ] part.Interval_deriv.headers;
  check cb "2 joins 1's interval" true (part.Interval_deriv.interval_of.(2) = 1);
  let seq = Interval_deriv.derived_sequence g ~root:0 in
  check cb "sequence shrinks to one node" true
    (match List.rev seq with
    | last :: _ -> Digraph.num_nodes last.Interval_deriv.graph = 1
    | [] -> false)

let interval_deriv_irreducible_limit () =
  let g = irreducible_triangle () in
  check cb "derived-seq says irreducible" false (Interval_deriv.is_reducible g ~root:0)

(* the classic theorem: derived-sequence reducibility = dominator-based
   reducibility, on random graphs *)
let interval_deriv_equiv_prop =
  QCheck.Test.make ~count:100 ~name:"derived-sequence = dominator reducibility"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let g = random_graph seed ~nodes:8 ~edges:13 in
      Interval_deriv.is_reducible g ~root:0 = Reducibility.is_reducible g ~root:0)

(* every natural-loop header is an interval header at some level *)
let interval_deriv_headers_prop =
  QCheck.Test.make ~count:60 ~name:"loop headers appear as interval headers"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let g = random_graph seed ~nodes:8 ~edges:12 in
      if not (Reducibility.is_reducible g ~root:0) then true
      else begin
        let loop_headers =
          List.map (fun (e : _ Digraph.edge) -> e.dst)
            (Reducibility.natural_back_edges g ~root:0)
          |> List.sort_uniq compare
        in
        let seq = Interval_deriv.derived_sequence g ~root:0 in
        (* collect, per level, the original node each interval header stands
           for (the head of its represents list) *)
        let header_originals =
          List.concat_map
            (fun (lvl : Interval_deriv.level) ->
              let part =
                Interval_deriv.first_order lvl.Interval_deriv.graph
                  ~root:lvl.Interval_deriv.root
              in
              List.map
                (fun h -> List.hd lvl.Interval_deriv.represents.(h))
                part.Interval_deriv.headers)
            seq
        in
        List.for_all (fun h -> List.mem h header_originals) loop_headers
      end)

(* partition sanity on random graphs *)
let interval_partition_prop =
  QCheck.Test.make ~count:100 ~name:"first-order intervals partition the graph"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let g = random_graph seed ~nodes:9 ~edges:14 in
      let part = Interval_deriv.first_order g ~root:0 in
      let num = Dfs.number g ~root:0 in
      let ok = ref true in
      (* reachable nodes all assigned; membership lists consistent *)
      Digraph.iter_nodes
        (fun v ->
          if Dfs.reachable num v then begin
            let h = part.Interval_deriv.interval_of.(v) in
            if h = -1 then ok := false
            else if not (List.mem v (Hashtbl.find part.Interval_deriv.members h)) then
              ok := false
          end
          else if part.Interval_deriv.interval_of.(v) <> -1 then ok := false)
        g;
      (* each interval is single-entry: only its header has preds outside *)
      List.iter
        (fun h ->
          List.iter
            (fun m ->
              if m <> h then
                List.iter
                  (fun p ->
                    if
                      Dfs.reachable num p
                      && part.Interval_deriv.interval_of.(p)
                         <> part.Interval_deriv.interval_of.(m)
                    then ok := false)
                  (Digraph.preds g m))
            (Hashtbl.find part.Interval_deriv.members h))
        part.Interval_deriv.headers;
      !ok)

let suite =
  suite
  @ [
      Alcotest.test_case "interval-deriv: diamond" `Quick interval_deriv_diamond;
      Alcotest.test_case "interval-deriv: loop region" `Quick interval_deriv_two_regions;
      Alcotest.test_case "interval-deriv: irreducible" `Quick
        interval_deriv_irreducible_limit;
      QCheck_alcotest.to_alcotest interval_deriv_equiv_prop;
      QCheck_alcotest.to_alcotest interval_deriv_headers_prop;
      QCheck_alcotest.to_alcotest interval_partition_prop;
    ]

(* the one-pass Hecht–Ullman test agrees with the forward-part
   definition, and node splitting's fast path leaves a reducible graph
   untouched while an irreducible one is still split *)
let reducible_dfs_prop =
  QCheck.Test.make ~count:200 ~name:"Hecht-Ullman test = forward-part reducibility"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let g = random_graph seed ~nodes:8 ~edges:(8 + (seed mod 8)) in
      let fast = Reducibility.reducible_dfs g (Dfs.number g ~root:0) in
      let slow = Reducibility.is_reducible g ~root:0 in
      let g', splits = Node_split.make_reducible g ~root:0 in
      fast = slow
      && (if slow then splits = [] && g' == g else splits <> [])
      && Reducibility.is_reducible g' ~root:0)

let suite = suite @ [ QCheck_alcotest.to_alcotest reducible_dfs_prop ]
