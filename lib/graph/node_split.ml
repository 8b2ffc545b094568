(* Node splitting: transform an irreducible flowgraph into an equivalent
   reducible one by duplicating nodes ("a standard approach", ASU §10.4,
   cited by the paper when it assumes reducibility).

   Method: an irreducible core is a nontrivial SCC of the graph with
   natural back edges removed (Reducibility.forward_part).  Take its
   closure under all cycles (the enclosing SCC of the full graph) as the
   region, find the region's entry nodes (entered from outside; the root
   counts as externally entered), keep the first entry with the original
   region, and give every other entry its own complete copy of the region:
   outside edges into entry e_j are redirected to e_j's copy, internal
   edges stay within each copy, edges leaving the region are duplicated
   unchanged.  Every copy is then a single-entry region, so its entry
   dominates it and the back edges to the entry become natural; any
   remaining irreducible core lies strictly inside a copy minus its entry,
   which is strictly smaller — hence termination, by induction on core
   size (with the textbook exponential worst case, guarded by fuel).

   Almost every CFG is reducible already, and the paper assumes so.
   [make_reducible] answers that first with the Hecht–Ullman test (one
   DFS and one immediate-dominator array; see Reducibility.reducible_dfs)
   and returns no splits; only a graph that fails it runs the splitting
   loop, [split], which starts from the graph's forward part.  A caller
   that has run the test itself (lowering does, on the DFS it also prunes
   with) calls [split] directly. *)

exception Gave_up of int (* nodes at the time we stopped *)

(* [g] with a full copy of [region] for each of [dup_entries], numbered
   after [g]'s nodes in region order, one entry after another.  A copy's
   out-edges mirror its original's: internal edges stay within the copy,
   edges leaving the region are duplicated unchanged.  The edges entering
   the region at a duplicated entry from outside are redirected to that
   entry's copy; each goes last among its source's out-edges, in entry
   order and then slot order, where removing it and adding it back would
   put it. *)
let copy_region g ~in_region ~region dup_entries =
  let n = Digraph.num_nodes g and k = List.length region in
  let b = Digraph.Builder.create ~edges:(2 * Digraph.num_edges g) () in
  ignore (Digraph.Builder.add_nodes b (n + (k * List.length dup_entries)));
  let redirected e = List.mem e.Digraph.dst dup_entries && not (Hashtbl.mem in_region e.src) in
  Digraph.iter_edges
    (fun e ->
      if not (redirected e) then Digraph.Builder.add_edge b ~src:e.src ~dst:e.dst ~label:e.label)
    g;
  let splits = ref [] in
  List.iteri
    (fun j entry ->
      let clone = Hashtbl.create 16 in
      List.iteri
        (fun i r ->
          Hashtbl.replace clone r (n + (j * k) + i);
          splits := (r, n + (j * k) + i) :: !splits)
        region;
      let copy v = Option.value ~default:v (Hashtbl.find_opt clone v) in
      List.iter
        (fun r ->
          for s = g.succ_off.(r) to g.succ_off.(r + 1) - 1 do
            Digraph.Builder.add_edge b ~src:(copy r) ~dst:(copy g.succ_dst.(s))
              ~label:g.succ_lbl.(s)
          done)
        region;
      for s = g.pred_off.(entry) to g.pred_off.(entry + 1) - 1 do
        let u = g.pred_src.(s) in
        if not (Hashtbl.mem in_region u) then
          Digraph.Builder.add_edge b ~src:u ~dst:(copy entry) ~label:g.pred_lbl.(s)
      done)
    dup_entries;
  (Digraph.Builder.freeze b, List.rev !splits)

let split g ~root =
  let fuel = ref (10 * Digraph.num_nodes g + 100) in
  let rec go g splits =
    let fwd = Reducibility.forward_part g ~root in
    let cores = List.filter (fun comp -> List.length comp > 1) (Topo.scc fwd) in
    match cores with
    | [] -> (g, splits) (* every remaining cycle is a natural loop: reducible *)
    | core :: _ ->
        decr fuel;
        if !fuel <= 0 then raise (Gave_up (Digraph.num_nodes g));
        (* Close the core under all cycles of g: natural sub-loops woven
           through it must be duplicated along with it.  If the closure has
           a single entry, that entry dominates it and the irreducibility
           is strictly inside: shrink the region by dropping the entry and
           re-closing around the core, until at least two entries remain
           (the bare core always has two or more). *)
        let witness = List.hd core in
        let entries_of region =
          let in_region = Hashtbl.create 16 in
          List.iter (fun n -> Hashtbl.replace in_region n ()) region;
          ( in_region,
            List.filter
              (fun v ->
                v = root
                || List.exists
                     (fun p -> not (Hashtbl.mem in_region p))
                     (Digraph.preds g v))
              region )
        in
        (* SCC containing [witness] in the subgraph induced on [nodes] *)
        let induced_scc nodes =
          let keep = Hashtbl.create 16 in
          List.iter (fun n -> Hashtbl.replace keep n ()) nodes;
          let sub = Digraph.Builder.create () in
          ignore (Digraph.Builder.add_nodes sub (Digraph.num_nodes g));
          Digraph.iter_edges
            (fun e ->
              if Hashtbl.mem keep e.src && Hashtbl.mem keep e.dst then
                Digraph.Builder.add_edge sub ~src:e.src ~dst:e.dst ~label:())
            g;
          match List.find_opt (List.mem witness) (Topo.scc (Digraph.Builder.freeze sub)) with
          | Some comp -> comp
          | None -> [ witness ]
        in
        let rec narrow region =
          match entries_of region with
          | _, ([] | [ _ ]) when List.length region > List.length core ->
              (* zero/one entry: drop the entries and re-close inward *)
              let _, es = entries_of region in
              let region' =
                induced_scc (List.filter (fun v -> not (List.mem v es)) region)
              in
              if List.length region' < List.length region then narrow region'
              else raise (Gave_up (Digraph.num_nodes g))
          | in_region, entries -> (in_region, entries, region)
        in
        let all_nodes =
          match List.find_opt (List.mem witness) (Topo.scc g) with
          | Some comp -> comp
          | None -> core
        in
        let in_region, entries, region = narrow all_nodes in
        (match entries with
        | [] | [ _ ] ->
            (* cannot happen for a genuine irreducible core; bail out
               rather than loop *)
            raise (Gave_up (Digraph.num_nodes g))
        | _keep :: dup_entries ->
            let g', s = copy_region g ~in_region ~region dup_entries in
            go g' (splits @ s))
  in
  go g []

let make_reducible g ~root =
  if Reducibility.reducible_dfs g (Dfs.number g ~root) then (g, []) else split g ~root
