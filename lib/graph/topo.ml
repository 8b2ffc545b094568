(* Topological sorting and strongly connected components.

   Topological order drives the top-down FREQ pass and the bottom-up
   TIME/VAR passes over the (acyclic) FCDG; Tarjan SCCs detect recursion in
   the call graph. *)

exception Cycle of int list

(* Kahn's algorithm over the whole node set, reading the CSR arrays.
   Nodes are emitted smallest-id first among the ready set, which keeps
   the order deterministic; the ready set is a binary min-heap of ids. *)
let sort (c : 'l Digraph.t) =
  let n = c.n in
  let indeg = Array.init n (fun v -> c.pred_off.(v + 1) - c.pred_off.(v)) in
  let heap = Array.make (max 1 n) 0 and size = ref 0 in
  let push v =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2) > v do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- v
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and sifting = ref (!size > 0) in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !size then sifting := false
      else begin
        let m = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(m) < last then begin
          heap.(!i) <- heap.(m);
          i := m
        end
        else sifting := false
      end
    done;
    if !size > 0 then heap.(!i) <- last;
    top
  in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then push v
  done;
  let out = Array.make n 0 and emitted = ref 0 in
  while !size > 0 do
    let v = pop () in
    out.(!emitted) <- v;
    incr emitted;
    for i = c.succ_off.(v) to c.succ_off.(v + 1) - 1 do
      let w = c.succ_dst.(i) in
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then push w
    done
  done;
  if !emitted < n then begin
    let stuck = ref [] in
    for v = n - 1 downto 0 do
      if indeg.(v) > 0 then stuck := v :: !stuck
    done;
    raise (Cycle !stuck)
  end;
  out

let sort_opt g = try Some (sort g) with Cycle _ -> None

let is_acyclic g = sort_opt g <> None

(* Tarjan's SCC algorithm, iterative.  Components are returned in reverse
   topological order of the condensation (callees before callers when run on
   a call graph), which is exactly the order the interprocedural estimator
   wants. *)
let scc g =
  let n = Digraph.num_nodes g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let comps = ref [] in
  for root = 0 to n - 1 do
    if index.(root) = -1 then begin
      (* work item: (node, remaining successors) *)
      let work = ref [] in
      let start v =
        index.(v) <- !next_index;
        lowlink.(v) <- !next_index;
        incr next_index;
        stack := v :: !stack;
        on_stack.(v) <- true;
        work := (v, Digraph.succs g v) :: !work
      in
      start root;
      while !work <> [] do
        match !work with
        | [] -> assert false
        | (v, ss) :: rest -> (
            match ss with
            | w :: ss' ->
                work := (v, ss') :: rest;
                if index.(w) = -1 then start w
                else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
            | [] ->
                work := rest;
                (match rest with
                | (p, _) :: _ -> lowlink.(p) <- min lowlink.(p) lowlink.(v)
                | [] -> ());
                if lowlink.(v) = index.(v) then begin
                  let rec popc acc =
                    match !stack with
                    | [] -> assert false
                    | w :: tl ->
                        stack := tl;
                        on_stack.(w) <- false;
                        if w = v then w :: acc else popc (w :: acc)
                  in
                  comps := popc [] :: !comps
                end)
      done
    end
  done;
  List.rev !comps

let scc_map g =
  let comps = scc g in
  let id = Array.make (Digraph.num_nodes g) (-1) in
  List.iteri (fun i comp -> List.iter (fun v -> id.(v) <- i) comp) comps;
  (Array.of_list comps, id)
