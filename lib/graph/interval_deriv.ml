(* Allen–Cocke interval analysis: first-order intervals and the derived
   sequence of flowgraphs (Burke 1987; Schwartz–Sharir 1979 — the works
   the paper cites for "interval structure").

   An interval I(h) is the maximal single-entry region headed by h: start
   from {h} and repeatedly add nodes all of whose predecessors are already
   inside.  The first-order intervals partition the reachable nodes; the
   derived graph collapses each interval to one node; iterating yields the
   derived sequence, whose limit is a single node exactly when the graph
   is reducible (the classic characterization — property-tested against
   the dominator-based test in Reducibility).

   The paper's HDR structure is realized in Intervals via the equivalent
   natural-loop forest; this module exists to validate that equivalence
   (every natural-loop header appears as an interval header with a back
   edge at some derivation level) and for clients that want the classic
   region partition itself. *)

type partition = {
  headers : int list; (* interval headers, in discovery order *)
  interval_of : int array; (* node -> its interval's header (-1 unreachable) *)
  members : (int, int list) Hashtbl.t; (* header -> members, head first *)
}

(* first-order interval partition of the nodes reachable from [root] *)
let first_order g ~root =
  let n = Digraph.num_nodes g in
  let num = Dfs.number g ~root in
  let interval_of = Array.make n (-1) in
  let members = Hashtbl.create 8 in
  let headers = ref [] in
  (* candidate headers, processed in discovery order *)
  let work = Queue.create () in
  Queue.add root work;
  let enqueued = Array.make n false in
  enqueued.(root) <- true;
  while not (Queue.is_empty work) do
    let h = Queue.pop work in
    if interval_of.(h) = -1 then begin
      headers := h :: !headers;
      interval_of.(h) <- h;
      let ms = ref [ h ] in
      (* grow: add any node, all of whose predecessors lie in I(h) *)
      let changed = ref true in
      while !changed do
        changed := false;
        for v = 0 to n - 1 do
          if
            Dfs.reachable num v && interval_of.(v) = -1 && v <> root
            && List.exists (fun p -> Dfs.reachable num p) (Digraph.preds g v)
            && List.for_all
                 (fun p -> (not (Dfs.reachable num p)) || interval_of.(p) = h)
                 (Digraph.preds g v)
          then begin
            interval_of.(v) <- h;
            ms := v :: !ms;
            changed := true
          end
        done
      done;
      Hashtbl.replace members h (List.rev !ms);
      (* any node with a predecessor inside I(h) but not itself inside
         becomes a candidate header *)
      List.iter
        (fun m ->
          List.iter
            (fun s ->
              if interval_of.(s) = -1 && not enqueued.(s) then begin
                enqueued.(s) <- true;
                Queue.add s work
              end)
            (Digraph.succs g m))
        (Hashtbl.find members h)
    end
  done;
  { headers = List.rev !headers; interval_of; members }

(* one step of the derived sequence: collapse each interval to a node.
   Returns the derived graph, its root, and the header each derived node
   stands for. *)
let derive g ~root =
  let part = first_order g ~root in
  let index = Hashtbl.create 8 in
  List.iteri (fun i h -> Hashtbl.replace index h i) part.headers;
  let d = Digraph.Builder.create () in
  ignore (Digraph.Builder.add_nodes d (List.length part.headers));
  (* one derived edge per distinct (interval, target-interval) pair of
     crossing edges (self loops for back edges into the header) *)
  let seen = Hashtbl.create 16 in
  Digraph.iter_edges
    (fun (e : _ Digraph.edge) ->
      let iu = part.interval_of.(e.src) and iv = part.interval_of.(e.dst) in
      if iu >= 0 && iv >= 0 && iu <> iv then begin
        let du = Hashtbl.find index iu and dv = Hashtbl.find index iv in
        if not (Hashtbl.mem seen (du, dv)) then begin
          Hashtbl.replace seen (du, dv) ();
          Digraph.Builder.add_edge d ~src:du ~dst:dv ~label:()
        end
      end)
    g;
  (Digraph.Builder.freeze d, Hashtbl.find index part.interval_of.(root), Array.of_list part.headers)

(* The derived sequence down to its limit.  Each element is the graph at
   that order together with, for every node, the set of ORIGINAL nodes it
   represents. *)
type level = {
  graph : unit Digraph.t;
  root : int;
  represents : int list array; (* derived node -> original nodes *)
}

let derived_sequence ?(max_levels = 64) g ~root =
  let erase =
    let d = Digraph.Builder.create ~edges:(Digraph.num_edges g) () in
    ignore (Digraph.Builder.add_nodes d (Digraph.num_nodes g));
    Digraph.iter_edges (fun e -> Digraph.Builder.add_edge d ~src:e.src ~dst:e.dst ~label:()) g;
    Digraph.Builder.freeze d
  in
  let level0 =
    {
      graph = erase;
      root;
      represents = Array.init (Digraph.num_nodes g) (fun i -> [ i ]);
    }
  in
  let rec go acc level fuel =
    if fuel = 0 then List.rev acc
    else begin
      let d, droot, headers = derive level.graph ~root:level.root in
      if Digraph.num_nodes d = Digraph.num_nodes level.graph then
        (* no progress: the limit graph (single node iff reducible) *)
        List.rev acc
      else begin
        let part = first_order level.graph ~root:level.root in
        let represents =
          Array.mapi
            (fun _ h ->
              List.concat_map
                (fun m -> level.represents.(m))
                (Hashtbl.find part.members h))
            headers
        in
        let next = { graph = d; root = droot; represents } in
        go (next :: acc) next (fuel - 1)
      end
    end
  in
  level0 :: go [] level0 max_levels

(* reducible iff the derived sequence bottoms out in a single node *)
let is_reducible g ~root =
  match List.rev (derived_sequence g ~root) with
  | last :: _ ->
      (* count reachable nodes of the limit graph *)
      let num = Dfs.number last.graph ~root:last.root in
      num.Dfs.count = 1
      ||
      (* a single further derivation may still make progress when the last
         level happened to hit the fuel bound *)
      let d, droot, _ = derive last.graph ~root:last.root in
      let num' = Dfs.number d ~root:droot in
      num'.Dfs.count = 1
  | [] -> true
