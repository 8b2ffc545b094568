(* Control flow graphs per Definition 1 of the paper:
   CFG = (N_c, E_c, T_c), a labelled multigraph with a node-type mapping.

   Node payloads of type ['a] carry whatever the client attaches — the MF77
   frontend stores basic-block contents there; tests use strings or unit.
   The graph also records the unique first node [entry] and the last nodes
   [exits] (§2 allows several, e.g. RETURN statements). *)

open S89_graph

type 'a t = {
  g : Label.t Digraph.t;
  types : Node_type.t Vec.t;
  info : 'a Vec.t;
  mutable entry : int;
  mutable exits : int list;
  dummy : 'a;
}

let create ~dummy =
  {
    g = Digraph.create ();
    types = Vec.create ~dummy:Node_type.Other;
    info = Vec.create ~dummy;
    entry = -1;
    exits = [];
    dummy;
  }

let graph t = t.g

let copy ~dummy t =
  {
    g = Digraph.copy t.g;
    types = Vec.copy t.types;
    info = Vec.copy t.info;
    entry = t.entry;
    exits = t.exits;
    dummy;
  }

let num_nodes t = Digraph.num_nodes t.g

let add_node ?(ty = Node_type.Other) t info =
  let n = Digraph.add_node t.g in
  Vec.push t.types ty;
  Vec.push t.info info;
  n

let node_type t n = Vec.get t.types n
let set_node_type t n ty = Vec.set t.types n ty
let info t n = Vec.get t.info n
let set_info t n x = Vec.set t.info n x

let add_edge t ~src ~dst ~label = ignore (Digraph.add_edge t.g ~src ~dst ~label)

let entry t =
  if t.entry < 0 then invalid_arg "Cfg.entry: entry not set";
  t.entry

let set_entry t n = t.entry <- n
let exits t = t.exits
let set_exits t ns = t.exits <- ns

let freeze t = Digraph.freeze t.g

let succ_edges t n = Digraph.succ_edges t.g n
let pred_edges t n = Digraph.pred_edges t.g n

let iter_nodes f t = Digraph.iter_nodes f t.g
let iter_edges f t = Digraph.iter_edges f t.g

(* Distinct outgoing labels of a node, in first-appearance order.  These are
   "the branch labels from node u" of §3's second optimization. *)
let out_labels t n =
  List.fold_left
    (fun acc (e : Label.t Digraph.edge) ->
      if List.exists (Label.equal e.label) acc then acc else e.label :: acc)
    [] (succ_edges t n)
  |> List.rev

(* The interval analysis requires the entry node to have no predecessors
   (otherwise the entry could be a loop header and the "outermost interval"
   of the paper would collide with that loop).  Insert a fresh entry block
   when needed. *)
let normalize_entry t =
  let e = entry t in
  if Digraph.in_degree t.g e = 0 then e
  else begin
    let fresh = add_node t t.dummy in
    add_edge t ~src:fresh ~dst:e ~label:Label.U;
    t.entry <- fresh;
    fresh
  end

(* Node splitting at the CFG level: keeps the payload/type vectors in sync
   with the nodes Node_split adds.  Returns the (orig, copy) pairs. *)
let on_copy t ~orig ~copy:_ =
  Vec.push t.types (node_type t orig);
  Vec.push t.info (info t orig)

let make_reducible t =
  Node_split.make_reducible (graph t) ~root:(entry t) ~on_copy:(on_copy t)

let split_irreducible t = Node_split.split (graph t) ~root:(entry t) ~on_copy:(on_copy t)

type error =
  | No_entry
  | No_exit
  | Dangling_exit of int
  | Unreachable of int list
  | Exit_has_successor of int

let pp_error fmt = function
  | No_entry -> Fmt.string fmt "no entry node set"
  | No_exit -> Fmt.string fmt "no exit node set"
  | Dangling_exit n -> Fmt.pf fmt "exit node %d is not a graph node" n
  | Unreachable ns ->
      Fmt.pf fmt "nodes unreachable from entry: %a" Fmt.(list ~sep:comma int) ns
  | Exit_has_successor n ->
      Fmt.pf fmt "exit node %d has outgoing control flow" n

(* Structural sanity checks ahead of the interval/ECFG pipeline;
   [reachability ()], asked last, says which nodes the entry reaches. *)
let check t reachability =
  if t.entry < 0 then Error No_entry
  else if t.exits = [] then Error No_exit
  else
    match List.find_opt (fun n -> not (Digraph.mem_node t.g n)) t.exits with
    | Some n -> Error (Dangling_exit n)
    | None -> (
        match
          List.find_opt (fun n -> Digraph.out_degree t.g n > 0) t.exits
        with
        | Some n -> Error (Exit_has_successor n)
        | None ->
            let reached = reachability () in
            let unreachable = ref [] in
            for n = num_nodes t - 1 downto 0 do
              if not (reached n) then unreachable := n :: !unreachable
            done;
            if !unreachable <> [] then Error (Unreachable !unreachable) else Ok ())

let validate t = check t (fun () -> Array.get (Digraph.reachable t.g ~root:t.entry))

let validate_reached t reached = check t (fun () -> reached)

let pp ?(pp_info = fun _ _ -> ()) fmt t =
  Fmt.pf fmt "@[<v>CFG: %d nodes, entry=%d, exits=[%a]" (num_nodes t)
    t.entry
    Fmt.(list ~sep:comma int)
    t.exits;
  iter_nodes
    (fun n ->
      Fmt.pf fmt "@,  %d [%a]%a:" n Node_type.pp (node_type t n)
        (fun fmt n -> pp_info fmt (info t n))
        n;
      List.iter
        (fun (e : Label.t Digraph.edge) ->
          Fmt.pf fmt " -%s-> %d" (Label.to_string e.label) e.dst)
        (succ_edges t n))
    t;
  Fmt.pf fmt "@]"
