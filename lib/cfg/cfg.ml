(* Control flow graphs per Definition 1 of the paper:
   CFG = (N_c, E_c, T_c), a labelled multigraph with a node-type mapping.

   Node payloads of type ['a] carry whatever the client attaches — the MF77
   frontend stores basic-block contents there; tests use strings or unit.
   The graph also records the unique first node [entry] and the last nodes
   [exits] (§2 allows several, e.g. RETURN statements).  A CFG is made
   once by [Builder] and read-only after: a frozen graph plus node-type
   and payload arrays.  Rewrites ([map_info], [contract],
   [split_irreducible]) return a new CFG. *)

open S89_graph

type 'a t = {
  g : Label.t Digraph.t;
  types : Node_type.t array;
  info : 'a array;
  entry : int; (* -1 when unset *)
  exits : int list;
}

type 'a cfg = 'a t

module Builder = struct
  type 'a t = {
    g : Label.t Digraph.Builder.t;
    types : Node_type.t Vec.t;
    info : 'a Vec.t;
    mutable entry : int;
    mutable exits : int list;
  }

  let create ?(nodes = 8) ?edges ~dummy () =
    {
      g = Digraph.Builder.create ?edges ();
      types = Vec.create ~capacity:nodes ~dummy:Node_type.Other;
      info = Vec.create ~capacity:nodes ~dummy;
      entry = -1;
      exits = [];
    }

  let add_node ?(ty = Node_type.Other) b x =
    Vec.push b.types ty;
    Vec.push b.info x;
    Digraph.Builder.add_node b.g

  let add_edge b ~src ~dst ~label = Digraph.Builder.add_edge b.g ~src ~dst ~label
  let set_entry b n = b.entry <- n
  let set_exits b ns = b.exits <- ns

  let freeze b : _ cfg =
    {
      g = Digraph.Builder.freeze b.g;
      types = Vec.to_array b.types;
      info = Vec.to_array b.info;
      entry = b.entry;
      exits = b.exits;
    }
end

let graph t = t.g
let num_nodes t = Digraph.num_nodes t.g
let node_type t n = t.types.(n)
let info t n = t.info.(n)

let map_info f t =
  { g = t.g; types = t.types; info = Array.mapi f t.info; entry = t.entry; exits = t.exits }

let entry t =
  if t.entry < 0 then invalid_arg "Cfg.entry: entry not set";
  t.entry

let exits t = t.exits
let succ_edges t n = Digraph.succ_edges t.g n
let pred_edges t n = Digraph.pred_edges t.g n
let iter_nodes f t = Digraph.iter_nodes f t.g

(* Distinct outgoing labels of a node, in first-appearance order.  These are
   "the branch labels from node u" of §3's second optimization. *)
let out_labels t n = Digraph.out_labels t.g n

(* The CFG on the nodes [v] with [target.(v) = v], renumbered in id
   order; an out-edge of a kept node to [v] goes to [target.(v)] instead,
   and the other nodes go with their out-edges. *)
let contract t ~target =
  let n = num_nodes t and g = t.g in
  let remap = Array.make n (-1) and kept = ref 0 in
  for v = 0 to n - 1 do
    if target.(v) = v then begin
      remap.(v) <- !kept;
      incr kept
    end
  done;
  if !kept = n then t
  else begin
    let orig = Array.make !kept 0 in
    let b = Digraph.Builder.create ~edges:(Digraph.num_edges g) () in
    ignore (Digraph.Builder.add_nodes b !kept);
    for u = 0 to n - 1 do
      if remap.(u) >= 0 then begin
        orig.(remap.(u)) <- u;
        for k = g.succ_off.(u) to g.succ_off.(u + 1) - 1 do
          Digraph.Builder.add_edge b ~src:remap.(u)
            ~dst:remap.(target.(g.succ_dst.(k)))
            ~label:g.succ_lbl.(k)
        done
      end
    done;
    let pick a = Array.map (Array.get a) orig in
    {
      g = Digraph.Builder.freeze b;
      types = pick t.types;
      info = pick t.info;
      entry = remap.(target.(entry t));
      exits = List.filter_map (fun x -> if remap.(x) >= 0 then Some remap.(x) else None) t.exits;
    }
  end

(* Node splitting at the CFG level: a copy takes its original's payload
   and type (an original may itself be an earlier copy), and a copy of an
   exit is an exit. *)
let split_irreducible t =
  let g, splits = Node_split.split t.g ~root:(entry t) in
  let orig = Array.init (Digraph.num_nodes g) Fun.id in
  List.iter (fun (o, c) -> orig.(c) <- orig.(o)) splits;
  let is_exit = Array.make (num_nodes t) false in
  List.iter (fun x -> if Digraph.mem_node t.g x then is_exit.(x) <- true) t.exits;
  let exits = ref [] in
  for v = Digraph.num_nodes g - 1 downto 0 do
    if is_exit.(orig.(v)) then exits := v :: !exits
  done;
  let copy a = Array.map (Array.get a) orig in
  ({ g; types = copy t.types; info = copy t.info; entry = t.entry; exits = !exits }, splits)

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
