(* Forward control dependence graph (paper §2, after Hsieh / CHH89):
   "an acyclic form of the control dependence graph obtained by ignoring
   all back edges in CDG."

   A CDG edge is loop-carried (a back edge) exactly when its witnessing
   control-flow path crosses a CFG back edge, which for a reducible ECFG is
   equivalent to the target not coming strictly later in reverse postorder
   of the ECFG.  We therefore drop CDG edges (u,v) with rpo(v) <= rpo(u)
   and check the result is a rooted DAG; if the check ever failed we would
   fall back to removing retreating edges of a DFS of the CDG itself. *)

open S89_graph
open S89_cfg

exception Malformed of string

type t = {
  g : Label.t Digraph.t; (* acyclic; edge (u,v,l): v is a child of condition (u,l) *)
  start : int;
  stop : int;
  topo : int array; (* all nodes, topological order (START first) *)
  back : Label.t Digraph.edge list; (* the removed CDG back edges *)
}

(* Well-formedness from §2: the FCDG "is rooted and connected" — every node
   except STOP hangs under START — and acyclic.  In a DAG every node is
   reachable from some source, so with no source other than START (STOP
   may be one too, if it has no out-edges) it is rooted.  Returns the
   topological order of a well-formed graph. *)
let well_formed ~start ~stop (g : _ Digraph.t) =
  match Topo.sort_opt g with
  | None -> None
  | Some topo ->
      let ok = ref true in
      for v = 0 to g.n - 1 do
        if
          v <> start
          && g.pred_off.(v + 1) = g.pred_off.(v)
          && (v <> stop || g.succ_off.(v + 1) > g.succ_off.(v))
        then ok := false
      done;
      if !ok then Some topo else None

(* The CDG without the edges [is_back] selects, and those edges in edge
   order. *)
let prune ~is_back cdg =
  let b = Digraph.Builder.create ~edges:(Digraph.num_edges cdg) () in
  ignore (Digraph.Builder.add_nodes b (Digraph.num_nodes cdg));
  let back = ref [] in
  Digraph.iter_edges
    (fun e ->
      if is_back e then back := e :: !back
      else Digraph.Builder.add_edge b ~src:e.src ~dst:e.dst ~label:e.label)
    cdg;
  (Digraph.Builder.freeze b, List.rev !back)

let of_cdg (cd : Control_dep.t) (ecfg : 'a Ecfg.t) =
  let start = Ecfg.start ecfg and stop = Ecfg.stop ecfg in
  let rpo = Dfs.rpo_index (Cfg.graph (Ecfg.cfg ecfg)) ~root:start in
  let cdg = Control_dep.graph cd in
  let g, back = prune ~is_back:(fun e -> rpo.(e.dst) <= rpo.(e.src)) cdg in
  let g, back, topo =
    match well_formed ~start ~stop g with
    | Some topo -> (g, back, topo)
    | None -> (
        let num = Dfs.number cdg ~root:start in
        let g', back' =
          prune
            ~is_back:(fun e ->
              Dfs.reachable num e.src && Dfs.reachable num e.dst
              && Dfs.classify num e = Dfs.Back)
            cdg
        in
        match well_formed ~start ~stop g' with
        | Some topo -> (g', back', topo)
        | None ->
            raise
              (Malformed
                 "FCDG is not a rooted DAG after back-edge removal; input CFG \
                  is not in the form the paper assumes"))
  in
  { g; start; stop; topo; back }

let compute ecfg = of_cdg (Control_dep.compute ecfg) ecfg

let graph t = t.g
let start t = t.start
let stop t = t.stop
let removed_back_edges t = t.back

(* Topological order over all nodes: visit for the top-down FREQ pass. *)
let topological t = t.topo

(* Bottom-up order for the TIME/VAR passes. *)
let bottom_up t =
  let n = Array.length t.topo in
  Array.init n (fun i -> t.topo.(n - 1 - i))

(* L(u): the distinct labels leaving u in FCDG, in first-appearance order. *)
let labels t u = Digraph.out_labels t.g u

(* C(u,l): children of u under label l. *)
let children t u l =
  let g = t.g and acc = ref [] in
  for k = g.succ_off.(u + 1) - 1 downto g.succ_off.(u) do
    if Label.equal g.succ_lbl.(k) l then acc := g.succ_dst.(k) :: !acc
  done;
  !acc

(* The real conditions (u,l) that [v] hangs under: its in-edges other
   than pseudo ones, sorted and without repeats.  NODE_TOTAL(v) is the
   sum of their totals. *)
let parent_conditions t v =
  let g = t.g and acc = ref [] in
  for k = g.pred_off.(v) to g.pred_off.(v + 1) - 1 do
    if not (Label.is_pseudo g.pred_lbl.(k)) then acc := (g.pred_src.(k), g.pred_lbl.(k)) :: !acc
  done;
  List.sort_uniq compare !acc

(* The control conditions {(u,l) | (u,v,l) in E_f} of §3, in a
   deterministic order (by source node, then label first-appearance). *)
let control_conditions t =
  let acc = ref [] in
  Digraph.iter_nodes
    (fun u -> List.iter (fun l -> acc := (u, l) :: !acc) (labels t u))
    t.g;
  List.rev !acc

let pp fmt t =
  Fmt.pf fmt "@[<v>FCDG (START=%d, STOP=%d):" t.start t.stop;
  Digraph.iter_nodes
    (fun u ->
      let es = Digraph.succ_edges t.g u in
      if es <> [] then begin
        Fmt.pf fmt "@,  %d:" u;
        List.iter
          (fun (e : Label.t Digraph.edge) ->
            Fmt.pf fmt " -%s-> %d" (Label.to_string e.label) e.dst)
          es
      end)
    t.g;
  Fmt.pf fmt "@]"
