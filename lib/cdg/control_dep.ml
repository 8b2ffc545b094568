(* Control dependence (Definition 2, after Ferrante–Ottenstein–Warren).

   y is control dependent on x with label l iff
     1. y does not postdominate x,
     2. there is a path from x to y whose intermediate nodes are all
        postdominated by y,
     3. an edge labelled l leaves x towards the second node of that path.

   Equivalently (FOW87): for every ECFG edge (x,s,l) where s's
   postdominators do not include x's, the control dependent nodes are the
   postdominator-tree ancestors of s (inclusive) strictly below ipdom(x).
   We compute exactly that tree walk. *)

open S89_graph
open S89_cfg

exception Cannot_reach_stop of int list
(* nodes with no path to STOP; the paper assumes normal termination *)

type t = {
  g : Label.t Digraph.t; (* CDG edges (x, y, l): y is CD on condition (x,l) *)
  pdom : Postdom.t;
}

let compute (ecfg : 'a Ecfg.t) =
  let cfg = Ecfg.cfg ecfg in
  let c = Cfg.graph cfg in
  let stop = Ecfg.stop ecfg in
  let pdom = Postdom.compute c ~exit_:stop in
  let n = c.n in
  let stuck = ref [] in
  for v = n - 1 downto 0 do
    if not (Postdom.reachable pdom v) then stuck := v :: !stuck
  done;
  if !stuck <> [] then raise (Cannot_reach_stop !stuck);
  (* Strong-control-dependence formulation (Chalupa et al., arXiv
     2011.01564): the per-edge strict postdominance test is the
     postdominator tree's O(1) range check, and every ancestor-walk step
     is an array read of the immediate postdominator.  Node and out-edge
     order below follows the ECFG's CSR slots, i.e. [Digraph.iter_edges]
     exactly, so the CDG edge sequence — and everything ordered downstream
     of it (FCDG labels, children, topological order, golden reports) — is
     fixed. *)
  let not_strictly_postdominates s x =
    s = x || not (Postdom.postdominates pdom s x)
  in
  (* The walk for edge (x,s,l) emits the postdominator-tree ancestors of
     [s] (inclusive) strictly below ipdom(x).  A single walk never
     revisits a node (strict ascent), so (x,t,l) duplicates can only
     arise when [x] has two out-edges sharing a label — rare enough that
     the common case skips dedup bookkeeping entirely.  When dedup is
     needed, a walk reaching a node already emitted for (x,l) stops
     early: the earlier walk continued from there to the same limit, so
     everything above is already present.  Total work is linear in the
     size of the CDG. *)
  let seen = Hashtbl.create 16 in
  let b = Digraph.Builder.create ~edges:(Digraph.num_edges c) () in
  ignore (Digraph.Builder.add_nodes b n);
  for x = 0 to n - 1 do
    let lo = c.succ_off.(x) and hi = c.succ_off.(x + 1) in
    let limit = Postdom.ipostdom_id pdom x in
    let dedup = ref false in
    for i = lo to hi - 1 do
      for j = i + 1 to hi - 1 do
        if Label.equal c.succ_lbl.(i) c.succ_lbl.(j) then dedup := true
      done
    done;
    let dedup = !dedup in
    if dedup then Hashtbl.reset seen;
    for i = lo to hi - 1 do
      let s = c.succ_dst.(i) and label = c.succ_lbl.(i) in
      if not_strictly_postdominates s x then begin
        let t = ref s and walking = ref true in
        while !walking && !t <> limit do
          if dedup && Hashtbl.mem seen (!t, label) then walking := false
          else begin
            if dedup then Hashtbl.replace seen (!t, label) ();
            Digraph.Builder.add_edge b ~src:x ~dst:!t ~label;
            let t' = Postdom.ipostdom_id pdom !t in
            if t' < 0 then walking := false else t := t'
          end
        done
      end
    done
  done;
  { g = Digraph.Builder.freeze b; pdom }

let graph t = t.g
let postdom t = t.pdom

(* Definitional check used as an independent oracle in tests:
   y is CD on (x,l) iff some edge (x,s,l) has y postdominating s but not
   strictly postdominating x.  Condition 1 of Definition 2 reads "y does
   not post-dominate x" with FOW87's strict postdominance, which admits
   the self-dependence of a single-node loop (y = x); the tree walk above
   produces exactly that set. *)
let is_control_dependent t (ecfg : 'a Ecfg.t) ~on:(x, l) y =
  let cfg = Ecfg.cfg ecfg in
  List.exists
    (fun (e : Label.t Digraph.edge) ->
      Label.equal e.label l
      && Postdom.postdominates t.pdom y e.dst
      && not (Postdom.strictly_postdominates t.pdom y x))
    (Cfg.succ_edges cfg x)
