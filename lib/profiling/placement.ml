(* Smart counter placement (§3): decide which control conditions get a
   physical counter, which are derived from conservation laws, and how the
   counters are realized as VM probes.

   Optimization 1 is structural: counters are per control condition
   [(u,l)] of the FCDG, so identically control dependent basic blocks
   already share one counter.

   Optimization 2 drops counters using the paper's linear relations, where
   NODE_TOTAL(x) = Σ TOTAL over FCDG in-conditions of x (the execution
   count equation of control dependence):
   - node balance:   Σ_l TOTAL(u,l) = NODE_TOTAL(u)  when every branch
     label of u appears as a control condition;
   - exit balance:   Σ interval exit conditions = NODE_TOTAL(preheader);
   - latch balance:  Σ back-edge totals = TOTAL(ph,U) − NODE_TOTAL(ph),
     usable in both directions: to drop one latch condition, or — usually
     far more profitable — to drop the per-iteration header counter
     TOTAL(ph,U) itself when every latch total is expressible (a condition,
     or the node total of an unconditional latch node).

   Optimization 3 handles exit-free DO loops: the header-execution counter
   is realized as one bulk add of (trip+1) per loop entry, or eliminated
   entirely when the trip count is a compile-time constant.

   Dropping is greedy.  A node balance drops the first label in
   [Cfg.out_labels] order that is not a cold loop exit, so exit labels,
   which fire once per loop entry, stay measured.  A symbolic solvability
   pass ([settle], by unit propagation) then re-measures drops one at a
   time if a combination of drops turned out circular, so the final plan
   is always reconstructible (Reconstruct replays the same derivations
   numerically). *)

module Ir = S89_frontend.Ir
module Ast = S89_frontend.Ast
module Program = S89_frontend.Program
module Probe = S89_vm.Probe
open S89_cfg
open S89_cdg

type cond = Analysis.cond

(* a quantity known to the reconstruction system *)
type term =
  | Tcond of cond (* TOTAL_FREQ of a control condition *)
  | Tnode_total of int (* NODE_TOTAL of an FCDG node *)

type derivation =
  | Node_balance of { node : int; others : cond list }
      (* c = NODE_TOTAL(node) − Σ others *)
  | Exit_balance of { ph : int; others : cond list }
      (* c = NODE_TOTAL(ph) − Σ others *)
  | Latch_balance of { ph : int; header_cond : cond; others : term list }
      (* c = TOTAL(header_cond) − NODE_TOTAL(ph) − Σ others *)
  | Header_from_latches of { ph : int; latches : term list }
      (* c = NODE_TOTAL(ph) + Σ latches *)
  | Static_trip of { ph : int; trip : int }
      (* c = (trip+1) × NODE_TOTAL(ph): header executions of a constant-trip
         exit-free DO loop *)
  | Static_body of { ph : int; trip : int }
      (* c = trip × NODE_TOTAL(ph): body executions of the same *)

type realization =
  | Incr_edge of int * Label.t (* counter += 1 on an original CFG edge *)
  | Incr_node of int (* counter += 1 when an original node executes *)
  | Bulk_entries of int * Ast.expr (* counter += expr on each entry edge of header *)

type proc_plan = {
  analysis : Analysis.t;
  measured : (cond * int * realization) list;
  derived : (cond * derivation) list;
  second_moment : (int * int * int option) list;
      (* header, counter id for Σ(trip+1)² over entries, static trip *)
}

type t = {
  probes : Probe.t;
  n_counters : int;
  plans : (string, proc_plan) Hashtbl.t;
}

let pp_cond fmt ((u, l) : cond) = Fmt.pf fmt "(%d,%s)" u (Label.to_string l)

let log_src = Logs.Src.create "s89.placement" ~doc:"counter placement decisions"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ---------------- per-procedure planning ---------------- *)

(* Is the label's FCDG condition one whose children include a postexit?
   Such a cold exit label is kept measured by node balances. *)
let is_exit_label analysis (u, l) =
  let fcdg = analysis.Analysis.fcdg in
  List.exists (fun v -> Ecfg.is_postexit analysis.Analysis.ecfg v) (Fcdg.children fcdg u l)

type plan_state = {
  a : Analysis.t;
  real_conds : cond list;
  is_real : (cond, unit) Hashtbl.t; (* the members of [real_conds] *)
  parents : (int, cond list) Hashtbl.t; (* real_parent_conds, once per node *)
  mutable drops : (cond * derivation) list;
      (* latest first while dropping, in drop order from [settle] on *)
  dropped : (cond, derivation) Hashtbl.t;
  bulk : (cond, Ast.expr) Hashtbl.t;
}

(* the non-pseudo FCDG in-conditions of a node: NODE_TOTAL is their sum *)
let real_parent_conds ps node =
  match Hashtbl.find_opt ps.parents node with
  | Some cs -> cs
  | None ->
      let cs = Fcdg.parent_conditions ps.a.Analysis.fcdg node in
      Hashtbl.replace ps.parents node cs;
      cs

let is_cond ps c = Hashtbl.mem ps.is_real c

let is_free ps c =
  is_cond ps c && (not (Hashtbl.mem ps.dropped c)) && not (Hashtbl.mem ps.bulk c)

let try_drop ps c deriv =
  if is_free ps c then begin
    Log.debug (fun m ->
        m "%s: drop %a" ps.a.Analysis.proc.Program.name pp_cond c);
    Hashtbl.replace ps.dropped c deriv;
    ps.drops <- (c, deriv) :: ps.drops;
    true
  end
  else false

(* express a latch edge (u,l) as a term, if possible *)
let latch_term ps ((u, l) as c) =
  if is_cond ps c then Some (Tcond c)
  else if
    (* unconditional latch: its total is the node's execution count *)
    Label.equal l Label.U
    && S89_graph.Digraph.out_degree (Cfg.graph (Ecfg.cfg ps.a.Analysis.ecfg)) u = 1
  then Some (Tnode_total u)
  else None

(* ---------------- solvability ---------------- *)

(* The conditions a derivation reads; a node total reads the node's real
   parent conditions. *)
let derivation_reads ps deriv =
  let term = function Tcond c -> [ c ] | Tnode_total x -> real_parent_conds ps x in
  match deriv with
  | Node_balance { node = x; others } | Exit_balance { ph = x; others } ->
      real_parent_conds ps x @ others
  | Latch_balance { ph; header_cond; others } ->
      (header_cond :: real_parent_conds ps ph) @ List.concat_map term others
  | Header_from_latches { ph; latches } ->
      real_parent_conds ps ph @ List.concat_map term latches
  | Static_trip { ph; _ } | Static_body { ph; _ } -> real_parent_conds ps ph

(* Re-measurement cost heuristic for breaking derivation cycles: exit
   conditions fire once per loop entry (cheap to measure); everything
   else fires up to once per iteration at its nesting depth. *)
let remeasure_cost (a : Analysis.t) ((u, _) as c) =
  if is_exit_label a c then 0
  else
    let ecfg = a.Analysis.ecfg in
    let interval =
      if Ecfg.is_preheader ecfg u then Ecfg.header_of_preheader ecfg u
      else Ecfg.interval_of ecfg u
    in
    1 + Intervals.interval_depth (Ecfg.intervals ecfg) interval

let compare_cond ((u1, l1) : cond) ((u2, l2) : cond) =
  match Int.compare u1 u2 with 0 -> Label.compare l1 l2 | c -> c

(* Re-measure circular drops until every remaining drop is derivable.

   A condition is known when it is measured, or when it is dropped and
   its derivation reads only known conditions; the known set is the least
   fixpoint of that rule, found by unit propagation.  [pending.(i)] counts
   the distinct not-yet-known conditions drop [i] reads and [waiting.(j)]
   lists the drops that read drop [j]; when [j] becomes known its waiters
   count down, and a drop reaching zero becomes known in turn.

   Drops left unknown sit on derivation cycles.  The victim is the
   unknown drop of least [remeasure_cost], the latest drop on ties; it is
   re-measured (so known) and propagates.  The known set only grows, so
   the unknown drops are ordered once and each victim is the next entry
   not yet known: the same victims, in the same order, as re-solving the
   fixpoint from scratch after each re-measurement would pick (the golden
   plans in the tests pin this order).  Near-linear in the size of the
   derivations. *)
let settle ps =
  let a = ps.a in
  let drops = Array.of_list ps.drops in
  let n = Array.length drops in
  let index = Hashtbl.create n in
  Array.iteri (fun i (c, _) -> Hashtbl.replace index c i) drops;
  let is_condition = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace is_condition c ()) a.Analysis.conditions;
  let known = Array.make n false in
  let pending = Array.make n 0 in
  let waiting = Array.make n [] in
  Array.iteri
    (fun i (_, deriv) ->
      List.iter
        (fun c ->
          match Hashtbl.find_opt index c with
          | Some j ->
              pending.(i) <- pending.(i) + 1;
              waiting.(j) <- i :: waiting.(j)
          | None ->
              (* a measured condition is known; anything else never is *)
              if not (Hashtbl.mem is_condition c) then pending.(i) <- pending.(i) + 1)
        (List.sort_uniq compare_cond (derivation_reads ps deriv)))
    drops;
  let ready = Stack.create () in
  let learn i =
    known.(i) <- true;
    Stack.push i ready
  in
  let propagate () =
    while not (Stack.is_empty ready) do
      List.iter
        (fun i ->
          if not known.(i) then begin
            pending.(i) <- pending.(i) - 1;
            if pending.(i) = 0 then learn i
          end)
        waiting.(Stack.pop ready)
    done
  in
  Array.iteri (fun i _ -> if pending.(i) = 0 then learn i) drops;
  propagate ();
  let remeasured = Array.make n false in
  List.filter (fun i -> not known.(i)) (List.init n Fun.id)
  |> List.map (fun i -> (remeasure_cost a (fst drops.(i)), i))
  |> List.sort (fun (k1, i1) (k2, i2) ->
         match Int.compare k1 k2 with 0 -> Int.compare i2 i1 | k -> k)
  |> List.iter (fun (_, i) ->
         if not known.(i) then begin
           let c = fst drops.(i) in
           Log.debug (fun m ->
               m "%s: circular derivation, re-measuring %a"
                 a.Analysis.proc.Program.name pp_cond c);
           remeasured.(i) <- true;
           Hashtbl.remove ps.dropped c;
           learn i;
           propagate ()
         end);
  ps.drops <- List.filteri (fun i _ -> not remeasured.(i)) ps.drops

let plan_state ~opt2 ~opt3 (a : Analysis.t) : plan_state =
  let ecfg = a.Analysis.ecfg in
  let cfg = a.Analysis.proc.Program.cfg in
  let real_conds =
    List.filter
      (fun c -> Analysis.site_of_condition a c <> Analysis.Never)
      a.Analysis.conditions
  in
  let n_real = List.length real_conds in
  let is_real = Hashtbl.create n_real in
  List.iter (fun c -> Hashtbl.replace is_real c ()) real_conds;
  let ps =
    { a; real_conds; is_real; parents = Hashtbl.create n_real; drops = [];
      dropped = Hashtbl.create 16; bulk = Hashtbl.create 16 }
  in
  let exit_free = if opt3 then Analysis.exit_free_do_headers a else [] in
  (* --- optimization 3: exit-free DO loops ---
     Both loop conditions are covered: the header-execution condition
     (ph, U) and the body condition (h, T).  Constant trips need no
     counter at all; otherwise one bulk add per loop entry. *)
  List.iter
    (fun h ->
      match Analysis.do_meta a h with
      | None -> ()
      | Some meta -> (
          let ph = Ecfg.preheader_of_header ecfg h in
          let c_hdr = (ph, Ecfg.body_label) in
          let c_body = (h, Label.T) in
          match meta.Ir.static_trip with
          | Some k ->
              ignore (try_drop ps c_hdr (Static_trip { ph; trip = k }));
              ignore (try_drop ps c_body (Static_body { ph; trip = k }))
          | None ->
              if is_free ps c_body then
                Hashtbl.replace ps.bulk c_body (Ast.Var meta.Ir.trip_var);
              (* the header total is cheaper still as NODE_TOTAL(ph) plus the
                 latch totals (observation 2) when optimization 2 is on;
                 otherwise realize it as a bulk add of trip+1 per entry *)
              if (not opt2) && is_free ps c_hdr then
                Hashtbl.replace ps.bulk c_hdr
                  (Ast.Binop (Ast.Add, Ast.Var meta.Ir.trip_var, Ast.Int 1))))
    exit_free;
  if opt2 then begin
    (* --- header counters derived from latches (observation 2, solved for
       the header's total) --- *)
    List.iter
      (fun h ->
        let ph = Ecfg.preheader_of_header ecfg h in
        let c = (ph, Ecfg.body_label) in
        if is_free ps c then begin
          let latch_edges =
            List.map
              (fun (e : Label.t S89_graph.Digraph.edge) -> (e.src, e.label))
              (Ecfg.latch_edges ecfg h)
            |> List.sort_uniq compare
          in
          let terms = List.map (latch_term ps) latch_edges in
          if List.for_all Option.is_some terms then
            ignore
              (try_drop ps c
                 (Header_from_latches { ph; latches = List.map Option.get terms }))
        end)
      (Ecfg.headers ecfg);
    (* --- node balances --- *)
    S89_graph.Digraph.iter_nodes
      (fun u ->
        if Ecfg.is_original ecfg u then begin
          let labels = Cfg.out_labels cfg u in
          if
            List.length labels >= 2
            && List.for_all (fun l -> is_cond ps (u, l)) labels
          then begin
            (* victim: the first label that is not a cold exit label (exit
               labels sort last), so exits stay measured *)
            let candidates =
              List.filter (fun l -> is_free ps (u, l)) labels
              |> List.stable_sort (fun l1 l2 ->
                     compare
                       (not (is_exit_label a (u, l2)))
                       (not (is_exit_label a (u, l1))))
            in
            match candidates with
            | victim :: _ ->
                let others =
                  List.filter_map
                    (fun l -> if Label.equal l victim then None else Some (u, l))
                    labels
                in
                ignore (try_drop ps (u, victim) (Node_balance { node = u; others }))
            | [] -> ()
          end
        end)
      (Fcdg.graph a.Analysis.fcdg);
    (* --- exit balances --- *)
    List.iter
      (fun h ->
        let ph = Ecfg.preheader_of_header ecfg h in
        let exits =
          List.concat_map (real_parent_conds ps) (Ecfg.postexits_of_header ecfg h)
          |> List.sort_uniq compare
        in
        match List.find_opt (is_free ps) exits with
        | Some victim ->
            let others = List.filter (fun c -> c <> victim) exits in
            ignore (try_drop ps victim (Exit_balance { ph; others }))
        | None -> ())
      (Ecfg.headers ecfg);
    (* --- latch balances (drop one latch condition) --- *)
    List.iter
      (fun h ->
        let ph = Ecfg.preheader_of_header ecfg h in
        let header_cond = (ph, Ecfg.body_label) in
        (* pointless if the header itself is derived from the latches *)
        if not (Hashtbl.mem ps.dropped header_cond) then begin
          let latch_edges =
            List.map
              (fun (e : Label.t S89_graph.Digraph.edge) -> (e.src, e.label))
              (Ecfg.latch_edges ecfg h)
            |> List.sort_uniq compare
          in
          match List.find_opt (is_free ps) latch_edges with
          | Some victim -> (
              let other_edges = List.filter (fun c -> c <> victim) latch_edges in
              let terms = List.map (latch_term ps) other_edges in
              if List.for_all Option.is_some terms then
                ignore
                  (try_drop ps victim
                     (Latch_balance
                        { ph; header_cond; others = List.map Option.get terms })))
          | None -> ()
        end)
      (Ecfg.headers ecfg)
  end;
  ps.drops <- List.rev ps.drops;
  settle ps;
  ps

(* What [plan_state] decided, in the form realization reads: the real
   conditions left measured, in [real_conds] order, each with its bulk
   expression if optimization 3 realizes it as a bulk add, and the drops
   with their derivations.  It names nodes and labels only, so it is a
   function of the analysis and [opt2]/[opt3] alone. *)
type decisions = {
  measure : (cond * Ast.expr option) list;
  derived : (cond * derivation) list;
}

type cache = salt:string -> Analysis.t -> (unit -> decisions) -> decisions

let plan_proc ~opt2 ~opt3 a : decisions =
  let ps = plan_state ~opt2 ~opt3 a in
  { measure =
      List.filter_map
        (fun c ->
          if Hashtbl.mem ps.dropped c then None else Some (c, Hashtbl.find_opt ps.bulk c))
        ps.real_conds;
    derived = ps.drops }

(* ---------------- probe realization ---------------- *)

let realize (a : Analysis.t) probes ~counter c bulk : realization =
  let proc = a.Analysis.proc in
  let cfg = proc.Program.cfg in
  let name = proc.Program.name in
  let num_nodes = Cfg.num_nodes cfg in
  match bulk with
  | Some expr ->
      (* the loop header: the condition is either the preheader's (ph,U) or
         the header's own body condition (h,T) *)
      let h =
        let u, _ = c in
        let ecfg = a.Analysis.ecfg in
        if Ecfg.is_preheader ecfg u then Ecfg.header_of_preheader ecfg u else u
      in
      List.iter
        (fun (e : Label.t S89_graph.Digraph.edge) ->
          Probe.add_edge_action probes ~proc:name ~num_nodes ~node:e.src ~label:e.label
            (Probe.Bulk_add (counter, expr)))
        (Analysis.entry_edges a h);
      Bulk_entries (h, expr)
  | None -> (
      match Analysis.site_of_condition a c with
      | Analysis.Edge_site (u, l) ->
          Probe.add_edge_action probes ~proc:name ~num_nodes ~node:u ~label:l
            (Probe.Incr counter);
          Incr_edge (u, l)
      | Analysis.Node_site u ->
          Probe.add_node_action probes ~proc:name ~num_nodes ~node:u
            (Probe.Incr counter);
          Incr_node u
      | Analysis.Invocation_site ->
          Probe.add_node_action probes ~proc:name ~num_nodes ~node:(Cfg.entry cfg)
            (Probe.Incr counter);
          Incr_node (Cfg.entry cfg)
      | Analysis.Never -> assert false)

(* ---------------- whole-program plan ---------------- *)

(* Without a [cache] every procedure is planned afresh; with one, the
   decisions come from [cache ~salt a compute], which may return those
   of an earlier analysis of the same body.  Counter ids and probes are
   always realized here, against [a], in procedure-name order. *)
let plan ?(opt2 = true) ?(opt3 = true) ?(second_moments = false) ?cache
    (analyses : (string, Analysis.t) Hashtbl.t) : t =
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) analyses [] |> List.sort compare in
  let next_counter = ref 0 in
  let fresh () =
    let c = !next_counter in
    incr next_counter;
    c
  in
  let probes = Probe.make ~n_counters:0 in
  let plans = Hashtbl.create 8 in
  let decide =
    match cache with
    | None -> plan_proc ~opt2 ~opt3
    | Some cache ->
        let salt = Printf.sprintf "placement %b %b" opt2 opt3 in
        fun a -> cache ~salt a (fun () -> plan_proc ~opt2 ~opt3 a)
  in
  List.iter
    (fun name ->
      let a = Hashtbl.find analyses name in
      let d = decide a in
      let measured =
        List.map
          (fun (c, bulk) ->
            let id = fresh () in
            (c, id, realize a probes ~counter:id c bulk))
          d.measure
      in
      let second_moment =
        if not second_moments then []
        else
          List.filter_map
            (fun h ->
              match Analysis.do_meta a h with
              | None -> None
              | Some meta -> (
                  match meta.Ir.static_trip with
                  | Some k -> Some (h, -1, Some k)
                  | None ->
                      let id = fresh () in
                      let tp1 =
                        Ast.Binop (Ast.Add, Ast.Var meta.Ir.trip_var, Ast.Int 1)
                      in
                      let expr = Ast.Binop (Ast.Mul, tp1, tp1) in
                      List.iter
                        (fun (e : Label.t S89_graph.Digraph.edge) ->
                          Probe.add_edge_action probes ~proc:name
                            ~num_nodes:(Cfg.num_nodes a.Analysis.proc.Program.cfg)
                            ~node:e.src ~label:e.label
                            (Probe.Bulk_add (id, expr)))
                        (Analysis.entry_edges a h);
                      Some (h, id, None)))
            (Analysis.exit_free_do_headers a)
      in
      Hashtbl.replace plans name
        { analysis = a; measured; derived = d.derived; second_moment })
    names;
  {
    probes = { probes with Probe.n_counters = !next_counter };
    n_counters = !next_counter;
    plans;
  }

let n_counters t = t.n_counters
let probes t = t.probes
let proc_plan t name = Hashtbl.find t.plans name
let proc_names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.plans [] |> List.sort compare

(* dynamic number of counter updates a run executes, from oracle counts *)
let dynamic_updates (t : t) (vm : S89_vm.Interp.t) : int =
  Hashtbl.fold
    (fun name (pp : proc_plan) acc ->
      let a = pp.analysis in
      List.fold_left
        (fun acc (_, _, r) ->
          acc
          +
          match r with
          | Incr_edge (u, l) -> S89_vm.Interp.edge_count vm name u l
          | Incr_node u -> S89_vm.Interp.node_execs vm name u
          | Bulk_entries (h, _) ->
              List.fold_left
                (fun acc (e : Label.t S89_graph.Digraph.edge) ->
                  acc + S89_vm.Interp.edge_count vm name e.src e.label)
                0
                (Analysis.entry_edges a h))
        acc pp.measured)
    t.plans 0

let pp fmt (t : t) =
  Fmt.pf fmt "@[<v>smart placement: %d counters" t.n_counters;
  List.iter
    (fun name ->
      let pp_ = Hashtbl.find t.plans name in
      Fmt.pf fmt "@,  %s: %d measured, %d derived" name (List.length pp_.measured)
        (List.length pp_.derived);
      List.iter (fun (c, _, _) -> Fmt.pf fmt "@,    measure %a" pp_cond c) pp_.measured;
      List.iter (fun (c, _) -> Fmt.pf fmt "@,    derive  %a" pp_cond c) pp_.derived)
    (proc_names t);
  Fmt.pf fmt "@]"
