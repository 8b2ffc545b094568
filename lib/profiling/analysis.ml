(* Per-procedure analysis bundle: ECFG + CDG + FCDG over the lowered CFG,
   plus the classification of every FCDG control condition into the
   physical measurement that realizes it.

   Sites bridge the paper's analysis world (conditions live on ECFG nodes,
   some of them synthetic) and the execution world (the VM runs the
   original CFG):
   - a condition of an original branch node is an original CFG edge;
   - a preheader's body condition counts executions of the header node;
   - START's condition counts procedure invocations;
   - a RETURN/STOP node's U condition counts executions of that node
     (its ECFG out-edge to STOP does not exist in the original CFG);
   - pseudo conditions are never taken. *)

module Ir = S89_frontend.Ir
module Program = S89_frontend.Program
open S89_cfg
open S89_cdg

type cond = int * Label.t

type site =
  | Edge_site of int * Label.t (* original CFG edge (src, label) *)
  | Node_site of int (* executions of an original node *)
  | Invocation_site (* procedure entry (START, U) *)
  | Never (* pseudo conditions: always zero *)

type t = {
  proc : Program.proc;
  ecfg : Ir.info Ecfg.t;
  cdg : Control_dep.t;
  fcdg : Fcdg.t;
  conditions : cond list; (* all FCDG control conditions *)
}

let synthetic_info = { Ir.ir = Ir.Nop "SYNTH"; src_label = None }

exception Unanalyzable of { proc : string; reason : string }

(* The frequency laws assert FREQ(x) = FREQ(h) for every node x hanging
   under a loop preheader's body condition (ph, U) — "executes once per
   execution of the header".  That is only sound if x lies on every pass
   through the loop.  A jump from a loop's exit path back into its body
   (e.g. a GOTO back into a DO body from after it) keeps the graph
   reducible, but extends the natural loop to swallow its own exit path:
   some node then postdominates the header — so it hangs under (ph, U) —
   while whole iterations bypass it, and the laws silently overcount.
   Detect that up front: for every original node x control dependent on
   (ph, U), no pass through the loop (header to back-edge source or to
   exit-edge source, inside the members) may avoid x. *)
let check_body_conditions name (proc : Program.proc) (ecfg : _ Ecfg.t)
    (cdg : Control_dep.t) : unit =
  let module Digraph = S89_graph.Digraph in
  let ivs = Ecfg.intervals ecfg in
  match Intervals.headers ivs with
  | [] -> ()
  | headers ->
      let c = Cfg.graph proc.Program.cfg and n = Cfg.num_nodes proc.Program.cfg in
      let cd = Control_dep.graph cdg in
      (* per-node stamps instead of per-walk tables: [sink.(v) = h] marks
         where a pass through [h]'s loop may end, [seen.(v) = walk] the
         nodes the current walk reached *)
      let sink = Array.make n (-1) and seen = Array.make n (-1) in
      let stack = Array.make n 0 and walk = ref 0 in
      List.iter
        (fun h ->
          let ph = Ecfg.preheader_of_header ecfg h in
          List.iter (fun s -> sink.(s) <- h) (Intervals.back_edge_sources ivs h);
          List.iter
            (fun (e : Label.t Digraph.edge) -> sink.(e.src) <- h)
            (Intervals.exit_edges ivs h);
          for i = cd.succ_off.(ph) to cd.succ_off.(ph + 1) - 1 do
            let x = cd.succ_dst.(i) in
            if
              Label.equal cd.succ_lbl.(i) Ecfg.body_label
              && Ecfg.is_original ecfg x && x <> h
            then begin
              (* can a pass through the loop complete without touching x? *)
              incr walk;
              seen.(h) <- !walk;
              stack.(0) <- h;
              let sp = ref 1 and bypassed = ref false in
              while !sp > 0 && not !bypassed do
                decr sp;
                let v = stack.(!sp) in
                if sink.(v) = h then bypassed := true
                else
                  for j = c.succ_off.(v) to c.succ_off.(v + 1) - 1 do
                    let w = c.succ_dst.(j) in
                    if w <> h && w <> x && seen.(w) <> !walk && Intervals.mem ivs h w
                    then begin
                      seen.(w) <- !walk;
                      stack.(!sp) <- w;
                      incr sp
                    end
                  done
              done;
              if !bypassed then
                raise
                  (Unanalyzable
                     {
                       proc = name;
                       reason =
                         Printf.sprintf
                           "loop at node %d re-entered around its header: node \
                            %d postdominates the header but is bypassed by some \
                            iteration, so the interval frequency laws do not \
                            apply"
                           h x;
                     })
            end
          done)
        headers

let of_proc ?(attempt = 0) (proc : Program.proc) : t =
  let name = proc.Program.name in
  (* chaos hook: S89_FAULTS=analysis_raise:P fails this procedure's
     analysis, exercising the pipeline's graceful-degradation path; each
     supervised restart draws afresh *)
  (match S89_util.Fault.active () with
  | Some sp
    when S89_util.Fault.fires sp S89_util.Fault.Analysis_raise
           ~key:(S89_util.Fault.string_key name) ~attempt ->
      raise
        (S89_util.Fault.Injected
           (S89_util.Fault.injected_msg S89_util.Fault.Analysis_raise
              ~key:(S89_util.Fault.string_key name)))
  | _ -> ());
  (* the interval/ECFG pipeline assumes a valid, reducible CFG (the paper
     does too); Ecfg.extend checks both up front, and a violated
     assumption becomes a structured failure *)
  let ecfg =
    try Ecfg.extend ~empty:synthetic_info proc.Program.cfg with
    | Ecfg.Invalid_cfg e ->
        raise
          (Unanalyzable
             { proc = name; reason = Fmt.str "invalid CFG: %a" Cfg.pp_error e })
    | Intervals.Irreducible _ ->
        raise
          (Unanalyzable
             { proc = name; reason = "control flow graph is irreducible" })
  in
  let cdg = Control_dep.compute ecfg in
  check_body_conditions name proc ecfg cdg;
  let fcdg = Fcdg.of_cdg cdg ecfg in
  { proc; ecfg; cdg; fcdg; conditions = Fcdg.control_conditions fcdg }

let of_program (prog : Program.t) : (string, t) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (p : Program.proc) -> Hashtbl.replace tbl p.name (of_proc p))
    (Program.procs prog);
  tbl

let site_of_condition t ((u, l) : cond) : site =
  if Label.is_pseudo l then Never
  else if u = Ecfg.start t.ecfg then
    if Label.equal l Label.U then Invocation_site else Never
  else if Ecfg.is_preheader t.ecfg u then
    if Label.equal l Ecfg.body_label then Node_site (Ecfg.header_of_preheader t.ecfg u)
    else Never
  else if Ecfg.is_original t.ecfg u then begin
    (* the original CFG has the edge unless it was the implicit fall-to-STOP *)
    if
      List.exists
        (fun (e : Label.t S89_graph.Digraph.edge) -> Label.equal e.label l)
        (Cfg.succ_edges t.proc.Program.cfg u)
    then Edge_site (u, l)
    else Node_site u
  end
  else Never (* postexit/stop: no real conditions originate here *)

(* The condition's TOTAL_FREQ from the VM's oracle counts — ground truth,
   used by tests and by estimation straight from an uninstrumented run. *)
let oracle_total (t : t) (vm : S89_vm.Interp.t) (c : cond) : int =
  let name = t.proc.Program.name in
  match site_of_condition t c with
  | Never -> 0
  | Invocation_site -> S89_vm.Interp.invocations vm name
  | Node_site n -> S89_vm.Interp.node_execs vm name n
  | Edge_site (n, l) -> S89_vm.Interp.edge_count vm name n l

(* All conditions with their oracle totals. *)
let oracle_totals t vm : (cond, int) Hashtbl.t =
  let tbl = Hashtbl.create 32 in
  List.iter (fun c -> Hashtbl.replace tbl c (oracle_total t vm c)) t.conditions;
  tbl

(* interval headers whose loop is an exit-free DO loop: every control flow
   into one of its postexits originates at the header itself — no branch
   in the body exits the loop (§3, third optimization: "look for an edge
   to a POSTEXIT node") *)
let exit_free_do_headers t : int list =
  let cfg = Ecfg.cfg t.ecfg in
  List.filter
    (fun h ->
      (match (Cfg.info cfg h).Ir.ir with Ir.Do_test _ -> true | _ -> false)
      && List.for_all
           (fun pe ->
             List.for_all
               (fun (e : Label.t S89_graph.Digraph.edge) ->
                 Label.is_pseudo e.label || e.src = h)
               (Cfg.pred_edges cfg pe))
           (Ecfg.postexits_of_header t.ecfg h))
    (Ecfg.headers t.ecfg)

let do_meta t h : Ir.do_meta option =
  match (Cfg.info (Ecfg.cfg t.ecfg) h).Ir.ir with
  | Ir.Do_test d -> Some d
  | _ -> None

(* Original-CFG entry edges of a loop: edges (u, h, l) from outside the
   interval (these were redirected to the preheader in the ECFG). *)
let entry_edges t h =
  let iv = Ecfg.intervals t.ecfg in
  List.filter
    (fun (e : Label.t S89_graph.Digraph.edge) -> not (Intervals.mem iv h e.src))
    (Cfg.pred_edges t.proc.Program.cfg h)
