(* Lowering: MF77 AST -> statement-level CFG (one node per simple
   statement, labels T/F/U/Case as in the paper's Figure 1).

   DO loops are lowered to trip-count form, the actual Fortran-77
   semantics, which is also what makes the paper's third profiling
   optimization possible: the remaining trip count lives in a compiler
   temp that is fully computed before the loop header is first entered, so
   a preheader probe can read it.

       I = lo
       [%STPk = step]                     (only when step is not a literal)
       %TRIPk = MAX0((hi - I + step)/step, 0)
   H:  DO-TEST (%TRIPk > 0)   --T--> body ... latch --U--> H
                              --F--> exit
       latch:  I = I + step ; %TRIPk = %TRIPk - 1

   Unreachable statements (e.g. after GOTO) are pruned, so Cfg.validate
   holds on the result.  One DFS of the lowered graph decides the
   pruning, the Hecht–Ullman reducibility test and validation's
   reachability; a CFG with nothing to prune is kept rather than copied,
   and only a CFG that fails the test goes to node splitting. *)

open Ast
open S89_graph
open S89_cfg

exception Error of string

let err fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type st = {
  cfg : Ir.info Cfg.t;
  label_node : (int, int) Hashtbl.t; (* statement label -> first node *)
  mutable pending : (int * Label.t * int) list; (* src, label, target stmt label *)
  mutable exits : int list; (* RETURN / STOP nodes *)
  mutable temp : int;
}

(* [pend]: out-edges of the code lowered so far, waiting for their target *)
type pend = (int * Label.t) list

let dummy_info = { Ir.ir = Ir.Nop "?"; src_label = None }

let new_node st ?src_label ir =
  Cfg.add_node st.cfg { Ir.ir; src_label }

let join st (incoming : pend) target =
  List.iter (fun (src, label) -> Cfg.add_edge st.cfg ~src ~dst:target ~label) incoming

let fresh_temp st prefix =
  st.temp <- st.temp + 1;
  "%" ^ prefix ^ string_of_int st.temp

let register_label st label node =
  match label with
  | None -> ()
  | Some l ->
      if Hashtbl.mem st.label_node l then err "duplicate label %d" l;
      Hashtbl.replace st.label_node l node

(* returns the out-pend of the statement *)
let rec lower_lstmt st (incoming : pend) (ls : lstmt) : pend =
  match ls.stmt with
  | Assign (lv, e) ->
      let n = new_node st ?src_label:ls.label (Ir.Assign (lv, e)) in
      register_label st ls.label n;
      join st incoming n;
      [ (n, Label.U) ]
  | Continue ->
      let n = new_node st ?src_label:ls.label (Ir.Nop "CONTINUE") in
      register_label st ls.label n;
      join st incoming n;
      [ (n, Label.U) ]
  | Print es ->
      let n = new_node st ?src_label:ls.label (Ir.Print es) in
      register_label st ls.label n;
      join st incoming n;
      [ (n, Label.U) ]
  | Call_stmt (name, args) ->
      let n = new_node st ?src_label:ls.label (Ir.Call (name, args)) in
      register_label st ls.label n;
      join st incoming n;
      [ (n, Label.U) ]
  | Return ->
      let n = new_node st ?src_label:ls.label Ir.Return in
      register_label st ls.label n;
      join st incoming n;
      st.exits <- n :: st.exits;
      []
  | Stop ->
      let n = new_node st ?src_label:ls.label Ir.Stop in
      register_label st ls.label n;
      join st incoming n;
      st.exits <- n :: st.exits;
      []
  | Goto target ->
      if ls.label = None then begin
        (* no node materialized: incoming edges go straight to the target,
           as in the paper's Figure 1 where "GOTO 10" is just an edge *)
        List.iter
          (fun (src, label) -> st.pending <- (src, label, target) :: st.pending)
          incoming;
        []
      end
      else begin
        let n = new_node st ?src_label:ls.label (Ir.Nop ("GOTO " ^ string_of_int target)) in
        register_label st ls.label n;
        join st incoming n;
        st.pending <- (n, Label.U, target) :: st.pending;
        []
      end
  | Cgoto (targets, e) ->
      let n = new_node st ?src_label:ls.label (Ir.Select (e, List.length targets)) in
      register_label st ls.label n;
      join st incoming n;
      List.iteri
        (fun i target -> st.pending <- (n, Label.Case (i + 1), target) :: st.pending)
        targets;
      (* out of range: fall through on F *)
      [ (n, Label.F) ]
  | If_logical (c, s) ->
      let b = new_node st ?src_label:ls.label (Ir.Branch c) in
      register_label st ls.label b;
      join st incoming b;
      let then_out = lower_lstmt st [ (b, Label.T) ] { label = None; stmt = s } in
      then_out @ [ (b, Label.F) ]
  | If_block (arms, else_) ->
      let rec chain incoming arms =
        match arms with
        | [] -> (
            match else_ with
            | Some blk -> lower_block st incoming blk
            | None -> incoming)
        | (c, blk) :: rest ->
            let b = new_node st (Ir.Branch c) in
            join st incoming b;
            let arm_out = lower_block st [ (b, Label.T) ] blk in
            let rest_out = chain [ (b, Label.F) ] rest in
            arm_out @ rest_out
      in
      (match arms with
      | [] -> err "empty IF block"
      | (c, blk) :: rest ->
          let b = new_node st ?src_label:ls.label (Ir.Branch c) in
          register_label st ls.label b;
          join st incoming b;
          let arm_out = lower_block st [ (b, Label.T) ] blk in
          let rest_out = chain [ (b, Label.F) ] rest in
          arm_out @ rest_out)
  | Do d ->
      let step = match d.do_step with Some s -> s | None -> Int 1 in
      let init = new_node st ?src_label:ls.label (Ir.Assign (Lvar d.do_var, d.do_lo)) in
      register_label st ls.label init;
      join st incoming init;
      (* step temp only when the step is not a literal *)
      let step_expr, step_out =
        match step with
        | Int _ | Real _ -> (step, [ (init, Label.U) ])
        | _ ->
            let stp = fresh_temp st "STP" in
            let n = new_node st (Ir.Assign (Lvar stp, step)) in
            join st [ (init, Label.U) ] n;
            (Var stp, [ (n, Label.U) ])
      in
      let trip_var = fresh_temp st "TRIP" in
      let trip_expr =
        Call
          ( "MAX0",
            [
              Binop
                ( Div,
                  Binop (Add, Binop (Sub, d.do_hi, Var d.do_var), step_expr),
                  step_expr );
              Int 0;
            ] )
      in
      let static_trip =
        match (d.do_lo, d.do_hi, step) with
        | Int lo, Int hi, Int s when s <> 0 -> Some (max ((hi - lo + s) / s) 0)
        | _ -> None
      in
      let tinit = new_node st (Ir.Assign (Lvar trip_var, trip_expr)) in
      join st step_out tinit;
      let header =
        new_node st (Ir.Do_test { trip_var; static_trip; do_var = d.do_var })
      in
      join st [ (tinit, Label.U) ] header;
      let body_out = lower_block st [ (header, Label.T) ] d.do_body in
      (* latch: increment, decrement trip, back to header *)
      if body_out <> [] then begin
        let inc =
          new_node st (Ir.Assign (Lvar d.do_var, Binop (Add, Var d.do_var, step_expr)))
        in
        join st body_out inc;
        let dec =
          new_node st (Ir.Assign (Lvar trip_var, Binop (Sub, Var trip_var, Int 1)))
        in
        join st [ (inc, Label.U) ] dec;
        join st [ (dec, Label.U) ] header
      end;
      [ (header, Label.F) ]

and lower_block st (incoming : pend) (blk : block) : pend =
  List.fold_left (fun inc ls -> lower_lstmt st inc ls) incoming blk

(* Keep only the nodes [reached] from the entry.  When every node is
   reached the CFG is kept, and only its in-edge lists are put in the
   order a rebuilt copy gives them (by source, then out-edge order);
   otherwise the reached part is copied, renumbered in id order. *)
let prune (cfg : Ir.info Cfg.t) (reached : int -> bool) : Ir.info Cfg.t =
  let all = ref true in
  Cfg.iter_nodes (fun n -> if not (reached n) then all := false) cfg;
  if !all then begin
    Digraph.order_preds (Cfg.graph cfg);
    cfg
  end
  else begin
    let remap = Array.make (Cfg.num_nodes cfg) (-1) in
    let out = Cfg.create ~dummy:dummy_info in
    Cfg.iter_nodes
      (fun n ->
        if reached n then
          remap.(n) <- Cfg.add_node ~ty:(Cfg.node_type cfg n) out (Cfg.info cfg n))
      cfg;
    Cfg.iter_edges
      (fun e ->
        if remap.(e.src) >= 0 && remap.(e.dst) >= 0 then
          Cfg.add_edge out ~src:remap.(e.src) ~dst:remap.(e.dst) ~label:e.label)
      cfg;
    Cfg.set_entry out remap.(Cfg.entry cfg);
    Cfg.set_exits out
      (List.filter_map
         (fun x -> if remap.(x) >= 0 then Some remap.(x) else None)
         (Cfg.exits cfg));
    out
  end

(* One DFS from the entry: its numbering and the CSR arrays it ran on *)
let numbered cfg =
  let c = Digraph.csr (Cfg.graph cfg) in
  (c, Dfs.number_csr c ~root:(Cfg.entry cfg))

let lower_unit (env : Sema.env) : Ir.info Cfg.t =
  let u = env.Sema.unit_ in
  let st =
    {
      cfg = Cfg.create ~dummy:dummy_info;
      label_node = Hashtbl.create 16;
      pending = [];
      exits = [];
      temp = 0;
    }
  in
  let entry = new_node st Ir.Entry in
  Cfg.set_entry st.cfg entry;
  let out = lower_block st [ (entry, Label.U) ] u.body in
  (* falling off END: STOP for a program, RETURN otherwise *)
  if out <> [] then begin
    let n =
      new_node st (match u.kind with Program -> Ir.Stop | _ -> Ir.Return)
    in
    join st out n;
    st.exits <- n :: st.exits
  end;
  (* resolve forward/backward GOTOs *)
  List.iter
    (fun (src, label, target) ->
      match Hashtbl.find_opt st.label_node target with
      | Some dst -> Cfg.add_edge st.cfg ~src ~dst ~label
      | None -> err "%s: GOTO to unknown label %d" u.name target)
    st.pending;
  Cfg.set_exits st.cfg (List.rev st.exits);
  (* A kept CFG differs from the graph the DFS ran on only in in-edge
     order, which neither reachability nor dominance depends on. *)
  let cfg, reached, reducible =
    let c, num = numbered st.cfg in
    let cfg = prune st.cfg (Dfs.reachable num) in
    let c, num = if cfg == st.cfg then (c, num) else numbered cfg in
    (cfg, Dfs.reachable num, Reducibility.reducible_dfs c num)
  in
  if Cfg.exits cfg = [] then err "%s: no reachable RETURN/STOP" u.name;
  let valid =
    if reducible then Cfg.validate_reached cfg reached
    else begin
      (* unstructured GOTOs can produce irreducible flow; split nodes so
         that every proc CFG satisfies the paper's reducibility assumption *)
      ignore (Cfg.split_irreducible cfg);
      (* copies of RETURN/STOP nodes are additional exits *)
      let exits = ref [] in
      Cfg.iter_nodes
        (fun n ->
          match (Cfg.info cfg n).Ir.ir with
          | Ir.Return | Ir.Stop -> exits := n :: !exits
          | _ -> ())
        cfg;
      Cfg.set_exits cfg (List.rev !exits);
      Cfg.validate cfg
    end
  in
  (match valid with
  | Ok () -> ()
  | Error e -> err "%s: lowering produced an invalid CFG: %a" u.name Cfg.pp_error e);
  cfg
