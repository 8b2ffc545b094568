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

   The CFG is built through a Cfg.Builder and frozen once.  Unreachable
   statements (e.g. after GOTO) are pruned, so Cfg.validate holds on the
   result.  One DFS of the lowered graph decides the pruning, the
   Hecht–Ullman reducibility test and validation's reachability; a CFG
   with nothing to prune is kept rather than copied, and only a CFG that
   fails the test goes to node splitting. *)

open Ast
open S89_graph
open S89_cfg

exception Error of string

let err fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type st = {
  cfg : Ir.info Cfg.Builder.t;
  label_node : (int, int) Hashtbl.t; (* statement label -> first node *)
  mutable pending : (int * Label.t * int) list; (* src, label, target stmt label *)
  mutable exits : int list; (* RETURN / STOP nodes *)
  mutable temp : int;
}

(* [pend]: out-edges of the code lowered so far, waiting for their target *)
type pend = (int * Label.t) list

let dummy_info = { Ir.ir = Ir.Nop "?"; src_label = None }

let new_node st ?src_label ir =
  Cfg.Builder.add_node st.cfg { Ir.ir; src_label }

let join st (incoming : pend) target =
  List.iter (fun (src, label) -> Cfg.Builder.add_edge st.cfg ~src ~dst:target ~label) incoming

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

(* Statements in [b], nested ones included: the builder's size *)
let rec statements (b : block) =
  List.fold_left (fun k (ls : lstmt) -> k + 1 + nested ls.stmt) 0 b

and nested = function
  | Do d -> statements d.do_body
  | If_block (arms, else_) ->
      List.fold_left (fun k (_, b) -> k + statements b) 0 arms
      + Option.fold ~none:0 ~some:statements else_
  | _ -> 0

(* One DFS from the entry: its numbering of the CFG's graph *)
let numbered cfg = Dfs.number (Cfg.graph cfg) ~root:(Cfg.entry cfg)

let lower_unit (env : Sema.env) : Ir.info Cfg.t =
  let u = env.Sema.unit_ in
  let size = 2 * statements u.body + 2 in
  let st =
    {
      cfg = Cfg.Builder.create ~nodes:size ~edges:size ~dummy:dummy_info ();
      label_node = Hashtbl.create 16;
      pending = [];
      exits = [];
      temp = 0;
    }
  in
  let entry = new_node st Ir.Entry in
  Cfg.Builder.set_entry st.cfg entry;
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
      | Some dst -> Cfg.Builder.add_edge st.cfg ~src ~dst ~label
      | None -> err "%s: GOTO to unknown label %d" u.name target)
    st.pending;
  Cfg.Builder.set_exits st.cfg (List.rev st.exits);
  (* Keep only the nodes the entry reaches; a CFG with nothing to prune
     is kept as it is, with the DFS that ran on it *)
  let cfg, num =
    let built = Cfg.Builder.freeze st.cfg in
    let num = numbered built in
    let n = Cfg.num_nodes built in
    if num.count = n then (built, num)
    else
      let cfg =
        Cfg.contract built ~target:(Array.init n (fun v -> if Dfs.reachable num v then v else -1))
      in
      (cfg, numbered cfg)
  in
  if Cfg.exits cfg = [] then err "%s: no reachable RETURN/STOP" u.name;
  let cfg, valid =
    if Reducibility.reducible_dfs (Cfg.graph cfg) num then
      (cfg, Cfg.validate_reached cfg (Dfs.reachable num))
    else begin
      (* unstructured GOTOs can produce irreducible flow; split nodes so
         that every proc CFG satisfies the paper's reducibility assumption
         (copies of RETURN/STOP nodes are additional exits) *)
      let cfg, _ = Cfg.split_irreducible cfg in
      (cfg, Cfg.validate cfg)
    end
  in
  (match valid with
  | Ok () -> ()
  | Error e -> err "%s: lowering produced an invalid CFG: %a" u.name Cfg.pp_error e);
  cfg
