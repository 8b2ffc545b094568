(* Interprocedural estimation (§4, rule 2):

   "If node u is a procedure or function call, then COST(u) =
   TIME(START) [of the callee] ... Rule 2 requires that the procedures be
   visited in a bottom-up traversal of the call graph."

   Recursion (which the paper defers) is either rejected or solved by
   fixed-point iteration over the call-graph SCC, following the remark
   that the Sar87/Sar89 treatment extends to this setting. *)

module Program = S89_frontend.Program
module Cost_model = S89_vm.Cost_model
module Analysis = S89_profiling.Analysis
module Freq = S89_profiling.Freq

exception Recursion_unsupported of string list
exception No_convergence of string list

module Diag = S89_diag.Diag

let log_src = Logs.Src.create "s89.interproc" ~doc:"interprocedural estimation"

module Log = (val Logs.src_log log_src : Logs.LOG)

type recursion_policy = Reject | Fixpoint of { tol : float; max_iter : int }

type freq_var_spec =
  | Zero
  | Geometric
  | Poisson
  | Uniform
  | Profiled of (string -> int -> float option) (* proc -> header -> E[F²] *)

type proc_est = {
  analysis : Analysis.t;
  freq : Freq.t;
  cost : float array;
  time : Time_est.t;
  variance : Variance.t;
  rendered : string option Atomic.t option;
}

type t = {
  per_proc : (string, proc_est) Hashtbl.t;
  main : string;
}

(* The memo layer (see [Memo]) is below this module in the dependency
   order, so it plugs in through a hook record: fingerprint primitives
   plus the cache itself.  [fp_body] must not depend on the procedure's
   name (renaming-only edits keep fingerprints); [fp_mix] folds a salt
   and an ordered fingerprint list into one key. *)
type memo_hooks = {
  fp_body : Program.proc -> int64;
  fp_totals : string -> (Analysis.cond, int) Hashtbl.t -> int64;
      (* the procedure name keys a physical-identity cache: a memoized
         totals source returns the same table value across re-analyses *)
  fp_mix : string -> int64 list -> int64;
  find : string -> int64 -> proc_est option;
  add : int64 -> proc_est -> unit;
}

let freq_var_model (spec : freq_var_spec) (proc : string) : Variance.freq_var_model =
  match spec with
  | Zero -> Variance.Zero
  | Geometric -> Variance.Geometric
  | Poisson -> Variance.Poisson
  | Uniform -> Variance.Uniform
  | Profiled f -> Variance.Profiled (f proc)

(* everything a result depends on besides body/callees/totals, folded
   into the fingerprint salt so one memo serves mixed option sets *)
let options_salt cost_model freq_var iteration_model call_variance =
  let fv =
    match freq_var with
    | Zero -> "zero"
    | Geometric -> "geometric"
    | Poisson -> "poisson"
    | Uniform -> "uniform"
    | Profiled _ -> "profiled"
  in
  let im =
    match iteration_model with
    | Variance.Paper_correlated -> "corr"
    | Variance.Independent -> "indep"
  in
  let c = cost_model in
  Printf.sprintf "%s|%s|%b|%s:%d.%d.%d.%d.%d.%d.%d.%d.%d.%d.%d.%d.%d.%d.%d.%d.%d.%d.%d"
    fv im call_variance c.Cost_model.name c.Cost_model.c_const c.Cost_model.c_var
    c.Cost_model.c_assign c.Cost_model.c_index c.Cost_model.c_elem c.Cost_model.c_add
    c.Cost_model.c_mul c.Cost_model.c_div c.Cost_model.c_pow c.Cost_model.c_rel
    c.Cost_model.c_logic c.Cost_model.c_neg c.Cost_model.c_branch c.Cost_model.c_goto
    c.Cost_model.c_call c.Cost_model.c_intrinsic_cheap c.Cost_model.c_intrinsic_moderate
    c.Cost_model.c_intrinsic_expensive c.Cost_model.c_print

let estimate ?(cost_model = Cost_model.optimized) ?(freq_var = Zero)
    ?(iteration_model = Variance.Paper_correlated) ?(call_variance = false)
    ?(recursion = Reject) ?cost_override ?memo
    ?(on_diag = fun d -> Log.warn (fun m -> m "%a" Diag.pp d))
    (prog : Program.t) (analyses : (string, Analysis.t) Hashtbl.t)
    ~(totals : string -> (Analysis.cond, int) Hashtbl.t) : t =
  (* graceful degradation: a procedure with no analysis (skipped by
     [Pipeline.create] after an analysis failure) is left out of the
     estimate and its calls are treated as opaque, zero-cost calls —
     with a warning, not a crash *)
  let analyzed name = Hashtbl.mem analyses name in
  Array.iter
    (fun (p : Program.proc) ->
      if not (analyzed p.Program.name) then
        on_diag
          (Diag.warningf ~proc:p.Program.name ~code:"ANA003"
             ~hint:"its callers see an opaque call with TIME 0"
             "procedure has no analysis; excluded from the estimate"))
    prog.Program.procs;
  (* callees degrade to opaque calls, but the main program is the root
     of the estimate: without its analysis there is no program TIME at
     all, so that failure is structural, not degradable *)
  if not (analyzed prog.Program.main) then
    raise
      (Analysis.Unanalyzable
         { proc = prog.Program.main;
           reason = "main program has no analysis; nothing to estimate" });
  (* [totals] may compute (oracle reconstruction); the fingerprint and
     the frequency pass both consume it, so cache per procedure *)
  let totals_cache = Hashtbl.create 8 in
  let totals name =
    match Hashtbl.find_opt totals_cache name with
    | Some t -> t
    | None ->
        let t = totals name in
        Hashtbl.replace totals_cache name t;
        t
  in
  (* a [Profiled] freq-var spec and a cost override are closures the
     fingerprint cannot see, so those paths stay unmemoized *)
  let memo =
    match (memo, freq_var, cost_override) with
    | (Some _ as m), (Zero | Geometric | Poisson | Uniform), None -> m
    | _ -> None
  in
  let salt = options_salt cost_model freq_var iteration_model call_variance in
  let fp_of = Hashtbl.create 8 in
  (* an unanalyzed callee degrades to an opaque call; its sentinel
     fingerprint still keys callers, and flips when it becomes analyzable *)
  let callee_fp h name =
    match Hashtbl.find_opt fp_of name with
    | Some fp -> fp
    | None -> h.fp_mix ("opaque:" ^ name) []
  in
  let proc_key h (p : Program.proc) =
    let name = p.Program.name in
    let callees = List.map (callee_fp h) (Program.callees prog p) in
    h.fp_mix salt (h.fp_body p :: h.fp_totals name (totals name) :: callees)
  in
  let time_of = Hashtbl.create 8 and var_of = Hashtbl.create 8 in
  let callee_time name =
    match Hashtbl.find_opt time_of name with Some t -> t | None -> 0.0
  in
  let callee_var name =
    match Hashtbl.find_opt var_of name with Some v -> v | None -> 0.0
  in
  let per_proc = Hashtbl.create 8 in
  let freqs = Hashtbl.create 8 in
  let estimate_proc (p : Program.proc) : proc_est =
    let name = p.Program.name in
    let a = Hashtbl.find analyses name in
    let freq =
      match Hashtbl.find_opt freqs name with
      | Some f -> f
      | None ->
          let f = Freq.compute a (totals name) in
          Hashtbl.replace freqs name f;
          f
    in
    let override =
      match cost_override with Some f -> Some (f name) | None -> None
    in
    let base = Cost.local_costs ?override cost_model a in
    let ecfg = a.Analysis.ecfg in
    let cfg = S89_cfg.Ecfg.cfg ecfg in
    let n = S89_cfg.Cfg.num_nodes cfg in
    let cost = Array.copy base in
    let cost_var = if call_variance then Some (Array.make n 0.0) else None in
    for u = 0 to n - 1 do
      if S89_cfg.Ecfg.is_original ecfg u then begin
        let sites = Cost.call_sites prog.Program.by_name (S89_cfg.Cfg.info cfg u) in
        List.iter
          (fun callee ->
            cost.(u) <- cost.(u) +. callee_time callee;
            match cost_var with
            | Some cv -> cv.(u) <- cv.(u) +. callee_var callee
            | None -> ())
          sites
      end
    done;
    let time = Time_est.compute a freq ~cost in
    let variance =
      Variance.compute ~freq_var:(freq_var_model freq_var name) ~iteration_model
        ?cost_var a freq time
    in
    { analysis = a; freq; cost; time; variance; rendered = None }
  in
  let commit (p : Program.proc) est =
    Hashtbl.replace per_proc p.Program.name est;
    Hashtbl.replace time_of p.Program.name (Time_est.total_time est.time est.analysis);
    Hashtbl.replace var_of p.Program.name (Variance.total_var est.variance est.analysis)
  in
  List.iter
    (fun scc ->
      (* un-analyzed members are skipped; what remains of the SCC is
         estimated (an un-analyzed member breaks the recursive cycle, so
         the remainder is treated as recursive only if it still is) *)
      let scc = List.filter (fun p -> analyzed p.Program.name) scc in
      let recursive =
        match scc with
        | [] -> false
        | [ p ] -> List.mem p.Program.name (Program.callees prog p)
        | _ -> true
      in
      if not recursive then
        match scc with
        | [] -> ()
        | [ p ] -> (
            match memo with
            | None -> commit p (estimate_proc p)
            | Some h -> (
                let key = proc_key h p in
                Hashtbl.replace fp_of p.Program.name key;
                match h.find p.Program.name key with
                | Some est ->
                    (* re-bind the entry to this program's procedure:
                       fingerprints ignore names, so the hit may come
                       from a renamed (or identically-bodied) procedure,
                       and reports print [analysis.proc.name] *)
                    commit p
                      { est with analysis = { est.analysis with Analysis.proc = p } }
                | None ->
                    let est =
                      { (estimate_proc p) with rendered = Some (Atomic.make None) }
                    in
                    h.add key est;
                    commit p est))
        | _ -> assert false
      else begin
        (* recursive SCCs are estimated by fixpoint, never memoized, but
           their members still need fingerprints so callers above them
           can key their own entries: any change to any member body,
           member totals or external callee invalidates the whole cone *)
        (match memo with
        | None -> ()
        | Some h ->
            let parts =
              List.concat_map
                (fun (p : Program.proc) ->
                  [ h.fp_body p; h.fp_totals p.Program.name (totals p.Program.name) ])
                scc
            in
            let in_scc c = List.exists (fun (q : Program.proc) -> q.Program.name = c) scc in
            let ext =
              List.concat_map
                (fun p ->
                  List.filter_map
                    (fun c -> if in_scc c then None else Some (callee_fp h c))
                    (Program.callees prog p))
                scc
            in
            let scc_fp = h.fp_mix ("scc|" ^ salt) (parts @ ext) in
            List.iter
              (fun (p : Program.proc) ->
                Hashtbl.replace fp_of p.Program.name
                  (h.fp_mix "scc-member"
                     [ h.fp_body p; h.fp_totals p.Program.name (totals p.Program.name); scc_fp ]))
              scc);
        let names = List.map (fun p -> p.Program.name) scc in
        match recursion with
        | Reject -> raise (Recursion_unsupported names)
        | Fixpoint { tol; max_iter } ->
            List.iter
              (fun p ->
                Hashtbl.replace time_of p.Program.name 0.0;
                Hashtbl.replace var_of p.Program.name 0.0)
              scc;
            let rec iterate k =
              if k > max_iter then raise (No_convergence names);
              let delta = ref 0.0 in
              let ests =
                List.map
                  (fun p ->
                    let est = estimate_proc p in
                    let t = Time_est.total_time est.time est.analysis in
                    let prev = callee_time p.Program.name in
                    delta := Float.max !delta (Float.abs (t -. prev) /. Float.max 1.0 t);
                    (p, est))
                  scc
              in
              List.iter (fun (p, est) -> commit p est) ests;
              if !delta > tol then iterate (k + 1)
            in
            iterate 1
      end)
    (Program.sccs prog);
  { per_proc; main = prog.Program.main }

let proc_est t name =
  match Hashtbl.find_opt t.per_proc name with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Interproc.proc_est: unknown procedure %s" name)

let main_est t = proc_est t t.main

(* headline numbers: the whole program's average time and deviation *)
let program_time t =
  let e = main_est t in
  Time_est.total_time e.time e.analysis

let program_var t =
  let e = main_est t in
  Variance.total_var e.variance e.analysis

let program_std_dev t = sqrt (program_var t)
