(* Memoized interprocedural analysis: per-procedure results keyed by
   content fingerprints, so re-analyzing an edited program only
   recomputes the dirty cone of the call graph.

   A procedure's fingerprint is FNV-1a/64 of its body (the marshaled
   analyzed unit: kind, params, decls, sema-rewritten statements — the
   name is deliberately excluded, so renaming-only edits keep
   fingerprints — and whether its CFG was rewritten, as by the
   optimizer) chained with the ordered fingerprints of its callee
   summaries, its TOTAL_FREQ table and an option salt.  A body edit
   therefore invalidates exactly the editing procedure and its callers'
   cone; everything else hits.

   Six cache layers:
   - [entries]: full {!Interproc.proc_est} results keyed by the full
     fingerprint — a hit skips frequency, cost, TIME and VAR computation
     outright ({!Interproc.estimate}'s [?memo] hooks);
   - report lines: each entry's [rendered] cell, so also keyed by the
     full fingerprint, holds the report lines below its procedure
     header once rendered ({!Report.to_string}); only the newest entry
     per procedure name keeps them;
   - [analyses]: {!S89_profiling.Analysis.t} keyed by the body
     fingerprint alone — a hit skips the ECFG/CDG/FCDG build
     ({!Pipeline.create}'s [?memo]), which dominates cold analysis;
   - [plans]: {!Placement.decisions} keyed by the body fingerprint
     mixed with the opt2/opt3 salt — a hit skips the §3 decision pass,
     and {!Pipeline.plan} realizes the counters afresh;
   - [statics]: derived static-frequency TOTAL_FREQ tables keyed by the
     body fingerprint mixed with a heuristics salt
     ({!Pipeline.static_totals});
   - [layouts] and [codes]: VM slot layouts and emitted bytecode
     ({!S89_vm.Interp.cache}), keyed by the body fingerprint mixed with
     a salt of every other input {!S89_vm.Interp.create} names (cost
     model, backend mode, dummy types, probe actions, a FUNCTION's
     result name) — a hit skips
     [Emit.emit_proc].  Neither holds run state: no [Eval.rt], program
     or per-run array.

   Bounded by the program, not by the edit history.  Each procedure
   name holds its current body and the body it last superseded, so
   undoing an edit, or renaming a procedure right after editing it,
   still hits.  When a name's body fingerprint changes, the body two
   versions back loses its last holder: its analysis, plans, static
   totals, layouts and code are dropped, unless another procedure name
   still holds that body.  Each name holds one full entry: when a name
   adds or hits an entry under a new fingerprint, its old entry is
   dropped under the same proviso.  An edit stream therefore holds at
   most two program versions' worth of bodies however long it runs; a
   name that leaves the program keeps what it held.

   A persistence-facing store holds (fingerprint, TIME, VAR)
   summaries loaded from a store's memo records: full results are not
   serializable (they hold graphs and closures), so a warm start does
   not skip work across processes — instead every recomputation is
   checked against the persisted summary (a mismatch is a determinism
   violation, [MEMO002]) and the summaries drive dirty-cone accounting
   in [ptranc analyze --memo].  Eviction leaves summaries alone.

   All operations take an internal mutex, so one memo may be shared by
   callers on several domains or threads. *)

module Program = S89_frontend.Program
module Ast = S89_frontend.Ast
module Sema = S89_frontend.Sema
module Analysis = S89_profiling.Analysis
module Placement = S89_profiling.Placement
module Interp = S89_vm.Interp
module Diag = S89_diag.Diag

let fnv64 = S89_util.Codec.fnv64

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable analysis_hits : int;
  mutable analysis_misses : int;
  mutable placement_hits : int;
  mutable placement_misses : int;
  mutable code_hits : int;
  mutable code_misses : int;
  mutable warm_confirmed : int;
  mutable warm_mismatches : int;
}

type summary = { s_name : string; s_time : float; s_var : float }

(* a value of a derived layer, with the body fingerprint it derives
   from (the eviction key) *)
type 'a derived = (int64, int64 * 'a) Hashtbl.t

(* a procedure name's current body and the one it superseded last *)
type version = { proc : Program.proc; fp : int64; prev : int64 option }

type t = {
  entries : (int64, Interproc.proc_est) Hashtbl.t;
  analyses : (int64, Analysis.t) Hashtbl.t;
  summaries : (int64, summary) Hashtbl.t;
  mutable fresh : (int64 * summary) list; (* newest first; drained for persistence *)
  fp_cache : (string, version) Hashtbl.t; (* see [body_fp_cached] *)
  tfp_cache : (string, (Analysis.cond, int) Hashtbl.t * int64) Hashtbl.t;
      (* totals fingerprints by physical identity of the table *)
  statics : (Analysis.cond, int) Hashtbl.t derived;
      (* synthetic TOTAL_FREQ tables, keyed by body fp mixed with a
         heuristics salt (see {!Pipeline.static_totals}) *)
  plans : Placement.decisions derived;
      (* placement decisions, keyed by body fp mixed with the opt2/opt3
         salt (see {!placement_cache}) *)
  layouts : S89_vm.Env.layout derived;
  codes : S89_vm.Bytecode.code derived;
      (* VM layouts and code, keyed by body fp mixed with the VM's salt
         (see {!vm_cache}) *)
  newest : (string, int64 * Interproc.proc_est) Hashtbl.t;
      (* the entry each procedure name last used: only an entry added
         there keeps its rendered report lines (see [add]) *)
  on_diag : Diag.t -> unit;
  stats : stats;
  mu : Mutex.t;
}

let log_src = Logs.Src.create "s89.memo" ~doc:"memoized analysis"

module Log = (val Logs.src_log log_src : Logs.LOG)

let create ?(on_diag = fun d -> Log.warn (fun m -> m "%a" Diag.pp d)) () =
  {
    entries = Hashtbl.create 64;
    analyses = Hashtbl.create 64;
    summaries = Hashtbl.create 64;
    fresh = [];
    fp_cache = Hashtbl.create 64;
    tfp_cache = Hashtbl.create 64;
    statics = Hashtbl.create 64;
    plans = Hashtbl.create 64;
    layouts = Hashtbl.create 64;
    codes = Hashtbl.create 64;
    newest = Hashtbl.create 64;
    on_diag;
    stats =
      {
        hits = 0;
        misses = 0;
        analysis_hits = 0;
        analysis_misses = 0;
        placement_hits = 0;
        placement_misses = 0;
        code_hits = 0;
        code_misses = 0;
        warm_confirmed = 0;
        warm_mismatches = 0;
      };
    mu = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ---------------- fingerprints ---------------- *)

(* The body bytes: the marshaled analyzed unit (kind, parameters, decls
   and the sema-rewritten body -- PARAMETER substitution and call/array
   resolution already applied), with the unit name blanked out.  The
   analyzed unit fully determines the lowered CFG and lowering is
   deterministic, so equal bytes mean identical analysis inputs; it is
   also 2x smaller than the CFG (no duplicated edge lists), which
   matters because the fingerprint is on the warm path of every
   re-analysis.  The AST is pure data -- records, lists and variants,
   no closures or cycles -- so [Marshal] with [No_sharing] is safe and
   depends only on structure, not on physical sharing.  A FUNCTION's
   body references its own name as the result variable, so renaming a
   FUNCTION changes its fingerprint; SUBROUTINE/PROGRAM renames keep
   it.  The optimizer rewrites the CFG but keeps the unit, so a
   [rewritten] procedure's digest gets one more byte: the two forms of a
   body never share a key, and the source form pays nothing for it. *)
let body_fp (p : Program.proc) : int64 =
  (* [Digest] first: MD5 runs at C speed, while [fnv64] is a per-byte
     OCaml loop — fine for 16 bytes, slow for a whole marshaled unit. *)
  let d =
    Digest.string
      (Marshal.to_string { p.Program.env.Sema.unit_ with Ast.name = "" } [ Marshal.No_sharing ])
  in
  fnv64 (if p.Program.rewritten then d ^ "R" else d)

(* Does a name other than [name] map to [fp] in [tbl]? *)
let other_maps tbl name fp holds =
  Hashtbl.fold (fun n v found -> found || (n <> name && holds v fp)) tbl false

let holds_body v fp = v.fp = fp || v.prev = Some fp

(* Drop everything derived from a body no procedure name holds any more
   (the lock is held). *)
let evict_body t fp =
  Hashtbl.remove t.analyses fp;
  let drop tbl =
    Hashtbl.filter_map_inplace (fun _ ((b, _) as v) -> if b = fp then None else Some v) tbl
  in
  drop t.statics;
  drop t.plans;
  drop t.layouts;
  drop t.codes

(* [body_fp] is pure but not free (it marshals the whole unit), and both
   {!Pipeline.create} and {!Interproc.estimate} need it for every
   procedure of the same program version.  A physical-identity cache
   keyed by procedure name makes the second pass free; a re-parsed
   program has fresh procedure values, so its entries simply overwrite
   the previous version's (the cache never holds more than one program's
   worth).  A name whose fingerprint changes keeps the body it
   supersedes as [prev] and lets go of the one before, which is evicted
   unless another name holds it. *)
let body_fp_cached t (p : Program.proc) : int64 =
  let name = p.Program.name in
  locked t (fun () ->
      match Hashtbl.find_opt t.fp_cache name with
      | Some v when v.proc == p -> v.fp
      | known ->
          let fp = body_fp p in
          (match known with
          | Some v when v.fp <> fp ->
              Hashtbl.replace t.fp_cache name { proc = p; fp; prev = Some v.fp };
              Option.iter
                (fun old ->
                  if old <> fp && not (other_maps t.fp_cache name old holds_body) then
                    evict_body t old)
                v.prev
          | Some v -> Hashtbl.replace t.fp_cache name { v with proc = p }
          | None -> Hashtbl.replace t.fp_cache name { proc = p; fp; prev = None });
          fp)

let totals_fp (tbl : (Analysis.cond, int) Hashtbl.t) : int64 =
  let b = Buffer.create 32 in
  let rows =
    Hashtbl.fold
      (fun (u, l) c acc ->
        if c = 0 then acc (* absent and explicit-zero entries are the same profile *)
        else begin
          Buffer.clear b;
          Buffer.add_string b (string_of_int u);
          Buffer.add_char b ' ';
          S89_cfg.Label.add b l;
          Buffer.add_char b ' ';
          Buffer.add_string b (string_of_int c);
          Buffer.contents b :: acc
        end)
      tbl []
  in
  (* Digest first, as in [body_fp]: the row dump is KBs for a hot
     procedure *)
  fnv64 (Digest.string (String.concat "\n" (List.sort String.compare rows)))

(* [totals_fp] through the same kind of physical-identity cache as
   [body_fp_cached]: when the totals come from the memoized
   {!Pipeline.static_totals} layer, an unchanged procedure sees the very
   same table value across re-analyses and skips the row dump. *)
let totals_fp_cached t name tbl =
  locked t (fun () ->
      match Hashtbl.find_opt t.tfp_cache name with
      | Some (tbl', fp) when tbl' == tbl -> fp
      | _ ->
          let fp = totals_fp tbl in
          Hashtbl.replace t.tfp_cache name (tbl, fp);
          fp)

let mix salt parts =
  let b = Buffer.create 64 in
  Buffer.add_string b salt;
  List.iter
    (fun fp ->
      Buffer.add_char b '|';
      Buffer.add_string b (Printf.sprintf "%016Lx" fp))
    parts;
  fnv64 (Buffer.contents b)

(* ---------------- the full-result layer ---------------- *)

let totals_of (est : Interproc.proc_est) =
  let a = est.Interproc.analysis in
  ( Time_est.total_time est.Interproc.time a,
    Variance.total_var est.Interproc.variance a )

(* summaries are compared after a text round-trip, so use the same
   lossless [%h] encoding the store records use *)
let same_float a b = Printf.sprintf "%h" a = Printf.sprintf "%h" b

(* [name] now uses entry [fp] (the lock is held): the entry it used
   before is dropped unless another name still uses it *)
let retarget t name fp e =
  (match Hashtbl.find_opt t.newest name with
  | Some (old, _) when old <> fp && not (other_maps t.newest name old (fun (f, _) x -> f = x)) ->
      Hashtbl.remove t.entries old
  | _ -> ());
  Hashtbl.replace t.newest name (fp, e)

let find t name fp =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries fp with
      | Some e ->
          t.stats.hits <- t.stats.hits + 1;
          retarget t name fp e;
          Some e
      | None ->
          t.stats.misses <- t.stats.misses + 1;
          None)

(* An entry superseded under its procedure name (an edit's dirty cone)
   is rarely hit again, so it drops its rendered report lines: entries
   otherwise accumulate a copy of the report per edit.  A later hit on
   it simply renders again. *)
let add t fp (est : Interproc.proc_est) =
  locked t (fun () ->
      Hashtbl.replace t.entries fp est;
      let name = est.Interproc.analysis.Analysis.proc.Program.name in
      (match Hashtbl.find_opt t.newest name with
      | Some (_, prev) ->
          Option.iter (fun cell -> Atomic.set cell None) prev.Interproc.rendered
      | None -> ());
      retarget t name fp est;
      let time, var = totals_of est in
      let s = { s_name = name; s_time = time; s_var = var } in
      (match Hashtbl.find_opt t.summaries fp with
      | Some prev ->
          if same_float prev.s_time time && same_float prev.s_var var then
            t.stats.warm_confirmed <- t.stats.warm_confirmed + 1
          else begin
            t.stats.warm_mismatches <- t.stats.warm_mismatches + 1;
            t.on_diag
              (Diag.errorf ~proc:name ~code:"MEMO002"
                 ~hint:"the persisted memo summary is stale or the analysis is nondeterministic"
                 "recomputed result for fingerprint %016Lx disagrees with the \
                  persisted summary (TIME %g vs %g, VAR %g vs %g)"
                 fp time prev.s_time var prev.s_var);
            Hashtbl.replace t.summaries fp s;
            t.fresh <- (fp, s) :: t.fresh
          end
      | None ->
          Hashtbl.replace t.summaries fp s;
          t.fresh <- (fp, s) :: t.fresh))

let hooks t : Interproc.memo_hooks =
  {
    Interproc.fp_body = body_fp_cached t;
    fp_totals = totals_fp_cached t;
    fp_mix = mix;
    find = find t;
    add = add t;
  }

(* ---------------- the analysis layer ---------------- *)

let find_analysis t fp =
  locked t (fun () ->
      match Hashtbl.find_opt t.analyses fp with
      | Some a ->
          t.stats.analysis_hits <- t.stats.analysis_hits + 1;
          Some a
      | None ->
          t.stats.analysis_misses <- t.stats.analysis_misses + 1;
          None)

(* a body no name holds any more (superseded while this was being
   computed) is not stored *)
let current t fp = other_maps t.fp_cache "" fp holds_body

let add_analysis t fp a =
  locked t (fun () -> if current t fp then Hashtbl.replace t.analyses fp a)

(* ---------------- derived layers ---------------- *)

(* A value derived from [p]'s body under [salt]: looked up by the body
   fingerprint mixed with the salt, counted by [hit]/[miss] (the lock
   is held).  [compute] runs outside the lock: two callers missing the
   same key compute equal values and the later one wins. *)
let derived t (tbl : 'a derived) ~hit ~miss ~salt p (compute : unit -> 'a) : 'a =
  let body = body_fp_cached t p in
  let key = mix salt [ body ] in
  let cached =
    locked t (fun () ->
        match Hashtbl.find_opt tbl key with
        | Some (_, v) ->
            hit t.stats;
            Some v
        | None ->
            miss t.stats;
            None)
  in
  match cached with
  | Some v -> v
  | None ->
      let v = compute () in
      locked t (fun () -> if current t body then Hashtbl.replace tbl key (body, v));
      v

let uncounted (_ : stats) = ()

(* derived static-frequency totals; a hit returns the cached table
   itself, which every consumer treats as read-only *)
let static_totals t ~salt p compute =
  derived t t.statics ~hit:uncounted ~miss:uncounted ~salt p compute

(* Placement decisions depend on the analysis, which the analysis layer
   already keys by body fingerprint, and on opt2/opt3, which the salt
   carries. *)
let placement_cache t : Placement.cache =
 fun ~salt a compute ->
  derived t t.plans
    ~hit:(fun s -> s.placement_hits <- s.placement_hits + 1)
    ~miss:(fun s -> s.placement_misses <- s.placement_misses + 1)
    ~salt a.Analysis.proc compute

let vm_cache t : Interp.cache =
  {
    Interp.layouts = derived t t.layouts ~hit:uncounted ~miss:uncounted;
    codes =
      derived t t.codes
        ~hit:(fun s -> s.code_hits <- s.code_hits + 1)
        ~miss:(fun s -> s.code_misses <- s.code_misses + 1);
  }

(* ---------------- persistence glue ---------------- *)

let load_summary t ~fp ~name ~time ~var =
  locked t (fun () ->
      (* a shared memo (one daemon, many stores) can see two stores
         disagree on one fingerprint: flag it, keep the newer record.
         Names may differ legitimately — fingerprints ignore renames. *)
      (match Hashtbl.find_opt t.summaries fp with
      | Some prev when not (same_float prev.s_time time && same_float prev.s_var var)
        ->
          t.on_diag
            (Diag.warningf ~proc:name ~code:"MEMO001"
               ~hint:"two stores persisted different results for the same fingerprint"
               "conflicting persisted memo summaries for fingerprint %016Lx \
                (TIME %g vs %g, VAR %g vs %g); keeping the newer"
               fp time prev.s_time var prev.s_var)
      | _ -> ());
      Hashtbl.replace t.summaries fp { s_name = name; s_time = time; s_var = var })

let drain_summaries t =
  locked t (fun () ->
      let out = List.rev t.fresh in
      t.fresh <- [];
      List.map (fun (fp, s) -> (fp, s.s_name, s.s_time, s.s_var)) out)

let summaries_loaded t = locked t (fun () -> Hashtbl.length t.summaries)

(* ---------------- accounting ---------------- *)

let stats t = t.stats

let reset_stats t =
  locked t (fun () ->
      t.stats.hits <- 0;
      t.stats.misses <- 0;
      t.stats.analysis_hits <- 0;
      t.stats.analysis_misses <- 0;
      t.stats.placement_hits <- 0;
      t.stats.placement_misses <- 0;
      t.stats.code_hits <- 0;
      t.stats.code_misses <- 0;
      t.stats.warm_confirmed <- 0;
      t.stats.warm_mismatches <- 0)

let pp_stats fmt t =
  let s = t.stats in
  Fmt.pf fmt
    "memo: %d hits, %d misses (dirty cone), %d/%d analysis hits/misses, %d/%d \
     placement hits/misses, %d/%d code hits/misses, %d warm-confirmed, %d \
     mismatches"
    s.hits s.misses s.analysis_hits s.analysis_misses s.placement_hits
    s.placement_misses s.code_hits s.code_misses s.warm_confirmed
    s.warm_mismatches
