(* Memoized interprocedural analysis: per-procedure results keyed by
   content fingerprints, so re-analyzing an edited program only
   recomputes the dirty cone of the call graph.

   A procedure's fingerprint is FNV-1a/64 of its body (the marshaled
   analyzed unit: kind, params, decls, sema-rewritten statements — the
   name is deliberately excluded, so renaming-only edits keep
   fingerprints) chained with the ordered fingerprints of its callee
   summaries, its TOTAL_FREQ table and an option salt.  A body edit
   therefore invalidates exactly the editing procedure and its callers'
   cone; everything else hits.

   Three cache layers:
   - [entries]: full {!Interproc.proc_est} results keyed by the full
     fingerprint — a hit skips frequency, cost, TIME and VAR computation
     outright ({!Interproc.estimate}'s [?memo] hooks);
   - [analyses]: {!S89_profiling.Analysis.t} keyed by the body
     fingerprint alone — a hit skips the ECFG/CDG/FCDG build
     ({!Pipeline.create}'s [?memo]), which dominates cold analysis;
   - [statics]: derived static-frequency TOTAL_FREQ tables keyed by the
     body fingerprint mixed with a heuristics salt
     ({!Pipeline.static_totals}).

   A third, persistence-facing layer holds (fingerprint, TIME, VAR)
   summaries loaded from a store's memo records: full results are not
   serializable (they hold graphs and closures), so a warm start does
   not skip work across processes — instead every recomputation is
   checked against the persisted summary (a mismatch is a determinism
   violation, [MEMO002]) and the summaries drive dirty-cone accounting
   in [ptranc analyze --memo].

   All operations take an internal mutex, so one memo may be shared by
   callers on several domains or threads. *)

module Program = S89_frontend.Program
module Ast = S89_frontend.Ast
module Sema = S89_frontend.Sema
module Analysis = S89_profiling.Analysis
module Diag = S89_diag.Diag

let fnv64 = S89_util.Codec.fnv64

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable analysis_hits : int;
  mutable analysis_misses : int;
  mutable warm_confirmed : int;
  mutable warm_mismatches : int;
}

type summary = { s_name : string; s_time : float; s_var : float }

type t = {
  entries : (int64, Interproc.proc_est) Hashtbl.t;
  analyses : (int64, Analysis.t) Hashtbl.t;
  summaries : (int64, summary) Hashtbl.t;
  mutable fresh : (int64 * summary) list; (* newest first; drained for persistence *)
  fp_cache : (string, Program.proc * int64) Hashtbl.t; (* see [body_fp_cached] *)
  tfp_cache : (string, (Analysis.cond, int) Hashtbl.t * int64) Hashtbl.t;
      (* totals fingerprints by physical identity of the table *)
  statics : (int64, (Analysis.cond, int) Hashtbl.t) Hashtbl.t;
      (* synthetic TOTAL_FREQ tables, keyed by body fp mixed with a
         heuristics salt (see {!Pipeline.static_totals}) *)
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
    on_diag;
    stats =
      {
        hits = 0;
        misses = 0;
        analysis_hits = 0;
        analysis_misses = 0;
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
   it. *)
let body_fp (p : Program.proc) : int64 =
  (* [Digest] first: MD5 runs at C speed, while [fnv64] is a per-byte
     OCaml loop — fine for 16 bytes, slow for a whole marshaled unit. *)
  fnv64
    (Digest.string
       (Marshal.to_string
          { p.Program.env.Sema.unit_ with Ast.name = "" }
          [ Marshal.No_sharing ]))

(* [body_fp] is pure but not free (it marshals the whole unit), and both
   {!Pipeline.create} and {!Interproc.estimate} need it for every
   procedure of the same program version.  A physical-identity cache
   keyed by procedure name makes the second pass free; a re-parsed
   program has fresh procedure values, so its entries simply overwrite
   the previous version's (the cache never holds more than one program's
   worth). *)
let body_fp_cached t (p : Program.proc) : int64 =
  locked t (fun () ->
      match Hashtbl.find_opt t.fp_cache p.Program.name with
      | Some (p', fp) when p' == p -> fp
      | _ ->
          let fp = body_fp p in
          Hashtbl.replace t.fp_cache p.Program.name (p, fp);
          fp)

let totals_fp (tbl : (Analysis.cond, int) Hashtbl.t) : int64 =
  let rows =
    Hashtbl.fold
      (fun (u, l) c acc ->
        if c = 0 then acc (* absent and explicit-zero entries are the same profile *)
        else Printf.sprintf "%d %s %d" u (S89_cfg.Label.to_string l) c :: acc)
      tbl []
  in
  (* Digest first, as in [body_fp]: the row dump is KBs for a hot
     procedure and this runs for every procedure on every re-analysis *)
  fnv64 (Digest.string (String.concat "\n" (List.sort compare rows)))

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

let find t fp =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries fp with
      | Some e ->
          t.stats.hits <- t.stats.hits + 1;
          Some e
      | None ->
          t.stats.misses <- t.stats.misses + 1;
          None)

let add t fp (est : Interproc.proc_est) =
  locked t (fun () ->
      Hashtbl.replace t.entries fp est;
      let name = est.Interproc.analysis.Analysis.proc.Program.name in
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

let add_analysis t fp a = locked t (fun () -> Hashtbl.replace t.analyses fp a)

(* derived static-frequency totals (the caller keys them by body fp
   mixed with a heuristics salt); a hit returns the cached table itself,
   which every consumer treats as read-only *)
let find_static_totals t fp = locked t (fun () -> Hashtbl.find_opt t.statics fp)

let add_static_totals t fp tbl =
  locked t (fun () -> Hashtbl.replace t.statics fp tbl)

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
      t.stats.warm_confirmed <- 0;
      t.stats.warm_mismatches <- 0)

let pp_stats fmt t =
  let s = t.stats in
  Fmt.pf fmt
    "memo: %d hits, %d misses (dirty cone), %d/%d analysis hits/misses, %d \
     warm-confirmed, %d mismatches"
    s.hits s.misses s.analysis_hits s.analysis_misses s.warm_confirmed
    s.warm_mismatches
