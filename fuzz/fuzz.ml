(* fuzz — a crash-hunting harness over the whole pipeline.

   Three input classes per seed:
   - valid:     programs from the property-test generator (terminating,
                runnable by construction); every fourth seed instead
                draws a call mix, whose helpers' dummies receive locals,
                literals, expressions, array elements and forwarded
                dummies of disagreeing types;
   - mutated:   valid programs with a few line-level mutations (dropped,
                duplicated, swapped, token-spliced, truncated lines) —
                mostly still lexable, often semantically broken;
   - corrupted: valid programs with random byte flips — garbage that must
                still be rejected gracefully.

   A fourth, input-free class per seed exercises the crash-safe store:
   - store-recovery: build a store (appends, events, compactions), then
                truncate/flip/garbage its on-disk files at seeded
                offsets; reopening must either succeed with no more
                runs than were appended and remain fully operational
                (append + compact + reopen), or reject with the
                structured [Store.Corrupt].

   A fifth class per seed exercises the incremental analysis memo:
   - memo-consistency: replay a seeded edit stream (constant tweaks on
                generated programs, then a rename-only edit of their
                SUBROUTINE, then a revert to the generated program, whose
                superseded bodies the memo has evicted) against one
                persistent memo, rotating the VM backend per version;
                every memoized estimate must be byte-identical to a
                from-scratch analysis of the same version (report,
                rendered twice, diagnostics, program totals), the
                memoized pipeline's counter plan, counters, cycles per
                run, reconstructed totals and VM output (its VMs run on
                the memo's cached code) must equal the fresh one's, and
                no MEMO002 determinism violation may fire.

   A sixth class per seed exercises the record codec's three decoders:
   - codec:     WAL records, net frames and v2 profile databases are
                encoded, round-tripped, then fed garbage, truncated and
                single-byte-flipped; every decoder must answer with its
                structured error and never raise anything else.

   The invariants checked for every input:
   - no uncaught exception anywhere in parse → analyze → plan → profile →
     estimate: inputs are either accepted or rejected with a structured
     diagnostic;
   - the three VM backends (tree, compiled, bytecode) agree exactly:
     cycles, statements and output, or on failure the same diagnostic
     code and message at the same statement and cycle count;
   - the three backends agree exactly on the [Optimize.program]'d
     program too; where the original runs to completion, the optimized
     one does as well, prints the same and costs no more cycles;
   - estimates from oracle counts reproduce the measured cycle count
     (reconstruction exactness) on programs that run to completion.

   Failures are triaged to reproducible artifacts: the offending source
   and a note with the seed, mode and repro command, written under
   --out (default fuzz-crashes/).  Exit code 1 if anything was found. *)

module Program = S89_frontend.Program
module Pipeline = S89_core.Pipeline
module Interproc = S89_core.Interproc
module Interp = S89_vm.Interp
module Optimize = S89_vm.Optimize
module Diag = S89_diag.Diag
module Prng = S89_util.Prng
module Gen = S89_testgen.Gen_prog

type mode =
  | Valid
  | Mutated
  | Corrupted
  | Store_recovery
  | Memo_consistency
  | Codec

let mode_name = function
  | Valid -> "valid"
  | Mutated -> "mutated"
  | Corrupted -> "corrupted"
  | Store_recovery -> "store-recovery"
  | Memo_consistency -> "memo-consistency"
  | Codec -> "codec"

(* ---------------- input generation ---------------- *)

let gen_input mode seed =
  let src = Gen.gen_source seed in
  match mode with
  (* every fourth seed's valid input is a call mix *)
  | Valid when seed mod 4 = 3 -> Gen.gen_call_mix_source seed
  | Valid -> src
  | Mutated -> Gen.mutate seed src
  | Corrupted -> Gen.corrupt seed src
  | Store_recovery -> invalid_arg "store-recovery takes no source input"
  | Memo_consistency -> invalid_arg "memo-consistency generates its own edit stream"
  | Codec -> invalid_arg "codec generates record images, not source"

(* ---------------- the oracle ---------------- *)

exception Fuzz_failure of string

let failf fmt = Printf.ksprintf (fun m -> raise (Fuzz_failure m)) fmt

(* mutated programs may loop forever or recurse; keep runs bounded *)
let bounded backend =
  { Interp.default_config with max_steps = 5_000_000; max_call_depth = 500; backend }

type verdict = Accepted | Rejected of string (* diagnostic code *)

(* runtime failures that MAY legitimately surface from deep layers
   (profiling, estimation) on semantically broken but parseable inputs *)
let runtime_reject : exn -> string option = function
  | S89_vm.Value.Runtime_error _ -> Some "RUN001"
  | Interp.Out_of_fuel -> Some "RUN002"
  | Interp.Out_of_cycles -> Some "RUN003"
  | Interp.Call_depth_exceeded _ -> Some "RUN004"
  | Interproc.Recursion_unsupported _ -> Some "EST001"
  | _ -> None

(* one bounded run: its outcome (Ok, or the diagnostic's code and
   message), where it stopped, and what it printed *)
type run = {
  result : (unit, string * string) result;
  cycles : int;
  steps : int;
  output : string;
}

let run_bounded prog backend =
  let vm = Interp.create ~config:(bounded backend) prog in
  let result =
    match Interp.run_result vm with
    | Ok _ -> Ok ()
    | Error d -> Error (d.Diag.code, d.Diag.message)
  in
  { result; cycles = Interp.cycles vm; steps = Interp.steps vm; output = Interp.output vm }

let describe r =
  match r.result with
  | Ok () -> Printf.sprintf "runs, %d cycles/%d steps" r.cycles r.steps
  | Error (code, msg) ->
      Printf.sprintf "rejects %s (%S) at %d cycles/%d steps" code msg r.cycles r.steps

(* two backends agree exactly: same outcome, same error message, same
   steps, cycles and PRINT output *)
let agree (n1, r1) (n2, r2) =
  if r1 <> r2 then
    if r1.result = r2.result && r1.cycles = r2.cycles && r1.steps = r2.steps then
      failf "backend divergence: %s and %s PRINT output differs" n1 n2
    else failf "backend divergence: %s %s, %s %s" n1 (describe r1) n2 (describe r2)

let check mode src : verdict =
  match Program.of_source_result src with
  | Error d -> Rejected d.Diag.code
  | Ok prog -> (
      let t = Pipeline.create prog in
      match Pipeline.diagnostics t with
      | d :: _ when mode = Valid ->
          failf "analysis diagnostic on a valid program: %s" d.Diag.code
      | d :: _ -> Rejected d.Diag.code
      | [] -> (
          (* all three backends, bounded: exact agreement, or the same
             rejection (code and message) at the same steps and cycles *)
          let tree = run_bounded prog Interp.Tree in
          let compiled = run_bounded prog Interp.Compiled in
          agree ("compiled", compiled) ("bytecode", run_bounded prog Interp.Bytecode);
          agree ("compiled", compiled) ("tree", tree);
          (* the optimizer leg: [Optimize.program] elides nodes, so steps
             may differ, but the backends must agree on its output, and
             a run that completed must still complete, print the same
             and cost no more cycles *)
          let opt = Optimize.program prog in
          let ot = run_bounded opt Interp.Tree in
          agree ("optimized tree", ot) ("optimized compiled", run_bounded opt Interp.Compiled);
          agree ("optimized tree", ot) ("optimized bytecode", run_bounded opt Interp.Bytecode);
          if tree.result = Ok () then begin
            if ot.result <> Ok () then failf "optimized program %s" (describe ot);
            if ot.output <> tree.output then failf "optimization changed program output";
            if ot.cycles > tree.cycles then
              failf "optimization increased cycles: %d vs %d" ot.cycles tree.cycles
          end;
          match tree.result with
          | Ok () ->
              (* reconstruction exactness from oracle counts, then smart
                 profiling + estimation; deep layers may legitimately
                 reject semantically broken (non-valid) inputs *)
              (match
                 let vm = Pipeline.run_once t in
                 let est = Pipeline.estimate_oracle t vm in
                 let measured = float_of_int (Interp.cycles vm) in
                 let predicted = Interproc.program_time est in
                 if Float.abs (measured -. predicted) > 1e-6 *. (1.0 +. measured)
                 then
                   failf "reconstruction inexact: measured %.3f, predicted %.3f"
                     measured predicted;
                 let profile = Pipeline.profile_smart ~runs:2 t in
                 ignore (Pipeline.estimate_profiled t profile)
               with
              | () -> ()
              | exception e -> (
                  match runtime_reject e with
                  | Some code when mode <> Valid -> ignore code
                  | _ -> raise e));
              Accepted
          | Error (code, _) -> Rejected code))

(* ---------------- store recovery fuzzing ---------------- *)

module Wal = S89_store.Wal
module Store = S89_store.Store
module Label = S89_cfg.Label

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmp_dir f =
  let dir = Filename.temp_file "s89fuzz" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let seeded_totals rng =
  let tbl = Hashtbl.create 4 in
  for node = 0 to Prng.int rng 4 do
    Hashtbl.replace tbl
      (node, if Prng.int rng 2 = 0 then S89_cfg.Label.T else Label.F)
      (Prng.int rng 100)
  done;
  let per_proc = Hashtbl.create 1 in
  Hashtbl.replace per_proc "P" tbl;
  per_proc

(* build a store, mangle its files at seeded offsets, reopen: recovery
   must never invent runs, never crash unstructured, and must leave the
   store fully operational (append + compact + clean reopen) *)
let check_store seed : verdict =
  let rng = Prng.create ~seed:(seed lxor 0x570e) in
  with_tmp_dir @@ fun dir ->
  let appended = ref 0 in
  let s =
    Store.open_ ~fsync:false ~compact_threshold:(2 + Prng.int rng 6) ~dir ()
  in
  Store.set_meta s [ ("fuzz-seed", string_of_int seed) ];
  let n = 1 + Prng.int rng 12 in
  for r = 0 to n - 1 do
    Store.append_run s ~seed:r (seeded_totals rng);
    incr appended;
    if Prng.int rng 5 = 0 then
      Store.append_event s (Printf.sprintf "ev %d" (Prng.int rng 3))
  done;
  Store.close s;
  let mangles = 1 + Prng.int rng 3 in
  for _ = 1 to mangles do
    let fs = Sys.readdir dir in
    if Array.length fs > 0 then begin
      let path = Filename.concat dir fs.(Prng.int rng (Array.length fs)) in
      let content = read_file path in
      let len = String.length content in
      match Prng.int rng 3 with
      | 0 -> write_file path (String.sub content 0 (Prng.int rng (len + 1)))
      | 1 when len > 0 ->
          let b = Bytes.of_string content in
          for _ = 0 to Prng.int rng 4 do
            Bytes.set b (Prng.int rng len) (Char.chr (Prng.int rng 256))
          done;
          write_file path (Bytes.to_string b)
      | _ ->
          write_file path
            (content
            ^ String.init (Prng.int rng 50) (fun _ -> Char.chr (Prng.int rng 256)))
    end
  done;
  match Store.open_ ~fsync:false ~dir () with
  | exception Store.Corrupt _ -> Rejected "DB001" (* structured rejection *)
  | s2 ->
      if Store.runs s2 > !appended then
        failf "recovery invented runs: %d recovered from %d appended"
          (Store.runs s2) !appended;
      Store.append_run s2 ~seed:(n + 1) (seeded_totals rng);
      Store.compact s2;
      let runs_now = Store.runs s2 in
      Store.close s2;
      let s3 = Store.open_ ~fsync:false ~dir () in
      if Store.runs s3 <> runs_now then
        failf "post-recovery reopen lost runs: %d then %d" runs_now (Store.runs s3);
      Store.close s3;
      Accepted

(* ---------------- memo consistency fuzzing ---------------- *)

module Memo = S89_core.Memo
module Report = S89_core.Report
module Database = S89_profiling.Database
module Analysis = S89_profiling.Analysis
module Digraph = S89_graph.Digraph

(* The report's shape, counted from the FCDG graphs and not from the
   renderer: a headline and a blank line, then per procedure one header
   line, one line per node and one per edge, with a blank line between
   procedures.  No line may end in a comma: a statement's arguments never
   break across lines. *)
let check_report_shape (est : Interproc.t) report =
  let procs, expected =
    Hashtbl.fold
      (fun _ (pe : Interproc.proc_est) (procs, lines) ->
        let g = S89_cdg.Fcdg.graph pe.Interproc.analysis.Analysis.fcdg in
        (procs + 1, lines + 1 + Digraph.num_nodes g + Digraph.num_edges g))
      est.Interproc.per_proc (0, 2)
  in
  let expected = expected + procs - 1 in
  let lines = String.split_on_char '\n' report in
  if List.length lines <> expected then
    failf "report has %d lines, its FCDGs imply %d" (List.length lines) expected;
  List.iter
    (fun l ->
      if String.ends_with ~suffix:"," l then failf "report line ends in a comma: %S" l)
    lines

(* a procedure-local edit that keeps the program valid: bump one numeric
   literal to the right of an '=' (assignment RHS or DO bound) — labels
   and keywords in the statement field are never touched *)
let tweak rng src =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let cands =
    Array.to_list lines
    |> List.mapi (fun i l -> (i, l))
    |> List.filter (fun (_, l) ->
           match String.index_opt l '=' with
           | Some k ->
               String.exists
                 (fun c -> c >= '0' && c <= '9')
                 (String.sub l (k + 1) (String.length l - k - 1))
           | None -> false)
  in
  match cands with
  | [] -> src
  | _ ->
      let i, l = List.nth cands (Prng.int rng (List.length cands)) in
      let k = Option.get (String.index_opt l '=') in
      let pos = ref (-1) in
      String.iteri (fun j c -> if j > k && c >= '0' && c <= '9' then pos := j) l;
      let b = Bytes.of_string l in
      Bytes.set b !pos (Char.chr (Char.code '1' + Prng.int rng 8));
      lines.(i) <- Bytes.to_string b;
      String.concat "\n" (Array.to_list lines)

(* a multi-argument PRINT closing the main program, so that every report
   holds a statement whose argument list a break hint could split *)
let with_print src =
  let rec go = function
    | [] -> []
    | "END" :: rest -> "      PRINT *, X, Y, M" :: "END" :: rest
    | l :: rest -> l :: go rest
  in
  String.concat "\n" (go (String.split_on_char '\n' src))

let backend_name = function
  | Interp.Tree -> "tree"
  | Interp.Compiled -> "compiled"
  | Interp.Bytecode -> "bytecode"

(* a rename-only edit: the generator's one SUBROUTINE, HELPER, and its
   call sites get a new name.  Its body fingerprint is unchanged, so the
   memo answers it with the entry, plan and rendered report lines cached
   under the old name. *)
let rename_helper src =
  let old_name = "HELPER" and new_name = "HELPRR" in
  let n = String.length old_name in
  let b = Buffer.create (String.length src) in
  let i = ref 0 in
  while !i < String.length src do
    if !i + n <= String.length src && String.sub src !i n = old_name then begin
      Buffer.add_string b new_name;
      i := !i + n
    end
    else begin
      Buffer.add_char b src.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* one persistent memo over a seeded edit stream: every memoized
   analysis, profile and VM run must be identical to a from-scratch one.
   Versions: the generated program, two tweaks, a rename of HELPER, and
   the generated program again, whose superseded bodies the memo has
   evicted by then and recomputes *)
let check_memo_consistency seed : verdict =
  let rng = Prng.create ~seed:(seed lxor 0x3e30) in
  let memo_diag_codes = ref [] in
  let memo =
    Memo.create ~on_diag:(fun d -> memo_diag_codes := d.Diag.code :: !memo_diag_codes) ()
  in
  let backends = [| Interp.Tree; Interp.Compiled; Interp.Bytecode |] in
  let original = with_print (Gen.gen_source seed) in
  let src = ref original in
  let rejected = ref None in
  for v = 0 to 4 do
    if v = 4 then src := original
    else if v = 3 then src := rename_helper !src
    else if v > 0 then src := tweak rng !src;
    match Program.of_source_result !src with
    | Error d -> rejected := Some d.Diag.code (* a tweak broke the program *)
    | Ok _ -> (
        let backend = backends.((seed + v) mod 3) in
        try
          let fresh_t = Pipeline.of_source !src in
          let memo_t = Pipeline.of_source ~memo !src in
          let codes t = List.map (fun d -> d.Diag.code) (Pipeline.diagnostics t) in
          if codes fresh_t <> codes memo_t then
            failf "memo changed analysis diagnostics: [%s] vs [%s]"
              (String.concat ";" (codes fresh_t))
              (String.concat ";" (codes memo_t));
          if codes fresh_t = [] then begin
            let profile = Pipeline.profile_smart ~runs:1 ~backend fresh_t in
            let mprofile = Pipeline.profile_smart ~runs:1 ~backend memo_t in
            let plan_text (p : Pipeline.profile) =
              Fmt.str "%a" S89_profiling.Placement.pp p.Pipeline.plan
            in
            if plan_text profile <> plan_text mprofile then
              failf "memoized counter plan differs at version %d" v;
            if profile.Pipeline.counters <> mprofile.Pipeline.counters then
              failf "memoized plan's counters differ at version %d (%s backend)" v
                (backend_name backend);
            (* the memoized pipeline's VMs run on cached code *)
            if profile.Pipeline.avg_cycles <> mprofile.Pipeline.avg_cycles then
              failf "memoized profile's cycles differ at version %d (%s backend)" v
                (backend_name backend);
            (* the profiled run's seed: that run completed *)
            let output t = Interp.output (Pipeline.run_once ~seed:1 ~backend t) in
            if output fresh_t <> output memo_t then
              failf "memoized VM output differs at version %d (%s backend)" v
                (backend_name backend);
            if
              Database.to_string profile.Pipeline.database
              <> Database.to_string mprofile.Pipeline.database
            then
              failf "memoized plan's reconstructed totals differ at version %d (%s backend)"
                v (backend_name backend);
            let totals = Database.proc_totals profile.Pipeline.database in
            let fresh = Pipeline.estimate_totals fresh_t ~totals in
            let memod = Pipeline.estimate_totals ~memo memo_t ~totals in
            if Interproc.program_time fresh <> Interproc.program_time memod then
              failf "memoized TIME differs at version %d (%s backend)" v
                (backend_name backend);
            if Interproc.program_var fresh <> Interproc.program_var memod
            then
              failf "memoized VAR differs at version %d (%s backend)" v
                (backend_name backend);
            let rf = Fmt.str "%a" Report.pp fresh in
            (* the first render fills the cached report lines, the second
               reads them *)
            List.iter
              (fun render ->
                if rf <> Fmt.str "%a" Report.pp memod then
                  failf "memoized report not byte-identical at version %d, %s render (%s backend)"
                    v render (backend_name backend))
              [ "first"; "second" ];
            check_report_shape fresh rf;
            match !memo_diag_codes with
            | [] -> ()
            | c :: _ -> failf "memo raised %s on a deterministic edit stream" c
          end
        with e -> (
          match runtime_reject e with
          | Some code -> rejected := Some code
          | None -> raise e))
  done;
  match !rejected with Some code -> Rejected code | None -> Accepted

(* ---------------- codec mode ---------------- *)

module Proto = S89_net.Proto

(* The three decoders over the shared record codec are documented total:
   garbage, truncations and single-byte flips come back as their
   structured error ([Error], [Load_error], a shorter WAL prefix), never
   as any other exception.  Well-formed images must round-trip exactly,
   and a mangled image that still decodes must decode to the original
   (the only harmless flips are a checksum digit's case and trailing
   whitespace). *)
let check_codec seed : verdict =
  let rng = Prng.create ~seed:(seed lxor 0x9e70) in
  let total what f =
    try f () with
    | Fuzz_failure _ as e -> raise e
    | e -> failf "%s raised: %s" what (Printexc.to_string e)
  in
  let bytes n = String.init n (fun _ -> Char.chr (Prng.int rng 256)) in
  (* a truncation and a single-byte flip of [image]; [garbage] is
     unrelated to any image *)
  let damaged image =
    let n = String.length image in
    let b = Bytes.of_string image in
    let i = Prng.int rng n in
    Bytes.set b i (Char.chr (Char.code image.[i] lxor (1 + Prng.int rng 255)));
    [ String.sub image 0 (Prng.int rng n); Bytes.to_string b ]
  in
  let garbage () = bytes (Prng.int rng 256) in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && is_prefix a' b'
    | _ -> false
  in
  (* 1. WAL records: payloads with newlines and header look-alikes *)
  let payloads =
    List.init (1 + Prng.int rng 4) (fun _ ->
        if Prng.int rng 4 = 0 then "rec 3 0\n" ^ bytes (Prng.int rng 16)
        else bytes (Prng.int rng 64))
  in
  let image = String.concat "" (List.map Wal.frame payloads) in
  let r = Wal.recover_string image in
  if r.Wal.payloads <> payloads || r.Wal.dropped_bytes <> 0 then
    failf "WAL image did not round-trip";
  total "Wal.recover_string" (fun () -> ignore (Wal.recover_string (garbage ())));
  List.iter
    (fun m ->
      total "Wal.recover_string" (fun () ->
          let r = Wal.recover_string m in
          if r.Wal.valid_bytes + r.Wal.dropped_bytes <> String.length m then
            failf "WAL recovery lost track of bytes";
          if not (is_prefix r.Wal.payloads payloads) then
            failf "WAL recovery invented a record"))
    (damaged image);
  (* 2. net frames and payloads *)
  let name () =
    let alphabet = "abcwXYZ019_.-" in
    String.init
      (1 + Prng.int rng 12)
      (fun _ -> alphabet.[Prng.int rng (String.length alphabet)])
  in
  let req =
    match Prng.int rng 4 with
    | 0 ->
        let source =
          String.concat "\n"
            (List.init
               (1 + Prng.int rng 5)
               (fun i -> Printf.sprintf "      X%d = %d" i (Prng.int rng 1000)))
        in
        Proto.Submit
          { tenant = name (); job = name (); runs = 1 + Prng.int rng 1000;
            seed = Prng.int rng 100_000;
            deadline = float_of_int (Prng.int rng 6400) /. 64.0; source }
    | 1 -> Proto.Status { tenant = name (); job = name () }
    | 2 -> Proto.Result { tenant = name (); job = name () }
    | _ -> Proto.Metrics
  in
  let payload = Proto.encode_request req in
  let frame = Proto.frame payload in
  (match Result.bind (Proto.unframe frame) Proto.decode_request with
  | Ok r when r = req -> ()
  | Ok _ -> failf "request changed in a frame round-trip"
  | Error e -> failf "request frame rejected by its own decoder: %s" e);
  List.iter
    (fun m ->
      total "Proto.unframe" (fun () ->
          match Proto.unframe m with
          | Ok p when p <> payload -> failf "a damaged frame decoded to another payload"
          | _ -> ()))
    (damaged frame);
  List.iter
    (fun m ->
      total "Proto.unframe" (fun () -> ignore (Proto.unframe m));
      total "Proto.decode_request" (fun () -> ignore (Proto.decode_request m));
      total "Proto.decode_response" (fun () -> ignore (Proto.decode_response m)))
    (garbage () :: damaged payload);
  (* 3. v2 profile databases (loaded from a file, with and without repair) *)
  let db = Database.create () in
  for _ = 0 to Prng.int rng 3 do
    let per_proc = Hashtbl.create 2 in
    for p = 0 to Prng.int rng 3 do
      let tbl = Hashtbl.create 4 in
      for node = 0 to Prng.int rng 5 do
        let label =
          match Prng.int rng 5 with
          | 0 -> Label.T
          | 1 -> Label.F
          | 2 -> Label.U
          | 3 -> Label.Case (Prng.int rng 9)
          | _ -> Label.Pseudo (Prng.int rng 9)
        in
        Hashtbl.replace tbl (node, label) (Prng.int rng 100_000)
      done;
      Hashtbl.replace per_proc (Printf.sprintf "P%d" p) tbl
    done;
    Database.accumulate db per_proc
  done;
  let image = Database.to_string db in
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "profile.db" in
      let load_string ?repair s =
        write_file path s;
        Database.load ?repair path
      in
      if Database.to_string (load_string image) <> image then
        failf "database image did not round-trip";
      let garbled = garbage () in
      total "Database.load" (fun () ->
          try ignore (load_string garbled) with Database.Load_error _ -> ());
      total "Database.load ~repair" (fun () -> ignore (load_string ~repair:true garbled));
      List.iter
        (fun m ->
          total "Database.load" (fun () ->
              match load_string m with
              | loaded ->
                  if Database.to_string loaded <> image then
                    failf "a damaged database loaded as a different one"
              | exception Database.Load_error _ -> ());
          total "Database.load ~repair" (fun () -> ignore (load_string ~repair:true m)))
        (damaged image));
  Accepted

(* ---------------- driver ---------------- *)

type failure = { mode : mode; seed : int; what : string; src : string }

let usage () =
  prerr_endline
    "usage: fuzz [--seeds N] [--start-seed N] [--out DIR]";
  exit 2

let () =
  let seeds = ref 200
  and start = ref 1
  and out_dir = ref "fuzz-crashes" in
  let rec parse = function
    | [] -> ()
    | "--seeds" :: v :: rest ->
        (match int_of_string_opt v with Some n when n > 0 -> seeds := n | _ -> usage ());
        parse rest
    | "--start-seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> start := n | _ -> usage ());
        parse rest
    | "--out" :: v :: rest ->
        out_dir := v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let t0 = Unix.gettimeofday () in
  let failures = ref [] in
  let accepted = ref 0 in
  let rejected = Hashtbl.create 16 in
  let record mode seed (src : string Lazy.t) check =
    match check () with
    | Accepted -> incr accepted
    | Rejected code ->
        Hashtbl.replace rejected code
          (1 + Option.value ~default:0 (Hashtbl.find_opt rejected code))
    | exception e ->
        let what =
          match e with
          | Fuzz_failure m -> m
          | e -> "uncaught exception: " ^ Printexc.to_string e
        in
        failures := { mode; seed; what; src = Lazy.force src } :: !failures
  in
  for seed = !start to !start + !seeds - 1 do
    List.iter
      (fun mode ->
        let src = gen_input mode seed in
        record mode seed (Lazy.from_val src) (fun () ->
            check mode src))
      [ Valid; Mutated; Corrupted ];
    record Store_recovery seed
      (lazy "(no source: store-recovery mangles on-disk store files)")
      (fun () -> check_store seed);
    (* the edit stream's base version *)
    record Memo_consistency seed
      (lazy (with_print (Gen.gen_source seed)))
      (fun () -> check_memo_consistency seed);
    record Codec seed (lazy "(no source: codec fuzzes record images)") (fun () ->
        check_codec seed)
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf "fuzz: %d seeds x 6 modes in %.1fs — %d accepted, %d rejected, %d failures\n"
    !seeds elapsed !accepted
    (Hashtbl.fold (fun _ n acc -> acc + n) rejected 0)
    (List.length !failures);
  let codes =
    Hashtbl.fold (fun c n acc -> (c, n) :: acc) rejected [] |> List.sort compare
  in
  List.iter (fun (c, n) -> Printf.printf "  rejected with %s: %d\n" c n) codes;
  if !failures <> [] then begin
    (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    List.iter
      (fun f ->
        let base = Printf.sprintf "%s/%s-%d" !out_dir (mode_name f.mode) f.seed in
        let write path s =
          let oc = open_out path in
          output_string oc s;
          close_out oc
        in
        write (base ^ ".f77") f.src;
        write (base ^ ".txt")
          (Printf.sprintf
             "mode: %s\nseed: %d\nfailure: %s\nreproduce: dune exec fuzz/fuzz.exe -- \
              --seeds 1 --start-seed %d\n"
             (mode_name f.mode) f.seed f.what f.seed);
        Printf.printf "FAILURE %s seed %d: %s\n  artifact: %s.f77\n" (mode_name f.mode)
          f.seed f.what base)
      (List.rev !failures);
    exit 1
  end
