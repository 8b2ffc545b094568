(* PR-8 surface: incremental memoized interprocedural analysis.
   Fingerprint semantics (renames keep them, body edits invalidate
   exactly the caller cone, callee-summary changes propagate), memoized
   vs. from-scratch byte-identity, and the memo record family's crash
   recovery through the store's longest-valid-prefix WAL path. *)

module Program = S89_frontend.Program
module Pipeline = S89_core.Pipeline
module Interproc = S89_core.Interproc
module Static_freq = S89_core.Static_freq
module Report = S89_core.Report
module Memo = S89_core.Memo
module Store = S89_store.Store
module Diag = S89_diag.Diag
module Fault = S89_util.Fault

let check = Alcotest.check
let ci = Alcotest.int
let cs = Alcotest.string
let csl = Alcotest.(list string)

let spec_of s =
  match Fault.parse s with Ok sp -> sp | Error m -> Alcotest.fail m

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmp_dir f =
  let dir = Filename.temp_file "s89memo" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* MAIN calls A and C; A calls B.  v2 edits B's body; v3 only renames
   B to BB (the call site in A must follow, so A's body changes too). *)
let src_v1 =
  "      PROGRAM MAIN\n      CALL A\n      CALL C\n      END\n\n\
  \      SUBROUTINE A\n      CALL B\n      END\n\n\
  \      SUBROUTINE B\n      X = 1.0\n      END\n\n\
  \      SUBROUTINE C\n      Y = 2.0\n      END\n"

let src_v2 =
  "      PROGRAM MAIN\n      CALL A\n      CALL C\n      END\n\n\
  \      SUBROUTINE A\n      CALL B\n      END\n\n\
  \      SUBROUTINE B\n      X = 3.0\n      END\n\n\
  \      SUBROUTINE C\n      Y = 2.0\n      END\n"

let src_v3 =
  "      PROGRAM MAIN\n      CALL A\n      CALL C\n      END\n\n\
  \      SUBROUTINE A\n      CALL BB\n      END\n\n\
  \      SUBROUTINE BB\n      X = 1.0\n      END\n\n\
  \      SUBROUTINE C\n      Y = 2.0\n      END\n"

let estimate ?memo src =
  let t = Pipeline.of_source ?memo src in
  Pipeline.estimate_totals ?memo
    ~totals:(Static_freq.program_totals t.Pipeline.analyses)
    t

let report est = Fmt.str "%a" Report.pp est

let find_proc src name =
  match Program.of_source_result src with
  | Error d -> Alcotest.failf "parse: %a" Diag.pp d
  | Ok prog -> Program.find prog name

(* ---------------- fingerprint semantics ---------------- *)

let rename_keeps_fingerprint () =
  let fp_b = Memo.body_fp (find_proc src_v1 "B") in
  let fp_bb = Memo.body_fp (find_proc src_v3 "BB") in
  check cs "renaming a procedure keeps its body fingerprint"
    (Printf.sprintf "%016Lx" fp_b)
    (Printf.sprintf "%016Lx" fp_bb);
  let fp_b2 = Memo.body_fp (find_proc src_v2 "B") in
  check Alcotest.bool "a body edit changes the fingerprint" true (fp_b <> fp_b2)

let body_edit_invalidates_caller_cone () =
  let memo = Memo.create () in
  let _ = estimate ~memo src_v1 in
  let s = Memo.stats memo in
  check ci "cold start: every procedure recomputes" 4 s.Memo.misses;
  check ci "cold start: no hits" 0 s.Memo.hits;
  Memo.reset_stats memo;
  (* A's lowered body is untouched by the edit to B, so any
     recomputation of A is pure callee-summary propagation *)
  check cs "A's body fingerprint is unchanged by the edit to B"
    (Printf.sprintf "%016Lx" (Memo.body_fp (find_proc src_v1 "A")))
    (Printf.sprintf "%016Lx" (Memo.body_fp (find_proc src_v2 "A")));
  let warm = estimate ~memo src_v2 in
  let s = Memo.stats memo in
  check ci "dirty cone is exactly B, A, MAIN" 3 s.Memo.misses;
  check ci "C (outside the cone) hits" 1 s.Memo.hits;
  check cs "memoized result is byte-identical to from-scratch"
    (report (estimate src_v2))
    (report warm)

let rename_hits_callers_miss () =
  let memo = Memo.create () in
  let _ = estimate ~memo src_v1 in
  Memo.reset_stats memo;
  let warm = estimate ~memo src_v3 in
  let s = Memo.stats memo in
  (* BB's key equals B's (names are excluded), C is untouched; A's body
     now reads CALL BB so A and, through A's summary, MAIN recompute *)
  check ci "renamed leaf and untouched C hit" 2 s.Memo.hits;
  check ci "the renaming call site's cone recomputes" 2 s.Memo.misses;
  check cs "memoized rename result is byte-identical to from-scratch"
    (report (estimate src_v3))
    (report warm)

let analysis_layer_hits_on_unchanged_bodies () =
  let memo = Memo.create () in
  let _ = Pipeline.of_source ~memo src_v1 in
  let s = Memo.stats memo in
  check ci "cold: every ECFG/CDG/FCDG is built" 4 s.Memo.analysis_misses;
  Memo.reset_stats memo;
  let _ = Pipeline.of_source ~memo src_v2 in
  let s = Memo.stats memo in
  check ci "only the edited body rebuilds its analysis" 1 s.Memo.analysis_misses;
  check ci "unchanged bodies reuse theirs" 3 s.Memo.analysis_hits

(* ---------------- warm-start summary validation ---------------- *)

let warm_summaries_confirm_and_mismatch () =
  let memo = Memo.create () in
  let _ = estimate ~memo src_v1 in
  let persisted = Memo.drain_summaries memo in
  check ci "one summary per procedure" 4 (List.length persisted);
  (* a faithful reload: every recomputation confirms its summary *)
  let diags = ref [] in
  let m2 = Memo.create ~on_diag:(fun d -> diags := d :: !diags) () in
  List.iter
    (fun (fp, name, time, var) -> Memo.load_summary m2 ~fp ~name ~time ~var)
    persisted;
  let _ = estimate ~memo:m2 src_v1 in
  check ci "all recomputations confirmed" 4 (Memo.stats m2).Memo.warm_confirmed;
  check ci "no mismatches" 0 (Memo.stats m2).Memo.warm_mismatches;
  check ci "nothing new to persist" 0 (List.length (Memo.drain_summaries m2));
  check csl "no diagnostics" [] (List.map (fun d -> d.Diag.code) !diags);
  (* a corrupted reload: every recomputation raises MEMO002 *)
  let diags = ref [] in
  let m3 = Memo.create ~on_diag:(fun d -> diags := d :: !diags) () in
  List.iter
    (fun (fp, name, time, var) ->
      Memo.load_summary m3 ~fp ~name ~time:(time +. 1.0) ~var)
    persisted;
  let _ = estimate ~memo:m3 src_v1 in
  check ci "every stale summary is a mismatch" 4
    (Memo.stats m3).Memo.warm_mismatches;
  check csl "each mismatch is a MEMO002" [ "MEMO002"; "MEMO002"; "MEMO002"; "MEMO002" ]
    (List.map (fun d -> d.Diag.code) !diags);
  check ci "fresh results are re-persisted" 4
    (List.length (Memo.drain_summaries m3))

let conflicting_loads_raise_memo001 () =
  let diags = ref [] in
  let m = Memo.create ~on_diag:(fun d -> diags := d :: !diags) () in
  Memo.load_summary m ~fp:42L ~name:"P" ~time:10.0 ~var:1.0;
  Memo.load_summary m ~fp:42L ~name:"P" ~time:10.0 ~var:1.0;
  check csl "an identical reload is silent" []
    (List.map (fun d -> d.Diag.code) !diags);
  Memo.load_summary m ~fp:42L ~name:"Q" ~time:11.0 ~var:1.0;
  check csl "a conflicting reload is a MEMO001" [ "MEMO001" ]
    (List.map (fun d -> d.Diag.code) !diags)

(* ---------------- the store's memo record family ---------------- *)

let memo_records_roundtrip_and_compact () =
  with_tmp_dir @@ fun dir ->
  let s = Store.open_ ~fsync:false ~dir () in
  Store.append_memo s ~fp:1L ~name:"A" ~time:10.5 ~var:0.25;
  Store.append_memo s ~fp:2L ~name:"B" ~time:20.0 ~var:2.0;
  let before = Store.wal_records s in
  Store.append_memo s ~fp:1L ~name:"A" ~time:10.5 ~var:0.25;
  check ci "an identical re-append is a no-op" before (Store.wal_records s);
  Store.append_memo s ~fp:1L ~name:"A" ~time:99.0 ~var:9.0;
  Store.close s;
  let s2 = Store.open_ ~fsync:false ~dir () in
  check csl "last write per fingerprint wins, id order"
    [ "2 B 0x1.4p+4 0x1p+1"; "1 A 0x1.8cp+6 0x1.2p+3" ]
    (List.map
       (fun (fp, n, t, v) -> Printf.sprintf "%Ld %s %h %h" fp n t v)
       (Store.memos s2));
  Store.compact s2;
  Store.close s2;
  let s3 = Store.open_ ~fsync:false ~dir () in
  check ci "records survive compaction into the new epoch" 2
    (List.length (Store.memos s3));
  check Alcotest.bool "compaction bumped the epoch" true (Store.epoch s3 > 0);
  Store.close s3

let torn_memo_record_recovers () =
  with_tmp_dir @@ fun dir ->
  let s = Store.open_ ~fsync:false ~dir () in
  Store.append_memo s ~fp:1L ~name:"A" ~time:10.0 ~var:1.5;
  Store.append_memo s ~fp:2L ~name:"B" ~time:20.0 ~var:2.5;
  (match
     Fault.with_spec (Some (spec_of "wal_torn:1.0,seed:7")) (fun () ->
         Store.append_memo s ~fp:3L ~name:"C" ~time:30.0 ~var:3.5)
   with
  | () -> Alcotest.fail "expected the injected torn write to raise"
  | exception Fault.Injected _ -> ());
  Store.close s;
  (* the torn memo record rides the existing longest-valid-prefix path:
     DB002, never Corrupt, and the intact prefix is fully recovered *)
  let s2 = Store.open_ ~fsync:false ~dir () in
  check csl "recovery reports exactly one DB002" [ "DB002" ]
    (List.map (fun d -> d.Diag.code) (Store.recovery_diags s2));
  check csl "the valid prefix survives" [ "A"; "B" ]
    (List.map (fun (_, n, _, _) -> n) (Store.memos s2));
  Store.append_memo s2 ~fp:3L ~name:"C" ~time:30.0 ~var:3.5;
  check ci "appends land cleanly after recovery" 3
    (List.length (Store.memos s2));
  Store.close s2

(* ---------------- edit-stream replay ---------------- *)

(* Two seeded edit streams over generated programs (48 procedures of
   8 statements with fan-out 12, and 96 of 4 with fan-out 24), each
   edit a constant change in one procedure.  One memo, primed on the
   unedited program, serves every re-analysis; its exact hit and miss
   counts are pinned (hit rates 92% and 96%), and the final program's
   memoized report must equal the from-scratch one byte for byte. *)
let edit_stream_hits () =
  List.iter
    (fun (procs, size, fan, edits, hits, misses) ->
      let consts = Array.make procs 1 in
      let parse () =
        Program.of_source (Gen_prog.gen_incremental_source ~size ~fan ~consts 77)
      in
      let analyze ?memo prog =
        let t = Pipeline.create ?memo prog in
        Pipeline.estimate_totals ?memo t ~totals:(Pipeline.static_totals ?memo t)
      in
      let rng = S89_util.Prng.create ~seed:0xed17 in
      let memo = Memo.create () in
      ignore (analyze ~memo (parse ()));
      Memo.reset_stats memo;
      for _ = 1 to edits do
        let j = S89_util.Prng.int rng procs in
        consts.(j) <- consts.(j) + 1;
        ignore (analyze ~memo (parse ()))
      done;
      let st = Memo.stats memo in
      let label = Printf.sprintf "%d procedures" procs in
      check ci (label ^ ": hits") hits st.Memo.hits;
      check ci (label ^ ": misses") misses st.Memo.misses;
      let final = parse () in
      check cs (label ^ ": memoized = from scratch") (report (analyze final))
        (report (analyze ~memo final)))
    [ (48, 8, 12, 10, 458, 42); (96, 4, 24, 12, 1134, 42) ]

let suite =
  [
    Alcotest.test_case "rename keeps the body fingerprint" `Quick
      rename_keeps_fingerprint;
    Alcotest.test_case "body edit invalidates exactly the caller cone" `Quick
      body_edit_invalidates_caller_cone;
    Alcotest.test_case "rename: leaf hits, call-site cone misses" `Quick
      rename_hits_callers_miss;
    Alcotest.test_case "analysis layer rebuilds only changed bodies" `Quick
      analysis_layer_hits_on_unchanged_bodies;
    Alcotest.test_case "warm summaries confirm; stale ones raise MEMO002" `Quick
      warm_summaries_confirm_and_mismatch;
    Alcotest.test_case "conflicting summary loads raise MEMO001" `Quick
      conflicting_loads_raise_memo001;
    Alcotest.test_case "memo records round-trip and survive compaction" `Quick
      memo_records_roundtrip_and_compact;
    Alcotest.test_case "torn memo record recovers via the WAL prefix" `Quick
      torn_memo_record_recovers;
    Alcotest.test_case "edit streams: pinned hit counts, memoized = scratch" `Quick
      edit_stream_hits;
  ]
