(* Error-path tests: the PR-4 fault-tolerance surface.

   Covers the structured-diagnostic conversions (malformed sources per
   code), the profile database's versioned format (truncation, corruption,
   repair), Node_split's fuel, deterministic fault injection, execution
   guards (fuel / cycles / call depth), and the pipeline's graceful
   degradation vs [~strict] fail-fast. *)

module Program = S89_frontend.Program
module Ir = S89_frontend.Ir
module Pipeline = S89_core.Pipeline
module Interproc = S89_core.Interproc
module Analysis = S89_profiling.Analysis
module Database = S89_profiling.Database
module Interp = S89_vm.Interp
module Diag = S89_diag.Diag
module Fault = S89_util.Fault
module Supervise = S89_exec.Supervise
module Cfg = S89_cfg.Cfg
module Label = S89_cfg.Label
module Digraph = S89_graph.Digraph
module Node_split = S89_graph.Node_split

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

(* ---------------- diagnostics ---------------- *)

let diag_exit_codes () =
  let code c = Diag.error ~code:c "x" in
  List.iter
    (fun (c, expect) -> check ci c expect (Diag.exit_code (code c)))
    [ ("IO001", 2); ("DB001", 2); ("CLI001", 2);
      ("LEX001", 3); ("PAR001", 3); ("SEM001", 3); ("LOW001", 3); ("LOW002", 3);
      ("ANA001", 4); ("ANA002", 4); ("EST001", 4); ("EST002", 4);
      ("RUN001", 5); ("RUN003", 5); ("FLT001", 5) ]

let diag_rendering () =
  let d = Diag.error ~proc:"MAIN" ~line:12 ~hint:"try X" ~code:"PAR001" "boom" in
  let s = Diag.to_string d in
  let has sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check cb "has code" true (has "PAR001");
  check cb "has proc" true (has "MAIN");
  check cb "has line" true (has "12");
  check cb "has hint" true (has "try X");
  check cb "is_error" true (Diag.is_error d);
  check cb "warning not error" false
    (Diag.is_error (Diag.warning ~code:"RUN005" "w"))

(* ---------------- frontend rejections, one per code ---------------- *)

let frontend_rejects () =
  let expect src code =
    match Program.of_source_result src with
    | Ok _ -> Alcotest.failf "expected %s rejection" code
    | Error d -> check Alcotest.string ("code for " ^ code) code d.Diag.code
  in
  expect "PROGRAM A\n  X = 1 ~ 2\nEND\n" "LEX001";
  expect "PROGRAM A\n  IF (\nEND\n" "PAR001";
  expect "PROGRAM A\n  GOTO 999\nEND\n" "SEM001"

let frontend_diag_has_line () =
  match Program.of_source_result "PROGRAM A\n  X = 1 ~ 2\nEND\n" with
  | Error { Diag.line = Some l; _ } -> check ci "lexer line" 2 l
  | _ -> Alcotest.fail "expected a located LEX001"

(* ---------------- database format ---------------- *)

let with_tmp f =
  let path = Filename.temp_file "s89db" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let sample_db () =
  let t =
    Pipeline.of_source (S89_workloads.Demos.fig1 ())
  in
  (Pipeline.profile_smart ~runs:3 t).Pipeline.database

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let db_roundtrip_stable () =
  let db = sample_db () in
  with_tmp @@ fun p1 ->
  with_tmp @@ fun p2 ->
  Database.save db p1;
  let db2 = Database.load p1 in
  check ci "runs survive" (Database.runs db) (Database.runs db2);
  Database.save db2 p2;
  check Alcotest.string "save . load . save is identity" (read_file p1)
    (read_file p2)

let db_header_and_checksum () =
  let db = sample_db () in
  with_tmp @@ fun p ->
  Database.save db p;
  let s = read_file p in
  check cb "versioned magic first" true
    (String.length s > 17 && String.sub s 0 16 = "s89-profile-db 2");
  let lines = String.split_on_char '\n' (String.trim s) in
  let last = List.nth lines (List.length lines - 1) in
  check cb "checksum last" true
    (String.length last > 9 && String.sub last 0 9 = "checksum ")

let db_truncated () =
  let db = sample_db () in
  with_tmp @@ fun p ->
  Database.save db p;
  let s = read_file p in
  write_file p (String.sub s 0 (String.length s - 25));
  (match Database.load p with
  | exception Database.Load_error _ -> ()
  | _ -> Alcotest.fail "expected Load_error on truncated db");
  (* repair mode keeps the valid prefix *)
  let rep = Database.load ~repair:true p in
  check ci "repair keeps run count" (Database.runs db) (Database.runs rep)

let db_corrupt_payload () =
  let db = sample_db () in
  with_tmp @@ fun p ->
  Database.save db p;
  let s = read_file p in
  let b = Bytes.of_string s in
  (* flip a byte in the middle of the payload *)
  let i = Bytes.length b / 2 in
  Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
  write_file p (Bytes.to_string b);
  (match Database.load p with
  | exception Database.Load_error { line; _ } ->
      check cb "error is located" true (line >= 0)
  | _ -> Alcotest.fail "expected Load_error on corrupt db");
  (* repair still returns something usable *)
  ignore (Database.load ~repair:true p)

let db_bad_version () =
  with_tmp @@ fun p ->
  write_file p "s89-profile-db 99\nrun-count 1\n";
  match Database.load p with
  | exception Database.Load_error { line = 1; _ } -> ()
  | exception Database.Load_error { line; _ } ->
      Alcotest.failf "Load_error on line %d, expected 1" line
  | _ -> Alcotest.fail "expected Load_error on unknown version"

let db_legacy_v1 () =
  (* header-less v1 files (bare total rows) must still load *)
  let db = sample_db () in
  with_tmp @@ fun p ->
  Database.save db p;
  let s = read_file p in
  let v1 =
    String.split_on_char '\n' s
    |> List.filter (fun l ->
           let starts p =
             String.length l >= String.length p && String.sub l 0 (String.length p) = p
           in
           starts "total " || starts "run-count ")
    |> String.concat "\n"
  in
  with_tmp @@ fun p1 ->
  write_file p1 (v1 ^ "\n");
  let old = Database.load p1 in
  check ci "v1 run count preserved" (Database.runs db) (Database.runs old)

(* ---------------- node splitting fuel ---------------- *)

let node_split_gave_up () =
  (* a dense irreducible tangle: splitting blows up and must hit fuel,
     not loop forever *)
  let n = 12 in
  let b = Digraph.Builder.create () in
  ignore (Digraph.Builder.add_nodes b n);
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then Digraph.Builder.add_edge b ~src:u ~dst:v ~label:()
    done
  done;
  match Node_split.make_reducible (Digraph.Builder.freeze b) ~root:0 with
  | g, _ -> check cb "resolved" true (S89_graph.Reducibility.is_reducible g ~root:0)
  | exception Node_split.Gave_up nodes -> check cb "gave up with fuel" true (nodes >= n)

(* ---------------- fault injection ---------------- *)

let spec_of s =
  match Fault.parse s with
  | Ok sp -> sp
  | Error m -> Alcotest.failf "Fault.parse %S: %s" s m

let fault_parse () =
  (match Fault.parse "analysis_raise:0.5,db_truncate:0.1,seed:9" with
  | Ok sp ->
      check (Alcotest.float 1e-9) "prob" 0.5 (Fault.prob sp Fault.Analysis_raise);
      check (Alcotest.float 1e-9) "second site" 0.1 (Fault.prob sp Fault.Db_truncate);
      check ci "seed" 9 (Fault.seed sp)
  | Error m -> Alcotest.failf "parse failed: %s" m);
  (match Fault.parse "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  match Fault.parse "analysis_raise:2.0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "probabilities above 1 must be rejected"

(* the work-pool sites were deleted with the pool: a spec naming them is
   an unknown site, not a silently inert one *)
let fault_retired_sites_rejected () =
  List.iter
    (fun (spec, site) ->
      match Fault.parse spec with
      | Error m ->
          check Alcotest.string spec
            (Printf.sprintf "S89_FAULTS: unknown fault site %S" site)
            m
      | Ok _ -> Alcotest.failf "%S must be rejected" spec)
    [ ("worker_raise:0.5", "worker_raise"); ("slow_item:0.1@0.01", "slow_item") ]

let fault_determinism () =
  let sp = spec_of "analysis_raise:0.3,seed:42" in
  let draws () =
    List.init 500 (fun k -> Fault.fires sp Fault.Analysis_raise ~key:k ~attempt:0)
  in
  check cb "same spec, same decisions" true (draws () = draws ());
  let sp2 = spec_of "analysis_raise:0.3,seed:43" in
  let other =
    List.init 500 (fun k -> Fault.fires sp2 Fault.Analysis_raise ~key:k ~attempt:0)
  in
  check cb "different seed, different decisions" true (draws () <> other);
  let fired = List.filter Fun.id (draws ()) in
  check cb "some fire" true (List.length fired > 50);
  check cb "not all fire" true (List.length fired < 450)

(* a certain fault exhausts the supervisor's restarts and surfaces as
   [Injected]: at P = 1 every attempt's draw fires *)
let certain_fault_escalates () =
  let restarts = ref 0 in
  let policy =
    { Supervise.default_policy with base_backoff = 1e-6; max_backoff = 1e-5 }
  in
  let supervisor =
    Supervise.create ~policy
      ~on_event:(function Supervise.Restarted _ -> incr restarts | _ -> ())
      ()
  in
  Fault.with_spec (Some (spec_of "analysis_raise:1.0,seed:1")) (fun () ->
      match Pipeline.of_source ~strict:true ~supervisor (S89_workloads.Demos.fig1 ()) with
      | _ -> Alcotest.fail "expected Injected to escape"
      | exception Fault.Injected _ ->
          check ci "every restart spent" policy.max_restarts !restarts)

(* each restart draws its own (seed, site, key, attempt) decision, so at
   P < 1 a restart can absorb an injected fault: under this spec LOOPS
   and K7 fail their first attempt only, and nothing degrades *)
let restart_absorbs_fault () =
  let restarted = ref [] in
  let policy =
    { Supervise.default_policy with base_backoff = 1e-6; max_backoff = 1e-5 }
  in
  let supervisor =
    Supervise.create ~policy
      ~on_event:(function
        | Supervise.Restarted { key; attempt; _ } ->
            restarted := (key, attempt) :: !restarted
        | _ -> ())
      ()
  in
  let t =
    Fault.with_spec (Some (spec_of "analysis_raise:0.1,seed:1")) (fun () ->
        Pipeline.of_source ~supervisor S89_workloads.Livermore.source)
  in
  check
    Alcotest.(list (pair string int))
    "restarted once each" [ ("LOOPS", 0); ("K7", 0) ] (List.rev !restarted);
  check
    Alcotest.(list string)
    "no diagnostics" []
    (List.map (fun d -> d.Diag.code) (Pipeline.diagnostics t));
  List.iter
    (fun (key, _) ->
      check cb (key ^ " analyzed") true (Hashtbl.mem t.Pipeline.analyses key))
    !restarted

let analysis_fault_degrades () =
  let src = S89_workloads.Demos.fig1 () in
  Fault.with_spec (Some (spec_of "analysis_raise:1.0,seed:3")) (fun () ->
      let t = Pipeline.of_source src in
      check cb "every procedure diagnosed" true
        (List.length (Pipeline.diagnostics t)
        = List.length (Program.procs t.Pipeline.prog));
      List.iter
        (fun d -> check Alcotest.string "code" "FLT001" d.Diag.code)
        (Pipeline.diagnostics t);
      match Pipeline.of_source ~strict:true src with
      | _ -> Alcotest.fail "strict must fail fast"
      | exception Fault.Injected _ -> ())

(* a fully-degraded pipeline (every analysis failed) must still profile
   without crashing — the VM's counter array is rounded up to length 1
   even for an empty plan — and the estimate must fail structurally,
   because the main program is the root of the estimate *)
let fully_degraded_pipeline () =
  let src = S89_workloads.Demos.fig1 () in
  let t =
    Fault.with_spec (Some (spec_of "analysis_raise:1.0,seed:3")) (fun () ->
        Pipeline.of_source src)
  in
  check cb "no analyses left" true (Hashtbl.length t.Pipeline.analyses = 0);
  let profile = Pipeline.profile_smart ~runs:2 t in
  check Alcotest.int "no counters planned" 0 (Array.length profile.Pipeline.counters);
  (match Pipeline.estimate_profiled t profile with
  | _ -> Alcotest.fail "estimate must reject an un-analyzed main program"
  | exception Analysis.Unanalyzable { proc; _ } ->
      check Alcotest.string "names the main program" t.Pipeline.prog.Program.main proc);
  match Pipeline.estimate_oracle t (Pipeline.run_once t) with
  | _ -> Alcotest.fail "oracle estimate must reject an un-analyzed main program"
  | exception Analysis.Unanalyzable _ -> ()

(* ---------------- execution guards ---------------- *)

let looping_src =
  "PROGRAM SPIN\n  DO I = 1, 100000\n    X = X + 1.0\n  ENDDO\nEND\n"

let recursive_src =
  "PROGRAM M\n  CALL R(1.0)\nEND\nSUBROUTINE R(X)\n  CALL R(X)\nEND\n"

let all_backends = [ Interp.Tree; Interp.Compiled; Interp.Bytecode ]

(* Run [prog] under [config] on every backend; each must trip the same
   guard at exactly the same step and cycle count. *)
let check_guard_trips_identically what config prog expected_code =
  let results =
    List.map
      (fun backend ->
        let vm = Interp.create ~config:{ config with Interp.backend } prog in
        match Interp.run_result vm with
        | Error d ->
            check Alcotest.string (what ^ ": code") expected_code d.Diag.code;
            (Interp.steps vm, Interp.cycles vm)
        | Ok _ -> Alcotest.failf "%s: expected %s guard" what expected_code)
      all_backends
  in
  match results with
  | ref :: rest ->
      List.iter
        (fun (s, c) ->
          check ci (what ^ ": trip steps agree") (fst ref) s;
          check ci (what ^ ": trip cycles agree") (snd ref) c)
        rest
  | [] -> ()

let guard_out_of_fuel () =
  let prog = Program.of_source looping_src in
  check_guard_trips_identically "fuel"
    { Interp.default_config with max_steps = 100 }
    prog "RUN002"

let guard_out_of_cycles () =
  let prog = Program.of_source looping_src in
  check_guard_trips_identically "cycles"
    { Interp.default_config with max_cycles = 1000 }
    prog "RUN003"

let guard_call_depth () =
  let prog = Program.of_source recursive_src in
  check_guard_trips_identically "depth"
    { Interp.default_config with max_call_depth = 32 }
    prog "RUN004"

(* Counter saturation (RUN005): a bulk probe that adds [max_int] twice
   must saturate the counter at [max_int] — not wrap — and report the
   same overflowed-counter set and diagnostics on every backend. *)
let guard_saturation_identical () =
  let prog = Program.of_source looping_src in
  let p = S89_frontend.Program.find prog "SPIN" in
  let num_nodes = S89_cfg.Cfg.num_nodes p.S89_frontend.Program.cfg in
  let instr = S89_vm.Probe.make ~n_counters:1 in
  S89_vm.Probe.add_node_action instr ~proc:"SPIN" ~num_nodes ~node:0
    (S89_vm.Probe.Bulk_add (0, S89_frontend.Ast.Int max_int));
  S89_vm.Probe.add_node_action instr ~proc:"SPIN" ~num_nodes ~node:0
    (S89_vm.Probe.Bulk_add (0, S89_frontend.Ast.Int max_int));
  List.iter
    (fun backend ->
      let vm =
        Interp.create ~config:{ Interp.default_config with instr; backend } prog
      in
      (match Interp.run_result vm with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "unexpected %s" d.Diag.code);
      check ci "counter saturates at max_int" max_int (Interp.counters vm).(0);
      check cb "counter 0 reported overflowed" true
        (Interp.counter_overflowed vm = [ 0 ]);
      check cb "one RUN005 diagnostic" true
        (match Interp.diagnostics vm with
        | [ d ] -> d.Diag.code = "RUN005"
        | _ -> false))
    all_backends

let guard_clean_run_no_diags () =
  let prog = Program.of_source (S89_workloads.Demos.fig1 ()) in
  let vm = Interp.create prog in
  (match Interp.run_result vm with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "unexpected %s" d.Diag.code);
  check cb "no overflow" true (Interp.counter_overflowed vm = []);
  check cb "no diagnostics" true (Interp.diagnostics vm = [])

(* ---------------- pipeline degradation ---------------- *)

(* replace one procedure's CFG with an irreducible tangle, as if lowering
   had produced something the interval analysis cannot handle *)
let sabotage prog victim =
  Program.map_cfgs prog (fun p ->
      if p.Program.name <> victim then p.Program.cfg
      else begin
        let dummy = { Ir.ir = Ir.Nop "BAD"; src_label = None } in
        let cfg = Cfg.Builder.create ~dummy () in
        let e = Cfg.Builder.add_node cfg dummy in
        let a = Cfg.Builder.add_node cfg dummy in
        let b = Cfg.Builder.add_node cfg dummy in
        List.iter
          (fun (u, v, l) -> Cfg.Builder.add_edge cfg ~src:u ~dst:v ~label:l)
          [ (e, a, Label.T); (e, b, Label.F); (a, b, Label.U); (b, a, Label.U) ];
        Cfg.Builder.set_entry cfg e;
        Cfg.Builder.set_exits cfg [ b ];
        Cfg.Builder.freeze cfg
      end)

let two_proc_src =
  "PROGRAM M\n  X = 1.0\n  CALL H(X)\n  Y = X\nEND\n\
   SUBROUTINE H(V)\n  V = V + 1.0\nEND\n"

let pipeline_degrades () =
  let prog = sabotage (Program.of_source two_proc_src) "H" in
  let t = Pipeline.create prog in
  (match Pipeline.diagnostics t with
  | [ d ] ->
      check Alcotest.string "code" "ANA001" d.Diag.code;
      check (Alcotest.option Alcotest.string) "proc" (Some "H") d.Diag.proc
  | ds -> Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds));
  check cb "main still analyzed" true (Hashtbl.mem t.Pipeline.analyses "M");
  check cb "bad proc skipped" false (Hashtbl.mem t.Pipeline.analyses "H");
  (* the estimator treats the skipped procedure's calls as opaque and warns *)
  let warned = ref [] in
  let est =
    Interproc.estimate ~on_diag:(fun d -> warned := d :: !warned) prog
      t.Pipeline.analyses
      ~totals:(fun name ->
        let a = Hashtbl.find t.Pipeline.analyses name in
        let tbl = Hashtbl.create 8 in
        List.iter (fun c -> Hashtbl.replace tbl c 0) a.Analysis.conditions;
        tbl)
  in
  check cb "estimate exists for main" true (Float.is_finite (Interproc.program_time est));
  check cb "opaque-call warning emitted" true
    (List.exists (fun d -> d.Diag.code = "ANA003") !warned)

let pipeline_strict_fail_fast () =
  let prog = sabotage (Program.of_source two_proc_src) "H" in
  match Pipeline.create ~strict:true prog with
  | _ -> Alcotest.fail "strict must raise"
  | exception Analysis.Unanalyzable { proc = "H"; _ } -> ()

(* a loop re-entered around its header is rejected, not silently
   mis-estimated (found by the fuzzer: a GOTO from after a DO loop back
   into its body keeps the CFG reducible but breaks the frequency laws) *)
let reentrant_loop_rejected () =
  let src =
    "PROGRAM P\n\
    \  DO I = 1, 8\n\
    \    140 X = X + 1.0\n\
    \  ENDDO\n\
    \  Y = Y + 1.0\n\
    \  IF (Y .GT. 4.0) THEN\n\
    \    GOTO 140\n\
    \  ENDIF\n\
    \  Z = X\n\
    END\n"
  in
  match Program.of_source_result src with
  | Error _ -> () (* fine: the frontend may reject backward GOTOs outright *)
  | Ok prog -> (
      let t = Pipeline.create prog in
      match Pipeline.diagnostics t with
      | [] ->
          (* if it analyzes, reconstruction must be exact *)
          let vm = Pipeline.run_once t in
          let est = Pipeline.estimate_oracle t vm in
          let measured = float_of_int (Interp.cycles vm) in
          let predicted = Interproc.program_time est in
          check cb "reconstruction exact" true
            (Float.abs (measured -. predicted) <= 1e-6 *. (1.0 +. measured))
      | [ d ] -> check Alcotest.string "structured rejection" "ANA001" d.Diag.code
      | ds -> Alcotest.failf "expected 0/1 diagnostics, got %d" (List.length ds))

let suite =
  [
    Alcotest.test_case "diag: exit codes per family" `Quick diag_exit_codes;
    Alcotest.test_case "diag: rendering" `Quick diag_rendering;
    Alcotest.test_case "frontend: rejects per code" `Quick frontend_rejects;
    Alcotest.test_case "frontend: located diagnostics" `Quick frontend_diag_has_line;
    Alcotest.test_case "db: save/load/save stable" `Quick db_roundtrip_stable;
    Alcotest.test_case "db: header + checksum" `Quick db_header_and_checksum;
    Alcotest.test_case "db: truncation detected, repairable" `Quick db_truncated;
    Alcotest.test_case "db: corruption detected" `Quick db_corrupt_payload;
    Alcotest.test_case "db: unknown version rejected" `Quick db_bad_version;
    Alcotest.test_case "db: legacy v1 readable" `Quick db_legacy_v1;
    Alcotest.test_case "node split: fuel bound" `Quick node_split_gave_up;
    Alcotest.test_case "fault: spec parsing" `Quick fault_parse;
    Alcotest.test_case "fault: deterministic decisions" `Quick fault_determinism;
    Alcotest.test_case "fault: retired pool sites rejected" `Quick
      fault_retired_sites_rejected;
    Alcotest.test_case "fault: certain fault escalates" `Quick certain_fault_escalates;
    Alcotest.test_case "fault: analysis fault degrades pipeline" `Quick
      analysis_fault_degrades;
    Alcotest.test_case "faults: fully degraded pipeline" `Quick
      fully_degraded_pipeline;
    Alcotest.test_case "guard: out of fuel" `Quick guard_out_of_fuel;
    Alcotest.test_case "guard: counter saturation identical across backends"
      `Quick guard_saturation_identical;
    Alcotest.test_case "guard: out of cycles (all backends)" `Quick
      guard_out_of_cycles;
    Alcotest.test_case "guard: call depth" `Quick guard_call_depth;
    Alcotest.test_case "guard: clean run has no diagnostics" `Quick
      guard_clean_run_no_diags;
    Alcotest.test_case "pipeline: degrades per procedure" `Quick pipeline_degrades;
    Alcotest.test_case "pipeline: strict fails fast" `Quick pipeline_strict_fail_fast;
    Alcotest.test_case "pipeline: re-entered loop rejected" `Quick
      reentrant_loop_rejected;
    Alcotest.test_case "fault: a restart absorbs a drawn fault" `Quick
      restart_absorbs_fault;
  ]
