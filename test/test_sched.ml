(* Tests for s89_sched: distributions (moment laws), Kruskal–Weiss chunk
   sizing and its makespan model, and the parallel-loop simulator. *)

open S89_sched
module Stats = S89_util.Stats
module Prng = S89_util.Prng

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cf = Alcotest.float 1e-9

(* ---------------- Dist ---------------- *)

let dist_moments_analytic () =
  check cf "const mean" 5.0 (Dist.mean (Dist.Const 5.0));
  check cf "const var" 0.0 (Dist.variance (Dist.Const 5.0));
  check cf "uniform mean" 3.0 (Dist.mean (Dist.Uniform { lo = 1.0; hi = 5.0 }));
  check cf "uniform var" (16.0 /. 12.0) (Dist.variance (Dist.Uniform { lo = 1.0; hi = 5.0 }));
  check cf "exp var" 9.0 (Dist.variance (Dist.Exponential { mean = 3.0 }));
  let b = Dist.Bimodal { fast = 1.0; slow = 9.0; p_slow = 0.25 } in
  check cf "bimodal mean" 3.0 (Dist.mean b);
  (* var = 0.75·(1−3)² + 0.25·(9−3)² = 3 + 9 = 12 *)
  check cf "bimodal var" 12.0 (Dist.variance b);
  check cf "shifted exp mean" 7.0 (Dist.mean (Dist.Shifted_exp { base = 4.0; extra_mean = 3.0 }));
  check cf "shifted exp var" 9.0 (Dist.variance (Dist.Shifted_exp { base = 4.0; extra_mean = 3.0 }))

let dist_of_moments () =
  List.iter
    (fun (m, v) ->
      let d = Dist.of_moments ~mean:m ~variance:v in
      check (Alcotest.float 1e-6) "mean matches" m (Dist.mean d);
      check (Alcotest.float 1e-6) "variance matches" v (Dist.variance d))
    [ (10.0, 0.0); (10.0, 4.0); (10.0, 100.0); (10.0, 10000.0); (1.0, 0.5) ]

let dist_sample_moments () =
  let rng = Prng.create ~seed:77 in
  List.iter
    (fun d ->
      let st = Stats.create () in
      for _ = 1 to 30000 do
        let x = Dist.sample rng d in
        if x < 0.0 then Alcotest.fail "negative sample";
        Stats.add st x
      done;
      check cb "sampled mean close" true
        (Stats.rel_err (Stats.mean st) (Dist.mean d) < 0.05);
      if Dist.variance d > 0.0 then
        check cb "sampled variance close" true
          (Stats.rel_err (Stats.variance st) (Dist.variance d) < 0.1))
    [ Dist.Const 3.0; Dist.Uniform { lo = 2.0; hi = 8.0 };
      Dist.Exponential { mean = 5.0 };
      Dist.Bimodal { fast = 1.0; slow = 20.0; p_slow = 0.2 };
      Dist.Shifted_exp { base = 2.0; extra_mean = 4.0 };
      Dist.of_moments ~mean:10.0 ~variance:400.0 ]

(* ---------------- Chunk ---------------- *)

let chunk_zero_variance () =
  check ci "sigma=0 -> N/P" 625 (Chunk.kw_chunk ~n:10000 ~p:16 ~h:50.0 ~sigma:0.0);
  check ci "p=1 -> all" 100 (Chunk.kw_chunk ~n:100 ~p:1 ~h:1.0 ~sigma:5.0);
  check ci "static chunk rounds up" 34 (Chunk.static_chunk ~n:100 ~p:3)

let chunk_monotonicity () =
  let k sigma = Chunk.kw_chunk ~n:10000 ~p:16 ~h:50.0 ~sigma in
  check cb "more variance, smaller chunks" true (k 10.0 >= k 100.0 && k 100.0 >= k 1000.0);
  let kh h = Chunk.kw_chunk ~n:10000 ~p:16 ~h ~sigma:100.0 in
  check cb "more overhead, larger chunks" true (kh 10.0 <= kh 100.0 && kh 100.0 <= kh 1000.0);
  (* clamped to [1, N/P] *)
  check cb "lower clamp" true (k 1e12 >= 1);
  check cb "upper clamp" true (k 1e-12 <= Chunk.static_chunk ~n:10000 ~p:16)

let chunk_optimizes_model () =
  (* k_opt should beat k_opt/4 and 4·k_opt in the analytic makespan model *)
  let n = 10000 and p = 16 and h = 50.0 and mu = 100.0 and sigma = 100.0 in
  let k_opt = Chunk.kw_chunk ~n ~p ~h ~sigma in
  let m k = Chunk.expected_makespan ~n ~p ~h ~mu ~sigma ~k in
  check cb "beats smaller" true (m k_opt <= m (max 1 (k_opt / 4)) +. 1e-9);
  check cb "beats larger" true (m k_opt <= m (4 * k_opt) +. 1e-9)

let chunk_strategies () =
  check ci "self-sched" 1 (Chunk.initial_chunk Chunk.Self_sched ~n:100 ~p:4 ~h:1.0 ~sigma:1.0);
  check ci "fixed clamps" 100
    (Chunk.initial_chunk (Chunk.Fixed 1000) ~n:100 ~p:4 ~h:1.0 ~sigma:1.0);
  check ci "static" 25 (Chunk.initial_chunk Chunk.Static_split ~n:100 ~p:4 ~h:1.0 ~sigma:1.0);
  check cb "names distinct" true
    (List.length
       (List.sort_uniq compare
          (List.map Chunk.strategy_name
             [ Chunk.Static_split; Chunk.Self_sched; Chunk.Fixed 3;
               Chunk.Kruskal_weiss; Chunk.Guided ]))
    = 5)

let chunk_from_estimate () =
  check ci "from estimate = kw on sqrt var"
    (Chunk.kw_chunk ~n:1000 ~p:8 ~h:10.0 ~sigma:20.0)
    (Chunk.from_estimate ~time:100.0 ~var:400.0 ~n:1000 ~p:8 ~h:10.0)

(* ---------------- Parsim ---------------- *)

let parsim_conservation () =
  let r =
    Parsim.run ~seed:3 ~n:1000 ~p:8 ~h:5.0 ~dist:(Dist.Exponential { mean = 50.0 })
      (Chunk.Fixed 25)
  in
  (* every iteration's time is accounted for in some worker's busy time *)
  let busy = Array.fold_left ( +. ) 0.0 r.Parsim.worker_busy in
  check (Alcotest.float 1e-6) "work + overhead = busy"
    (r.Parsim.total_work +. r.Parsim.total_overhead)
    busy;
  check ci "chunks" 40 r.Parsim.chunks_dispatched;
  check cb "makespan >= busy/p" true (r.Parsim.makespan >= busy /. 8.0 -. 1e-9);
  check cb "makespan <= busy" true (r.Parsim.makespan <= busy +. 1e-9)

let parsim_zero_variance_static_optimal () =
  let dist = Dist.Const 100.0 in
  let m strat = (Parsim.run ~seed:1 ~n:1000 ~p:10 ~h:20.0 ~dist strat).Parsim.makespan in
  check cb "static beats self-sched at zero variance" true
    (m Chunk.Static_split < m Chunk.Self_sched);
  (* perfect split: exactly n/p iterations + one dispatch per worker *)
  check (Alcotest.float 1e-6) "static makespan exact" (20.0 +. (100.0 *. 100.0))
    (m Chunk.Static_split)

let parsim_high_variance_kw_wins () =
  let n = 4000 and p = 16 and h = 50.0 in
  let mu = 100.0 in
  let sigma = 2.0 *. mu in
  let dist = Dist.of_moments ~mean:mu ~variance:(sigma *. sigma) in
  let avg strat = Stats.mean (Parsim.run_avg ~seeds:10 ~n ~p ~h ~dist strat) in
  let k = Chunk.kw_chunk ~n ~p ~h ~sigma in
  check cb "kw beats static under high variance" true
    (avg (Chunk.Fixed k) < avg Chunk.Static_split)

let parsim_guided_and_edge_cases () =
  let dist = Dist.Const 10.0 in
  let r = Parsim.run ~n:0 ~p:4 ~h:1.0 ~dist Chunk.Self_sched in
  check (Alcotest.float 1e-9) "empty loop" 0.0 r.Parsim.makespan;
  let r = Parsim.run ~n:100 ~p:4 ~h:1.0 ~dist Chunk.Guided in
  check cb "guided dispatches decreasing chunks" true (r.Parsim.chunks_dispatched > 4);
  check cb "guided completes all work" true
    (Float.abs (r.Parsim.total_work -. 1000.0) < 1e-6);
  match Parsim.run ~n:(-1) ~p:4 ~h:1.0 ~dist Chunk.Self_sched with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* determinism *)
let parsim_determinism () =
  let dist = Dist.Exponential { mean = 10.0 } in
  let m () = (Parsim.run ~seed:9 ~n:500 ~p:4 ~h:2.0 ~dist Chunk.Self_sched).Parsim.makespan in
  check cf "same seed same makespan" (m ()) (m ())

let suite =
  [
    Alcotest.test_case "dist: analytic moments" `Quick dist_moments_analytic;
    Alcotest.test_case "dist: of_moments" `Quick dist_of_moments;
    Alcotest.test_case "dist: sampled moments" `Slow dist_sample_moments;
    Alcotest.test_case "chunk: zero variance" `Quick chunk_zero_variance;
    Alcotest.test_case "chunk: monotonicity" `Quick chunk_monotonicity;
    Alcotest.test_case "chunk: optimizes model" `Quick chunk_optimizes_model;
    Alcotest.test_case "chunk: strategies" `Quick chunk_strategies;
    Alcotest.test_case "chunk: from estimate" `Quick chunk_from_estimate;
    Alcotest.test_case "parsim: conservation" `Quick parsim_conservation;
    Alcotest.test_case "parsim: zero variance" `Quick parsim_zero_variance_static_optimal;
    Alcotest.test_case "parsim: high variance" `Slow parsim_high_variance_kw_wins;
    Alcotest.test_case "parsim: guided and edges" `Quick parsim_guided_and_edge_cases;
    Alcotest.test_case "parsim: determinism" `Quick parsim_determinism;
  ]
