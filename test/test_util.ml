(* Tests for s89_util: Vec, Prng, Stats. *)

open S89_util

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cf = Alcotest.float 1e-9

(* ---------------- Vec ---------------- *)

let vec_basics () =
  let v = S89_graph.Vec.create ~capacity:1 ~dummy:0 in
  check ci "empty length" 0 (S89_graph.Vec.length v);
  for i = 1 to 100 do
    S89_graph.Vec.push v i
  done;
  check ci "length after pushes" 100 (S89_graph.Vec.length v);
  check ci "get 0" 1 (S89_graph.Vec.get v 0);
  check ci "get 99" 100 (S89_graph.Vec.get v 99)

let vec_bounds () =
  let v = S89_graph.Vec.create ~capacity:8 ~dummy:0 in
  List.iter (S89_graph.Vec.push v) [ 1; 2; 3 ];
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (S89_graph.Vec.get v 3));
  Alcotest.check_raises "get negative" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (S89_graph.Vec.get v (-1)))

let vec_conversions () =
  let v = S89_graph.Vec.create ~capacity:2 ~dummy:0 in
  List.iter (S89_graph.Vec.push v) [ 3; 1; 4; 1; 5 ];
  check (Alcotest.array ci) "to_array" [| 3; 1; 4; 1; 5 |] (S89_graph.Vec.to_array v)

(* ---------------- Prng ---------------- *)

let prng_determinism () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 50 do
    check ci "same sequence" (Prng.int a 1000) (Prng.int b 1000)
  done;
  let c = Prng.create ~seed:124 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Prng.int a 1000 <> Prng.int c 1000 then differs := true
  done;
  check cb "different seeds differ" true !differs

let prng_ranges () =
  let r = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let i = Prng.int r 13 in
    if i < 0 || i >= 13 then Alcotest.fail "int out of range";
    let f = Prng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of range";
    let u = Prng.uniform r ~lo:2.0 ~hi:5.0 in
    if u < 2.0 || u >= 5.0 then Alcotest.fail "uniform out of range";
    let g = Prng.geometric r ~p:0.4 in
    if g < 1 then Alcotest.fail "geometric < 1";
    let e = Prng.exponential r ~mean:3.0 in
    if e < 0.0 then Alcotest.fail "exponential < 0"
  done

let prng_moments () =
  let r = Prng.create ~seed:99 in
  let n = 20000 in
  let st = Stats.create () in
  for _ = 1 to n do
    Stats.add st (Prng.normal r)
  done;
  check (Alcotest.float 0.05) "normal mean ~ 0" 0.0 (Stats.mean st);
  check (Alcotest.float 0.05) "normal var ~ 1" 1.0 (Stats.variance st);
  let st = Stats.create () in
  for _ = 1 to n do
    Stats.add st (Prng.exponential r ~mean:2.5)
  done;
  check (Alcotest.float 0.1) "exp mean" 2.5 (Stats.mean st);
  let st = Stats.create () in
  for _ = 1 to n do
    Stats.add st (float_of_int (Prng.geometric r ~p:0.25))
  done;
  check (Alcotest.float 0.15) "geometric mean = 1/p" 4.0 (Stats.mean st)

let prng_split () =
  let draws rng k = List.init k (fun _ -> Prng.int rng 1_000_000) in
  (* child streams are pairwise distinct *)
  let r = Prng.create ~seed:5 in
  let children = List.init 8 (fun i -> draws (Prng.split r i) 20) in
  List.iteri
    (fun i si ->
      List.iteri
        (fun j sj -> if i < j && si = sj then Alcotest.fail "child streams collide")
        children;
      (* ... and distinct from the parent's own stream *)
      if si = draws (Prng.copy r) 20 then Alcotest.fail "child equals parent stream";
      ignore i; ignore si)
    children;
  (* reproducible: same (parent state, index) -> same stream *)
  let a = Prng.create ~seed:5 and b = Prng.create ~seed:5 in
  check (Alcotest.list ci) "split reproducible" (draws (Prng.split a 3) 20)
    (draws (Prng.split b 3) 20);
  (* splitting does not advance the parent, in any order *)
  let p1 = Prng.create ~seed:9 and p2 = Prng.create ~seed:9 in
  ignore (Prng.split p1 4);
  ignore (Prng.split p1 0);
  check (Alcotest.list ci) "parent unaffected by splits" (draws p1 10) (draws p2 10);
  (* negative index rejected *)
  Alcotest.check_raises "negative index" (Invalid_argument "Prng.split: negative index")
    (fun () -> ignore (Prng.split (Prng.create ~seed:1) (-1)))

(* ---------------- Stats ---------------- *)

let stats_known () =
  let st = Stats.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check cf "mean" 5.0 (Stats.mean st);
  check cf "population variance" 4.0 (Stats.variance st);
  check cf "std dev" 2.0 (Stats.std_dev st);
  check cf "min" 2.0 (Stats.min st);
  check cf "max" 9.0 (Stats.max st);
  check ci "count" 8 (Stats.count st)

let stats_sample_variance () =
  let st = Stats.of_list [ 1.0; 2.0; 3.0 ] in
  check cf "population" (2.0 /. 3.0) (Stats.variance st);
  check cf "sample" 1.0 (Stats.variance_sample st)

let stats_rel_err () =
  check cf "rel_err basic" 0.1 (Stats.rel_err 110.0 100.0);
  check cf "rel_err zero ref" (1.0 /. 1e-12) (Stats.rel_err 1.0 0.0)

(* Welford matches the naive two-pass computation *)
let stats_welford_prop =
  QCheck.Test.make ~count:200 ~name:"welford = two-pass"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let st = Stats.of_list xs in
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. n
      in
      Float.abs (Stats.mean st -. mean) < 1e-6 *. (1.0 +. Float.abs mean)
      && Float.abs (Stats.variance st -. var) < 1e-6 *. (1.0 +. var))

let stats_nonneg_prop =
  QCheck.Test.make ~count:200 ~name:"variance >= 0"
    QCheck.(list_of_size (Gen.int_range 1 30) (float_range (-1000.) 1000.))
    (fun xs ->
      let st = Stats.of_list xs in
      Stats.variance st >= -1e-9)

let suite =
  [
    Alcotest.test_case "vec basics" `Quick vec_basics;
    Alcotest.test_case "vec bounds" `Quick vec_bounds;
    Alcotest.test_case "vec conversions" `Quick vec_conversions;
    Alcotest.test_case "prng determinism" `Quick prng_determinism;
    Alcotest.test_case "prng ranges" `Quick prng_ranges;
    Alcotest.test_case "prng moments" `Slow prng_moments;
    Alcotest.test_case "prng split" `Quick prng_split;
    Alcotest.test_case "stats known values" `Quick stats_known;
    Alcotest.test_case "stats sample variance" `Quick stats_sample_variance;
    Alcotest.test_case "stats rel_err" `Quick stats_rel_err;
    QCheck_alcotest.to_alcotest stats_welford_prop;
    QCheck_alcotest.to_alcotest stats_nonneg_prop;
  ]
