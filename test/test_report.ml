(* Tests for the Figure-3 report renderer: its number writers against
   [Printf], and golden digests of whole reports over the demos, the
   Table-1 programs, a wide procedure and random programs. *)

module Program = S89_frontend.Program
module Codec = S89_util.Codec
module Decimal = S89_util.Decimal
open S89_core

let check = Alcotest.check

(* ---------------- number writers ---------------- *)

let written add x =
  let b = Buffer.create 16 in
  add b x;
  Buffer.contents b

let int_matches n =
  written Decimal.add_int n = string_of_int n
  && Decimal.width n = String.length (string_of_int n)

let float_matches x =
  written Decimal.add_f0 x = Printf.sprintf "%.0f" x
  && written Decimal.add_g4 x = Printf.sprintf "%.4g" x

let int_prop =
  QCheck.Test.make ~count:2000 ~name:"add_int = string_of_int" QCheck.int int_matches

let integral_prop =
  QCheck.Test.make ~count:2000 ~name:"integer-valued floats: add_f0/add_g4 = Printf"
    QCheck.(
      make ~print:string_of_int
        Gen.(
          oneof
            [ int_range (-20_000) 20_000;
              int_range (-1_000_000_000_000_000) 1_000_000_000_000_000 ]))
    (fun n -> float_matches (float_of_int n))

(* mantissa in [-1, 1) scaled by 2^e, over every binary exponent and,
   as often, around the 1e4 and 1e15 cut-overs *)
let any_float_prop =
  QCheck.Test.make ~count:4000 ~name:"any float: add_f0/add_g4 = Printf"
    QCheck.(
      pair (float_range (-1.0) 1.0)
        (make ~print:string_of_int
           Gen.(oneof [ int_range (-1074) 1024; int_range (-4) 60 ])))
    (fun (m, e) -> float_matches (Float.ldexp m e))

let number_edge_cases () =
  List.iter
    (fun x -> check Alcotest.bool (Printf.sprintf "%h" x) true (float_matches x))
    [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 9999.0; 10000.0;
      -9999.0; -10000.0; 9999.5; 1e15 -. 1.0; 1e15; -.(1e15 -. 1.0); -1e15;
      Float.max_float; -.Float.max_float; Float.min_float; 0.5; -0.5; 1.5; 2.5 ];
  List.iter
    (fun n -> check Alcotest.bool (string_of_int n) true (int_matches n))
    [ 0; 9; 10; 99; 100; 999; 1000; -1; -9; -10; max_int; min_int ]

(* ---------------- golden reports ---------------- *)

(* (iteration model, call variance) *)
let models = [ (Variance.Paper_correlated, false); (Variance.Independent, true) ]

(* Digest of every report of [sources]: each source unoptimized and
   optimized, profiled with smart counters, estimated under every model.
   Sources whose call graph is recursive are skipped; returns the digest,
   the number of reports and the number of skipped sources. *)
let golden sources =
  let digests = Buffer.create 4096 in
  let reports = ref 0 and skipped = ref 0 in
  List.iter
    (fun src ->
      let prog = Program.of_source src in
      try
        List.iter
          (fun (prog, cost_model) ->
            let t = Pipeline.create prog in
            let profile = Pipeline.profile_smart ~cost_model ~runs:2 ~seed:3 t in
            List.iter
              (fun (iteration_model, call_variance) ->
                let est =
                  Pipeline.estimate_profiled ~cost_model ~iteration_model
                    ~call_variance t profile
                in
                incr reports;
                Buffer.add_string digests
                  (Codec.fnv64_hex (Fmt.str "%a" Report.pp est)))
              models)
          [ (prog, S89_vm.Cost_model.unoptimized);
            (S89_vm.Optimize.program prog, S89_vm.Cost_model.optimized) ]
      with Interproc.Recursion_unsupported _ -> incr skipped)
    sources;
  (Codec.fnv64_hex (Buffer.contents digests), !reports, !skipped)

let demo_sources () =
  let open S89_workloads in
  [ Demos.fig1 (); Demos.branchy (); Demos.chunky (); Demos.nested_random ();
    Demos.recursive (); Demos.irreducible (); Demos.computed_goto ();
    Demos.sort (); Demos.sieve (); Livermore.source;
    Simple_code.source ~n:16 ~cycles:2 (); Linpack_like.source () ]

let triple = Alcotest.(triple string int int)

(* Digests captured from the Format-based renderer, with multi-argument
   CALL/PRINT statements already printed on one line.  The demos digest
   was re-captured when [Optimize] stopped rewriting user-call actuals:
   optimized Linpack now reports [CALL GEFA(A, N, IPVT)], not [24]. *)
let golden_demos () =
  check triple "demos, LOOPS, SIMPLE, Linpack" ("bed5427637d8565c", 44, 1)
    (golden (demo_sources ()))

let golden_wide () =
  check triple "wide procedure" ("ee84e654ba3a06df", 4, 0)
    (golden [ Gen_prog.gen_wide_cfg_source ~nodes:1100 () ])

let golden_random () =
  check triple "random programs, seeds 1-100" ("7e280e489a1dc010", 400, 0)
    (golden (List.init 100 (fun i -> Gen_prog.gen_source (i + 1))))

let suite =
  [
    QCheck_alcotest.to_alcotest int_prop;
    QCheck_alcotest.to_alcotest integral_prop;
    QCheck_alcotest.to_alcotest any_float_prop;
    Alcotest.test_case "number writers: edge cases" `Quick number_edge_cases;
    Alcotest.test_case "golden: demos and Table-1 programs" `Quick golden_demos;
    Alcotest.test_case "golden: wide procedure" `Quick golden_wide;
    Alcotest.test_case "golden: random programs" `Quick golden_random;
  ]
