(* Aggregated test suites for the whole reproduction.  Run via `dune
   runtest`; property tests (qcheck) are registered as alcotest cases. *)
let () =
  Alcotest.run "sarkar89"
    [
      ("util", Test_util.suite);
      ("codec", Test_codec.suite);
      ("graph", Test_graph.suite);
      ("cfg", Test_cfg.suite);
      ("cdg", Test_cdg.suite);
      ("frontend", Test_frontend.suite);
      ("vm", Test_vm.suite);
      ("profiling", Test_profiling.suite);
      ("placement", Test_placement.suite);
      ("core", Test_core.suite);
      ("report", Test_report.suite);
      ("sched", Test_sched.suite);
      ("robustness", Test_robustness.suite);
      ("store", Test_store.suite);
      ("net", Test_net.suite);
      ("memo", Test_memo.suite);
      ("workloads", Test_workloads.suite);
    ]
