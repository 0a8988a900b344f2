(** Test driver: aggregates every suite in this directory. *)

let () =
  Alcotest.run "scaf"
    (Test_ir.suite @ Test_cfg.suite @ Test_interp.suite @ Test_core.suite
     @ Test_eval_diff.suite @ Test_analysis.suite @ Test_profile.suite @ Test_speculation.suite @ Test_motivating.suite @ Test_transform.suite @ Test_suite.suite @ Test_soundness.suite @ Test_context.suite @ Test_report.suite @ Test_temporal.suite @ Test_resilience.suite @ Test_qcache.suite @ Test_trace.suite @ Test_audit.suite @ Test_server.suite @ Test_incremental.suite @ Test_lint.suite)
