(* Test aggregator: each [Test_*] module exports [suites]. *)

let () =
  Alcotest.run "pdq"
    (List.concat
       [
         Test_engine.suites;
         Test_telemetry.suites;
         Test_json.suites;
         Test_net.suites;
         Test_core.suites;
         Test_transport.suites;
         Test_faults.suites;
         Test_mpdq.suites;
         Test_sched.suites;
         Test_workload.suites;
         Test_flowsim.suites;
         Test_exec.suites;
         Test_forensics.suites;
         Test_check.suites;
         Test_apps.suites;
         Test_cli.suites;
         Test_experiments.suites;
         Test_chaos.suites;
       ])
