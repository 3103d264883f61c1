let () =
  Alcotest.run "yieldlab"
    (List.concat
       [
         T_numeric.suites;
         T_linsys.suites;
         T_mna.suites;
         T_obs.suites;
         T_stats.suites;
         T_spice.suites;
         T_netlist.suites;
         T_tran.suites;
         T_extensions.suites;
         T_process.suites;
         T_ga.suites;
         T_table.suites;
         T_circuits.suites;
         T_circuits2.suites;
         T_behavioural.suites;
         T_core.suites;
         T_telemetry.suites;
         T_resilience.suites;
         T_exec.suites;
         T_analyse.suites;
         T_analyse2.suites;
         T_corner.suites;
         T_serve.suites;
       ])
