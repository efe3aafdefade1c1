let () =
  Alcotest.run "rmcast"
    [
      ("rng", Test_rng.suite);
      ("special", Test_special.suite);
      ("dist", Test_dist.suite);
      ("sampler", Test_sampler.suite);
      ("series+stats", Test_series_stats.suite);
      ("gf", Test_gf.suite);
      ("kernels", Test_kernels.suite);
      ("rse", Test_rse.suite);
      ("analysis", Test_analysis.suite);
      ("latency", Test_latency.suite);
      ("sim", Test_sim.suite);
      ("proto", Test_proto.suite);
      ("np+n2", Test_np.suite);
      ("wire", Test_wire.suite);
      ("obs", Test_obs.suite);
      ("udp", Test_udp.suite);
      ("transport", Test_transport.suite);
      ("datapath", Test_datapath.suite);
      ("machine", Test_machine.suite);
      ("replay", Test_replay.suite);
      ("tree+feedback", Test_tree.suite);
      ("extensions", Test_extensions.suite);
      ("invariants", Test_invariants.suite);
      ("cauchy", Test_cauchy.suite);
      ("codec", Test_codec.suite);
      ("transfer+planner", Test_transfer.suite);
      ("profile", Test_profile.suite);
      ("scheduler", Test_scheduler.suite);
      ("aggregate", Test_aggregate.suite);
      ("control", Test_control.suite);
      ("parallel", Test_parallel.suite);
      ("drive", Test_drive.suite);
    ]
