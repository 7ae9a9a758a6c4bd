let () =
  Alcotest.run "graphene"
    [ ("sim", Suite_sim.suite);
      ("guest", Suite_guest.suite);
      ("bpf", Suite_bpf.suite);
      ("host", Suite_host.suite);
      ("pal", Suite_pal.suite);
      ("liblinux", Suite_liblinux.suite);
      ("ipc", Suite_ipc.suite);
      ("sem", Suite_sem.suite);
      ("coord", Suite_coord.suite);
      ("faults", Suite_faults.suite);
      ("refmon", Suite_refmon.suite);
      ("checkpoint", Suite_checkpoint.suite);
      ("security", Suite_security.suite);
      ("apps", Suite_apps.suite);
      ("baseline", Suite_baseline.suite);
      ("world", Suite_world.suite);
      ("cache", Suite_cache.suite);
      ("obs", Suite_obs.suite);
      ("audit", Suite_audit.suite);
      ("contend", Suite_contend.suite);
      ("vuln", Suite_vuln.suite);
      ("ring", Suite_ring.suite);
      ("differential", Suite_differential.suite);
      ("posix", Suite_posix.suite) ]
