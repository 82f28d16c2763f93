let () =
  Alcotest.run "osharpe"
    [ ("numerics", Test_numerics.suite);
      ("assembly", Test_assembly.suite);
      ("diagnostics", Test_diag.suite);
      ("expo", Test_expo.suite);
      ("bdd", Test_bdd.suite);
      ("markov", Test_markov.suite);
      ("semimark+mrgp", Test_semimark.suite);
      ("combinatorial", Test_combinatorial.suite);
      ("pfqn", Test_pfqn.suite);
      ("petri", Test_petri.suite);
      ("lang", Test_lang.suite);
      ("pepa", Test_pepa.suite);
      ("more", Test_more.suite);
      ("expo-properties", Test_expo_prop.suite);
      ("krylov", Test_krylov.suite);
      ("sweep-engine", Test_sweep.suite);
      ("uniformization", Test_uniformization.suite);
      ("differential", Test_differential.suite);
      ("server", Test_server.suite);
      ("journal", Test_journal.suite);
      ("golden", Test_golden.suite);
      ("roundtrip", Test_roundtrip.suite) ]
