(* The perf harness's gating fields must be pure functions of the
   pinned configuration: two in-process runs of the same scenario have
   to produce identical deterministic counters (the [Exact] metrics
   committed as bench/BENCH_wallclock.json and gated in CI). Wall-clock
   readings are machine noise and deliberately not compared. *)

let counters (m : Wallclock.measurement) = m.Wallclock.c

let test_deterministic_fields () =
  let p =
    {
      Core.Experiments.default_params with
      Core.Experiments.scale = 0.01;
      cpus = 2;
    }
  in
  let run () = Wallclock.run_all ~scenarios:[ Wallclock.Endurance ] p in
  let ms1 = run () and ms2 = run () in
  Alcotest.(check int) "both allocators measured" 2 (List.length ms1);
  List.iter2
    (fun m1 m2 ->
      Alcotest.(check string)
        "same allocator order" m1.Wallclock.alloc_label
        m2.Wallclock.alloc_label;
      Alcotest.(check bool)
        (Printf.sprintf "deterministic counters identical (%s)"
           m1.Wallclock.alloc_label)
        true
        (counters m1 = counters m2))
    ms1 ms2

let test_exact_metrics_are_gated () =
  (* Every deterministic counter must be exported with the Exact
     direction and zero tolerance, so the CI regress gate refuses any
     drift; allocs-per-event gates direction-aware (Lower_better with
     slack); wall readings must stay Info (never gate). *)
  let p =
    {
      Core.Experiments.default_params with
      Core.Experiments.scale = 0.01;
      cpus = 2;
    }
  in
  let ms = Wallclock.run_all ~scenarios:[ Wallclock.Endurance ] p in
  let metrics = Wallclock.metrics ms in
  let exact, rest =
    List.partition
      (fun m -> m.Metrics.Report.direction = Metrics.Report.Exact)
      metrics
  in
  let lower, info =
    List.partition
      (fun m -> m.Metrics.Report.direction = Metrics.Report.Lower_better)
      rest
  in
  Alcotest.(check int) "7 exact counters per measurement" 14
    (List.length exact);
  List.iter
    (fun m ->
      Alcotest.(check (option (float 0.)))
        ("zero tolerance: " ^ m.Metrics.Report.name)
        (Some 0.) m.Metrics.Report.tolerance_pct)
    exact;
  Alcotest.(check int) "one Lower_better gate per measurement" 2
    (List.length lower);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        ("allocs_per_event gates with slack: " ^ m.Metrics.Report.name)
        true
        (String.ends_with ~suffix:".allocs_per_event" m.Metrics.Report.name
        && m.Metrics.Report.tolerance_pct
           = Some Wallclock.allocs_per_event_tolerance_pct))
    lower;
  List.iter
    (fun m ->
      Alcotest.(check bool)
        ("wall reading is Info: " ^ m.Metrics.Report.name)
        true
        (m.Metrics.Report.direction = Metrics.Report.Info))
    info

let test_alloc_drift_gates () =
  (* An injected allocation regression past tolerance must classify as
     Regressed (fails CI); the same drift downward must be Improved. *)
  let module B = Stats.Bench_json in
  let cfg = { B.seed = 42; scale = 0.05; cpus = 8; runs = 1 } in
  let apev v =
    Metrics.Report.metric ~direction:Metrics.Report.Lower_better
      ~tolerance_pct:Wallclock.allocs_per_event_tolerance_pct
      "wallclock.endurance.prudence.allocs_per_event" v
  in
  let baseline = B.make ~config:cfg ~metrics:[ apev 100. ] in
  let gate current =
    match
      B.compare_runs ~baseline
        ~current:(B.make ~config:cfg ~metrics:[ apev current ])
        ()
    with
    | [ d ] -> d.B.status
    | ds -> Alcotest.failf "expected one drift, got %d" (List.length ds)
  in
  Alcotest.(check string) "within slack" "within"
    (B.status_name (gate 110.));
  Alcotest.(check string) "injected +30% alloc drift fails" "regressed"
    (B.status_name (gate 130.));
  Alcotest.(check string) "-30% improves, never fails" "improved"
    (B.status_name (gate 70.))

let suite =
  [
    Alcotest.test_case "perf counters are replay-stable" `Quick
      test_deterministic_fields;
    Alcotest.test_case "perf exports gate exact, wall as info" `Quick
      test_exact_metrics_are_gated;
    Alcotest.test_case "allocs-per-event drift gates direction-aware" `Quick
      test_alloc_drift_gates;
  ]
