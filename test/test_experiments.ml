(* Smoke tests for the experiment registry: every experiment is findable,
   runs at tiny scale, and produces the right report shape. *)

let tiny =
  { Core.Experiments.default_params with Core.Experiments.scale = 0.03; cpus = 2 }

let test_registry_complete () =
  List.iter
    (fun id ->
      match Core.Experiments.find id with
      | Some _ -> ()
      | None -> Alcotest.failf "experiment %s missing" id)
    [ "fig3"; "costs"; "fig6"; "apps"; "ablations" ]

let test_fig_aliases () =
  List.iter
    (fun id ->
      match Core.Experiments.find id with
      | Some e ->
          Alcotest.(check string) (id ^ " aliases apps") "apps"
            e.Core.Experiments.id
      | None -> Alcotest.failf "alias %s missing" id)
    [ "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13" ];
  Alcotest.(check bool) "unknown id" true (Core.Experiments.find "fig99" = None)

let test_costs_report () =
  match Core.Experiments.run_costs tiny with
  | [ r ] ->
      Alcotest.(check string) "id" "costs" r.Metrics.Report.id;
      (* The calibrated ratios should be close to the paper's 4x / 14x. *)
      Alcotest.(check bool)
        ("verdict mentions ratios: " ^ r.Metrics.Report.verdict)
        true
        (String.length r.Metrics.Report.verdict > 0)
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_microbench_pair_shape () =
  let slub, prud = Core.Experiments.microbench_pair tiny ~obj_size:512 in
  Alcotest.(check string) "baseline label" "slub" slub.Workloads.Microbench.label;
  Alcotest.(check string) "prudence label" "prudence"
    prud.Workloads.Microbench.label;
  Alcotest.(check int) "same pairs" slub.Workloads.Microbench.pairs
    prud.Workloads.Microbench.pairs;
  Alcotest.(check bool) "prudence at least as fast at 512B" true
    (prud.Workloads.Microbench.pairs_per_sec
    >= 0.9 *. slub.Workloads.Microbench.pairs_per_sec)

let test_endurance_pair_shape () =
  let p = { tiny with Core.Experiments.scale = 0.05 } in
  let slub, prud = Core.Experiments.endurance_pair p in
  Alcotest.(check bool) "baseline peak dwarfs prudence" true
    (slub.Workloads.Endurance.peak_used_mib
    > 3. *. prud.Workloads.Endurance.peak_used_mib);
  Alcotest.(check bool) "prudence never ooms" true
    (prud.Workloads.Endurance.oom_at_ns = None);
  Alcotest.(check int) "no violations" 0
    prud.Workloads.Endurance.safety_violations

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* At this scale SLUB survives too: each allocator's verdict clause must
   come from its own result, never "OOM at never". *)
let test_fig3_verdict_per_allocator () =
  let p = { tiny with Core.Experiments.scale = 0.05 } in
  let slub, prud = Core.Experiments.endurance_pair p in
  Alcotest.(check bool) "slub survives at this scale" true
    (slub.Workloads.Endurance.oom_at_ns = None);
  let verdict =
    match Core.Experiments.find "fig3" with
    | Some e -> (
        match e.Core.Experiments.run p with
        | [ r ] -> r.Metrics.Report.verdict
        | rs -> Alcotest.failf "expected one report, got %d" (List.length rs))
    | None -> Alcotest.fail "fig3 missing"
  in
  List.iter
    (fun (r : Workloads.Endurance.result) ->
      let clause =
        r.Workloads.Endurance.label
        ^
        match r.Workloads.Endurance.oom_at_ns with
        | None -> ": no OOM"
        | Some _ -> ": OOM at"
      in
      Alcotest.(check bool) (verdict ^ " has " ^ clause) true
        (contains ~sub:clause verdict))
    [ slub; prud ];
  Alcotest.(check bool) "no OOM at never" false
    (contains ~sub:"OOM at never" verdict)

let test_run_apps_report_ids () =
  let reports = Core.Experiments.run_apps tiny in
  let ids = List.map (fun r -> r.Metrics.Report.id) reports in
  Alcotest.(check (list string)) "figs 7-13 in order"
    [ "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13" ]
    ids

let test_app_results_benchmarks () =
  let apps = Core.Experiments.app_results tiny in
  let names = List.map (fun (n, _, _) -> n) apps in
  Alcotest.(check (list string)) "four benchmarks"
    [ "postmark"; "netperf"; "apache"; "postgresql" ]
    names;
  List.iter
    (fun (name, slub, prud) ->
      Alcotest.(check bool) (name ^ ": txns ran") true
        (slub.Workloads.Appmodel.txns > 0 && prud.Workloads.Appmodel.txns > 0);
      Alcotest.(check bool) (name ^ ": no oom") true
        ((not slub.Workloads.Appmodel.oom) && not prud.Workloads.Appmodel.oom))
    apps

(* Each Figs. 7-11 pair is classified from its numbers: 0 -> 0 is
   unchanged and a rise from 0 is worse, never "reduced". *)
let test_classify_pairs () =
  let module E = Core.Experiments in
  let name = function
    | E.Better -> "better"
    | E.Unchanged -> "unchanged"
    | E.Worse -> "worse"
    | E.No_data -> "no data"
  in
  List.iter
    (fun (higher_better, slub, prud, want) ->
      Alcotest.(check string)
        (Printf.sprintf "%g -> %g (higher better: %b)" slub prud higher_better)
        (name want)
        (name (E.classify ~higher_better slub prud)))
    [
      (false, 0., 0., E.Unchanged);
      (false, 0., 3., E.Worse);
      (false, 5., 0., E.Better);
      (false, 5., 5., E.Unchanged);
      (false, nan, 1.2, E.No_data);
      (false, 1.2, nan, E.No_data);
      (true, 91.7, 92.6, E.Better);
      (true, 92.6, 91.7, E.Worse);
      (true, 100., 100., E.Unchanged);
    ]

let suite =
  [
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "fig aliases" `Quick test_fig_aliases;
    Alcotest.test_case "costs report" `Quick test_costs_report;
    Alcotest.test_case "microbench pair shape" `Slow test_microbench_pair_shape;
    Alcotest.test_case "endurance pair shape" `Slow test_endurance_pair_shape;
    Alcotest.test_case "fig3 verdict per allocator" `Slow
      test_fig3_verdict_per_allocator;
    Alcotest.test_case "run_apps report ids" `Slow test_run_apps_report_ids;
    Alcotest.test_case "app_results benchmarks" `Slow test_app_results_benchmarks;
    Alcotest.test_case "classify per-cache pairs" `Quick test_classify_pairs;
  ]
