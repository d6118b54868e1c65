(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (one section per artifact), then runs Bechamel real-time
   microbenchmarks of the allocator hot paths.

   Scale via environment:
     BENCH_SCALE=0.3  -- workload scale factor (default 1.0)
     BENCH_CPUS=8     -- simulated CPUs
     BENCH_SEED=42
     BENCH_RUNS=1     -- repetitions for mean +/- stdev
     BENCH_SKIP_BECHAMEL=1 -- skip the real-time section
     BENCH_SKIP_TRACE=1 -- skip the traced lifetime-histogram section
     BENCH_OUT=path   -- machine-readable results file (default
                         BENCH_seed.json); virtual-time metrics only, so
                         the file is deterministic in (seed, scale, cpus,
                         runs) and CI can diff it against a committed
                         baseline with `prudence-repro regress` *)

let getenv_f name default =
  match Sys.getenv_opt name with Some v -> float_of_string v | None -> default

let getenv_i name default =
  match Sys.getenv_opt name with Some v -> int_of_string v | None -> default

let params =
  {
    Core.Experiments.scale = getenv_f "BENCH_SCALE" 1.0;
    seed = getenv_i "BENCH_SEED" 42;
    cpus = getenv_i "BENCH_CPUS" 8;
    runs = getenv_i "BENCH_RUNS" 1;
    trace = None;
  }

(* Every section's reports accumulate here; their attached metrics become
   the machine-readable BENCH_seed.json at the end of the run. *)
let all_reports : Core.Metrics.Report.t list ref = ref []

let section id =
  match Core.Experiments.find id with
  | None -> Format.printf "unknown experiment %s@." id
  | Some e ->
      let t0 = Unix.gettimeofday () in
      let reports = e.Core.Experiments.run params in
      all_reports := !all_reports @ reports;
      Core.Metrics.Report.print_all Format.std_formatter reports;
      Format.printf "(section %s took %.1fs of real time)@.@." id
        (Unix.gettimeofday () -. t0)

let write_bench_json () =
  let module B = Core.Stats.Bench_json in
  let out = Option.value (Sys.getenv_opt "BENCH_OUT") ~default:"BENCH_seed.json" in
  let doc =
    B.make
      ~config:
        {
          B.seed = params.Core.Experiments.seed;
          scale = params.Core.Experiments.scale;
          cpus = params.Core.Experiments.cpus;
          runs = params.Core.Experiments.runs;
        }
      ~metrics:(Core.Metrics.Report.all_metrics !all_reports)
  in
  B.write_file out doc;
  Format.printf "wrote %s (%d metrics)@." out (List.length doc.B.metrics)

(* ------------------------------------------------------------------ *)
(* Traced rerun: defer->reuse lifetime histograms, SLUB vs Prudence.   *)
(* ------------------------------------------------------------------ *)

let trace_section () =
  Format.printf
    "==============================================================================@.";
  Format.printf
    "[TRACE] Deferred-object lifetime (defer -> reuse), fig6 microbenchmark@.";
  Format.printf
    "==============================================================================@.";
  let t0 = Unix.gettimeofday () in
  match Core.Experiments.run_traced params "fig6" with
  | None -> assert false
  | Some envs ->
      let module Env = Workloads.Env in
      List.iter
        (fun env ->
          let label = Env.kind_label env.Env.cfg.Env.kind in
          Format.printf "%s@."
            (Core.Metrics.Histview.render
               ~title:(label ^ " defer->reuse lifetime")
               (Core.Obs.Anatomy.total_hist (Env.anatomy env))))
        envs;
      Format.printf "(section trace took %.1fs of real time)@.@."
        (Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Bechamel: real (wall-clock) cost of the allocator hot paths.        *)
(* ------------------------------------------------------------------ *)

let make_slub_pair () =
  let env =
    Workloads.Env.build
      { Workloads.Env.default_config with Workloads.Env.cpus = 1 }
  in
  let cache =
    env.Workloads.Env.backend.Slab.Backend.create_cache ~name:"bench"
      ~obj_size:512
  in
  let cpu = Workloads.Env.cpu env 0 in
  let backend = env.Workloads.Env.backend in
  fun () ->
    match backend.Slab.Backend.alloc cache cpu with
    | Some obj -> backend.Slab.Backend.free cache cpu obj
    | None -> failwith "oom"

let make_prudence_pair () =
  let env =
    Workloads.Env.build
      {
        Workloads.Env.default_config with
        Workloads.Env.cpus = 1;
        kind = Workloads.Env.Prudence_alloc;
      }
  in
  let cache =
    env.Workloads.Env.backend.Slab.Backend.create_cache ~name:"bench"
      ~obj_size:512
  in
  let cpu = Workloads.Env.cpu env 0 in
  let backend = env.Workloads.Env.backend in
  fun () ->
    match backend.Slab.Backend.alloc cache cpu with
    | Some obj -> backend.Slab.Backend.free cache cpu obj
    | None -> failwith "oom"

let make_engine_event () =
  let eng = Sim.Engine.create () in
  fun () ->
    ignore (Sim.Engine.schedule eng ~after:1 (fun () -> ()));
    ignore (Sim.Engine.step eng)

let make_rng () =
  let rng = Sim.Rng.create ~seed:7 in
  fun () -> ignore (Sim.Rng.int rng 1024)

let make_heap_churn () =
  let h = Sim.Heap.create ~cmp:compare () in
  let rng = Sim.Rng.create ~seed:9 in
  for _ = 1 to 256 do
    Sim.Heap.push h (Sim.Rng.int rng 100000)
  done;
  fun () ->
    Sim.Heap.push h (Sim.Rng.int rng 100000);
    ignore (Sim.Heap.pop h)

let bechamel_section () =
  let open Bechamel in
  let open Toolkit in
  let tests =
    Test.make_grouped ~name:"hot-paths"
      [
        Test.make ~name:"slub alloc/free pair (real time)"
          (Staged.stage (make_slub_pair ()));
        Test.make ~name:"prudence alloc/free pair (real time)"
          (Staged.stage (make_prudence_pair ()));
        Test.make ~name:"engine schedule+dispatch"
          (Staged.stage (make_engine_event ()));
        Test.make ~name:"rng draw" (Staged.stage (make_rng ()));
        Test.make ~name:"event-heap push+pop (256 live)"
          (Staged.stage (make_heap_churn ()));
      ]
  in
  Format.printf
    "==============================================================================@.";
  Format.printf "[BECHAMEL] Real-time cost of simulator hot paths@.";
  Format.printf
    "==============================================================================@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun label result_tbl ->
      if label = Measure.label Instance.monotonic_clock then
        Hashtbl.iter
          (fun name result ->
            match Analyze.OLS.estimates result with
            | Some [ est ] -> Format.printf "  %-50s %8.1f ns/run@." name est
            | _ -> Format.printf "  %-50s (no estimate)@." name)
          result_tbl)
    results

let () =
  Format.printf
    "Prudence reproduction benchmark harness (scale=%.2f cpus=%d seed=%d \
     runs=%d)@.@."
    params.Core.Experiments.scale params.Core.Experiments.cpus
    params.Core.Experiments.seed params.Core.Experiments.runs;
  List.iter
    (fun (e : Core.Experiments.experiment) -> section e.Core.Experiments.id)
    Core.Experiments.all;
  if Sys.getenv_opt "BENCH_SKIP_TRACE" = None then trace_section ();
  if Sys.getenv_opt "BENCH_SKIP_BECHAMEL" = None then bechamel_section ();
  write_bench_json ();
  Format.printf "@.done.@."
