(* prudence-repro: command-line driver for the paper reproduction. *)

module Env = Core.Workloads.Env
module Sweep = Core.Check.Sweep
module Fuzz = Core.Check.Fuzz
module Diff = Core.Check.Differential
module J = Core.Metrics.Json
module B = Core.Stats.Bench_json

(* Every validation failure prints one line on stderr and exits 2. *)
let die fmt =
  Format.kfprintf (fun _ -> exit 2) Format.err_formatter (fmt ^^ "@.")

let require_positive ?(unit = "") flag v =
  if v <= 0 then die "%s must be positive (got %d%s)" flag v unit

let print_json v = print_endline (J.to_string v)

let write_file file body =
  Out_channel.with_open_text file (fun oc -> output_string oc body)

(* Output files are written after the run, so their directory is checked
   before it starts. *)
let require_dir flag file =
  let dir = Filename.dirname file in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    die "%s %s: directory %s does not exist" flag file dir;
  if Sys.file_exists file && Sys.is_directory file then
    die "%s %s: is a directory" flag file

let list_experiments () =
  Format.printf "experiments:@.";
  List.iter
    (fun (e : Core.Experiments.experiment) ->
      Format.printf "  %-12s %-14s %s@." e.Core.Experiments.id
        e.Core.Experiments.paper_ref e.Core.Experiments.title)
    Core.Experiments.all;
  Format.printf
    "  %-12s %-14s aliases: run the apps experiment@." "fig7..fig13"
    "Figs. 7-13";
  0

let params scale seed cpus runs =
  require_positive "--cpus" cpus;
  require_positive "--runs" runs;
  { Core.Experiments.scale; seed; cpus; runs; trace = None }

let run_experiment ids out (p : Core.Experiments.params) =
  Option.iter (require_dir "--output") out;
  let experiments =
    match ids with
    | [] | [ "all" ] -> Core.Experiments.all
    | ids ->
        List.map
          (fun id ->
            match Core.Experiments.find id with
            | Some e -> e
            | None -> die "unknown experiment %S (try `list`)" id)
          ids
  in
  (* Dedupe (fig7..fig13 all alias apps). *)
  let seen = Hashtbl.create 8 in
  let reports =
    List.concat_map
      (fun (e : Core.Experiments.experiment) ->
        if Hashtbl.mem seen e.id then []
        else begin
          Hashtbl.add seen e.id ();
          Format.printf "running %s (%s)...@.@." e.id e.paper_ref;
          let reports = e.run p in
          Core.Metrics.Report.print_all Format.std_formatter reports;
          reports
        end)
      experiments
  in
  Option.iter
    (fun file ->
      let doc =
        B.make
          ~config:
            { B.seed = p.seed; scale = p.scale; cpus = p.cpus; runs = p.runs }
          ~metrics:(Core.Metrics.Report.all_metrics reports)
      in
      B.write_file file doc;
      Format.printf "wrote %s (%d metrics)@." file (List.length doc.B.metrics))
    out;
  0

let trace_experiment id out want_hists ring p =
  let out =
    match out with Some f -> f | None -> Printf.sprintf "trace-%s.json" id
  in
  require_dir "--output" out;
  let p = { p with Core.Experiments.trace = Some ring } in
  match Core.Experiments.run_traced p id with
  | None ->
      die "experiment %S cannot be traced; traceable: %s" id
        (String.concat ", " Core.Experiments.traceable)
  | Some envs ->
      let module Env = Core.Workloads.Env in
      let label env = Env.kind_label env.Env.cfg.Env.kind in
      let lifetime env = Core.Obs.Anatomy.total_hist (Env.anatomy env) in
      Core.Trace.Chrome.write_file out
        (List.map (fun env -> (label env, env.Env.tracer)) envs);
      List.iter
        (fun env ->
          let label = label env and tr = env.Env.tracer in
          Format.printf "== %s: %d events retained (%d dropped)@." label
            (Core.Trace.total_events tr)
            (Core.Trace.total_dropped tr);
          let hist title h =
            Format.printf "%s@."
              (Core.Metrics.Histview.render ~title:(label ^ " " ^ title) h)
          in
          hist "defer->reuse lifetime" (lifetime env);
          if want_hists then begin
            hist "grace-period latency" (Core.Trace.gp_latency tr);
            hist "node-lock wait" (Core.Trace.lock_wait tr);
            hist "allocation-path cost" (Core.Trace.alloc_cost tr)
          end)
        envs;
      (let p50 env = Core.Trace.Hist.percentile (lifetime env) 50. in
       match envs with
       | [ slub; prud ] when p50 slub > 0 ->
           Format.printf
             "median defer->reuse lifetime: %s (slub) vs %s (prudence), %.1fx@."
             (Core.Metrics.Histview.fmt_ns (p50 slub))
             (Core.Metrics.Histview.fmt_ns (p50 prud))
             (float_of_int (p50 slub) /. float_of_int (max 1 (p50 prud)))
       | _ -> ());
      Format.printf "wrote %s (load it at https://ui.perfetto.dev or \
                     chrome://tracing)@." out;
      0

(* One name out of the closed set [all]; [suffix] extends the list of
   valid names printed on failure. *)
let lookup ~what ~of_string ~name ~all ?(suffix = "") n =
  match of_string n with
  | Some s -> s
  | None ->
      die "unknown %s %S; scenarios: %s%s" what n
        (String.concat ", " (List.map name all))
        suffix

(* Scenario positionals: none or 'all' selects every scenario. *)
let parse_names ~what ~of_string ~name ~all = function
  | [] | [ "all" ] -> all
  | names -> List.map (lookup ~what ~of_string ~name ~all ~suffix:", all") names

let chaos_lookup =
  Core.Workloads.Chaos.(
    lookup ~what:"scenario" ~of_string:scenario_of_string ~name:scenario_name
      ~all:all_scenarios)

let parse_scenarios =
  Core.Workloads.Chaos.(
    parse_names ~what:"scenario" ~of_string:scenario_of_string
      ~name:scenario_name ~all:all_scenarios)

let parse_perf_scenarios =
  Wallclock.(
    parse_names ~what:"perf scenario" ~of_string:scenario_of_string
      ~name:scenario_name ~all:all_scenarios)

(* [both] is what "both" selects: slub+prudence, except where a command
   compares every scheme anyway. *)
let parse_kinds ?(both = [ Env.Baseline; Env.Prudence_alloc ]) alloc =
  match alloc with
  | "both" -> both
  | "all" -> Env.all_kinds
  | s -> (
      match Env.kind_of_string s with
      | Some k -> [ k ]
      | None ->
          die "unknown allocator %S (slub, prudence, ebr-debra, hyaline, both, \
               all)" s)

let chaos_params ring p =
  {
    Core.Chaos.seed = p.Core.Experiments.seed;
    cpus = p.Core.Experiments.cpus;
    scale = p.Core.Experiments.scale;
    ring;
  }

let run_chaos scenarios alloc ring bundle_dir p =
  let kinds = parse_kinds alloc in
  Core.Metrics.Report.print Format.std_formatter
    (Core.Chaos.report ~kinds ?bundle_dir (chaos_params ring p) scenarios);
  0

let run_anatomy name alloc ring json p =
  let scenario = chaos_lookup name in
  let kinds = parse_kinds ~both:Env.all_kinds alloc in
  let outcomes =
    Core.Chaos.run ~obs:true ~kinds (chaos_params ring p) [ scenario ]
  in
  if json then print_string (Core.Chaos.anatomy_ndjson scenario outcomes)
  else
    Core.Metrics.Report.print Format.std_formatter
      (Core.Chaos.anatomy_report scenario outcomes);
  if Core.Chaos.anatomy_ok outcomes then 0 else 1

let run_postmortem file =
  let read () = In_channel.with_open_bin file In_channel.input_all in
  match Core.Obs.Bundle.render (read ()) with
  | exception Sys_error e -> die "postmortem: %s" e
  | Ok text ->
      print_string text;
      0
  | Error e -> die "postmortem: %s" e

let run_tournament scenarios alloc ring out p =
  let module T = Core.Tournament in
  let kinds = parse_kinds ~both:Env.all_kinds alloc in
  Option.iter (require_dir "--output") out;
  let outcomes =
    Core.Chaos.run ~obs:true ~kinds (chaos_params ring p) scenarios
  in
  Core.Metrics.Report.print Format.std_formatter (T.report kinds outcomes);
  (match out with
  | None -> ()
  | Some file ->
      write_file file (T.to_ndjson kinds outcomes);
      Format.printf "wrote %s (%d scheme rows + summary)@." file
        (List.length outcomes));
  if Core.Chaos.safety_violations outcomes = 0 then 0 else 1

let run_stat alloc duration_ms sample_every capacity watch series format
    registry_table pages scale seed cpus =
  let module Live = Core.Stats.Live in
  let module Providers = Core.Stats.Providers in
  require_positive "--cpus" cpus;
  require_positive "--duration-ms" duration_ms;
  require_positive "--sample-every" sample_every ~unit:" ns";
  require_positive "--capacity" capacity;
  require_positive "--pages" pages;
  let ext =
    match format with
    | "csv" | "ndjson" -> format
    | s -> die "unknown series format %S (csv, ndjson)" s
  in
  let kinds = parse_kinds alloc in
  Option.iter (require_dir "--series") series;
  let series_file label =
    match series with
    | None -> None
    | Some base ->
        if List.length kinds = 1 then Some base
        else
          (* Both allocators share one --series flag: suffix the label. *)
          Some
            (match Filename.chop_suffix_opt ~suffix:("." ^ ext) base with
            | Some stem -> Printf.sprintf "%s-%s.%s" stem label ext
            | None -> Printf.sprintf "%s-%s" base label)
  in
  List.iter
    (fun kind ->
      let cfg =
        {
          Live.kind;
          seed;
          cpus;
          scale;
          duration_ns = duration_ms * 1_000_000;
          sample_every_ns = sample_every;
          capacity;
          total_pages = pages;
        }
      in
      let on_watch =
        if not watch then None
        else
          Some
            (fun ~time_ns ~snapshot ->
              Format.printf "---- %s @ %.1f ms (virtual) ----@.%s@."
                (Env.kind_label kind)
                (float_of_int time_ns /. 1e6)
                snapshot)
      in
      let r = Live.run ?on_watch cfg in
      Format.printf "==== %s: final state after %.0f ms virtual ====@."
        r.Live.label
        (float_of_int (duration_ms * 1_000_000) *. scale /. 1e6);
      Format.printf "%s@." (Providers.snapshot ~watch:r.Live.watch r.Live.env);
      if registry_table then
        Format.printf "%s@." (Core.Stats.Registry.table r.Live.registry);
      Format.printf "workload: %d list updates%s@." r.Live.updates
        (match r.Live.oom_at_ns with
        | None -> ""
        | Some t -> Printf.sprintf "; OOM at %.1f ms" (float_of_int t /. 1e6));
      (match series_file r.Live.label with
      | None -> ()
      | Some file ->
          write_file file
            (match ext with
            | "csv" -> Core.Sim.Sampler.to_csv r.Live.sampler
            | _ -> Core.Sim.Sampler.to_ndjson r.Live.sampler);
          Format.printf "wrote %s (%d samples, %d dropped)@." file
            (Core.Sim.Sampler.rows r.Live.sampler)
            (Core.Sim.Sampler.dropped r.Live.sampler));
      Format.printf "@.")
    kinds;
  0

let run_regress baseline_file current_file tolerance json =
  if tolerance < 0. then
    die "--tolerance-pct must be non-negative (got %g)" tolerance;
  (* With --json, every exit path still emits the one summary NDJSON
     line automation keys on — a missing baseline or config mismatch
     reports as an error summary, not silent stderr. *)
  let fail_with ~code msg =
    Format.eprintf "%s@." msg;
    if json then print_json (B.summary_to_json ~error:msg []);
    code
  in
  let load what file k =
    match B.load_file file with
    | Ok t -> k t
    | Error e ->
        fail_with ~code:2 (Printf.sprintf "cannot load %s %s: %s" what file e)
  in
  load "baseline" baseline_file @@ fun baseline ->
  load "current" current_file @@ fun current ->
  match B.config_mismatch ~baseline ~current with
  | Some msg -> fail_with ~code:1 msg
  | None ->
      let drifts =
        B.compare_runs ~default_tolerance_pct:tolerance ~baseline ~current ()
      in
      let failed = B.failures drifts in
      if json then begin
        List.iter (fun d -> print_json (B.drift_to_json d)) drifts;
        print_json (B.summary_to_json drifts)
      end
      else Format.printf "%a" B.pp_drifts drifts;
      if failed = [] then 0
      else begin
        Format.eprintf "regression gate FAILED: %d metric(s) regressed or \
                        missing@."
          (List.length failed);
        1
      end

let run_perf scenarios out p =
  let module Wc = Wallclock in
  require_dir "--output" out;
  let ms = Wc.run_all ~scenarios p in
  Format.printf "%s@." (Wc.table ms);
  B.write_file out (Wc.to_bench p ms);
  Format.printf
    "wrote %s (deterministic counters gate via `regress --tolerance-pct 0`; \
     wall timings are info-only)@."
    out;
  0

let run_prof scenarios top by folded json p =
  let module Pr = Profrun in
  if top < 0 then die "--top must be non-negative (got %d)" top;
  let by =
    match Pr.sort_key_of_string by with
    | Some k -> k
    | None -> die "unknown sort key %S (time, alloc)" by
  in
  Option.iter (require_dir "--folded") folded;
  let rs = Pr.run_all ~scenarios p in
  if json then print_string (Pr.to_ndjson rs)
  else
    List.iter
      (fun r ->
        let top = if top = 0 then None else Some top in
        Format.printf "%s@." (Pr.render ?top ~by r))
      rs;
  (match folded with
  | None -> ()
  | Some file ->
      write_file file (String.concat "" (List.map (Pr.folded ~by) rs));
      if not json then
        Format.printf
          "wrote %s (folded call paths; feed to flamegraph.pl or \
           speedscope)@."
          file);
  0

let parse_mutation mutate =
  match Sweep.mutation_of_string mutate with
  | Some m -> m
  | None ->
      die "unknown mutation %S (none, %s)" mutate
        (String.concat ", " (List.map Sweep.mutation_name Sweep.all_mutations))

let parse_oracles disabled =
  List.fold_left
    (fun (o : Sweep.oracles) name ->
      match name with
      | "page-reuse" -> { o with Sweep.page_reuse = false }
      | "early-reuse" -> { o with Sweep.early_reuse = false }
      | "missed-qs" -> { o with Sweep.missed_qs = false }
      | "cb-conservation" -> { o with Sweep.cb_conservation = false }
      | _ ->
          die "unknown oracle %S (page-reuse, early-reuse, missed-qs, \
               cb-conservation)" name)
    Sweep.all_oracles disabled

let parse_plan = function
  | None -> None
  | Some s -> (
      match Core.Faults.Plan.of_compact s with
      | Ok p -> Some p
      | Error e -> die "bad --plan: %s" e)

(* The sweep config that check and fuzz start from, validated together
   with the command's own run count ([count_flag]: --sweeps or
   --budget). One schedule per case and no bundles: fuzz campaign cases
   never dump them (only its final witness does), and check sets its
   own [sweeps] and [bundle_dir]. *)
let sweep_config count_flag count scenarios alloc mutate shuffle_seed
    duration_ms pages disabled plan seed cpus =
  if count <= 0 || duration_ms <= 0 || pages <= 0 || cpus <= 0 then
    die "%s, --duration-ms, --pages and --cpus must be positive" count_flag;
  let kinds = parse_kinds alloc in
  let mutation = parse_mutation mutate in
  ( count,
    {
      Sweep.scenarios;
      kinds;
      sweeps = 1;
      base_shuffle_seed = shuffle_seed;
      seed;
      cpus;
      duration_ns = duration_ms * 1_000_000;
      total_pages = pages;
      mutation;
      oracles = parse_oracles disabled;
      plan = parse_plan plan;
      bundle_dir = None;
    } )

let run_check (sweeps, cfg) skip_diff bundle_dir json =
  let cfg = { cfg with Sweep.sweeps; bundle_dir } in
  let shuffle_seed = cfg.Sweep.base_shuffle_seed and seed = cfg.Sweep.seed in
  if not json then
    Format.printf
      "sweeping %d scenario(s) x %d allocator(s) x %d shuffled schedule(s) \
       (shuffle seeds %d..%d, workload seed %d)...@."
      (List.length cfg.Sweep.scenarios)
      (List.length cfg.Sweep.kinds)
      sweeps shuffle_seed
      (shuffle_seed + sweeps - 1)
      seed;
  (* Each (scenario, allocator) group starts at the first shuffle seed. *)
  let progress (case : Sweep.case) =
    if (not json) && case.Sweep.shuffle_seed = shuffle_seed then
      Format.printf "  %s/%s@."
        (Core.Workloads.Chaos.scenario_name case.Sweep.scenario)
        (Env.kind_label case.Sweep.kind)
  in
  let verdicts = Sweep.run ~progress cfg in
  let failed_cases = List.filter (fun v -> not (Sweep.ok v)) verdicts in
  if json then List.iter (fun v -> print_json (Sweep.verdict_json v)) verdicts
  else Format.printf "@.%a@." Sweep.summary verdicts;
  let diff_failed =
    if skip_diff then false
    else begin
      let r = Diff.run ~seed (Diff.gen ~seed ()) in
      if json then print_json (Diff.to_json r)
      else Format.printf "%a@." Diff.pp_result r;
      not r.Diff.ok
    end
  in
  let failed = failed_cases <> [] || diff_failed in
  if json then
    print_json
      (J.Obj
         [
           ("type", J.Str "summary");
           ("cases", J.Int (List.length verdicts));
           ("failed_cases", J.Int (List.length failed_cases));
           ("differential", J.Bool (not skip_diff));
           ("ok", J.Bool (not failed));
         ]);
  if failed then 1 else 0

(* Differential mode always replays every backend: a comparison needs
   at least two, so a single --alloc kind is rejected, not run. *)
let run_fuzz_differential fcfg json =
  (match fcfg.Fuzz.base.Sweep.kinds with
  | [ k ] ->
      die "fuzz --differential compares backends; --alloc=%s selects only one"
        (Env.kind_label k)
  | _ -> ());
  let kinds = Env.all_kinds in
  if not json then
    Format.printf
      "differential fuzzing: budget %d, fuzz seed %d, %d backend(s) (%s)...@."
      fcfg.Fuzz.budget fcfg.Fuzz.seed (List.length kinds)
      (String.concat ", " (List.map Env.kind_label kinds));
  let progress (r : Fuzz.diff_record) =
    if json then print_json (Fuzz.diff_record_json r)
    else if not r.Fuzz.result.Diff.ok then
      Format.printf "  #%-4d trace seed %d (%d ops, %d slots) DIVERGED@."
        r.Fuzz.d_exec r.Fuzz.trace_seed r.Fuzz.n_ops r.Fuzz.n_slots
  in
  let dr = Fuzz.run_differential ~progress ~kinds fcfg in
  if json then print_json (Fuzz.diff_summary_json fcfg ~kinds dr)
  else begin
    Format.printf "@.%d differential case(s) executed across %d backend(s)@."
      dr.Fuzz.diff_executed (List.length kinds);
    match dr.Fuzz.diff_failure with
    | None -> Format.printf "no divergence, every verdict clean.@."
    | Some r ->
        Format.printf "divergence at execution %d:@.%a@." r.Fuzz.d_exec
          Diff.pp_result r.Fuzz.result
  end;
  if dr.Fuzz.diff_failure = None then 0 else 1

let run_fuzz (budget, base) fuzz_seed no_minimize differential bundle_dir json
    =
  let module Minimize = Core.Check.Minimize in
  let fcfg = { Fuzz.base; budget; seed = fuzz_seed } in
  if differential then run_fuzz_differential fcfg json
  else begin
  if not json then
    Format.printf
      "fuzzing: budget %d, fuzz seed %d, workload seed %d, %d scenario(s) x \
       %d allocator(s)...@."
      budget fuzz_seed base.Sweep.seed
      (List.length base.Sweep.scenarios)
      (List.length base.Sweep.kinds);
  let progress (r : Fuzz.record) =
    if json then print_json (Fuzz.record_json r)
    else if r.Fuzz.new_features > 0 || not (Sweep.ok r.Fuzz.verdict) then
      Format.printf "  #%-4d %-8s %-16s/%-9s %s%s@." r.Fuzz.exec
        (Fuzz.origin_name r.Fuzz.origin)
        (Core.Workloads.Chaos.scenario_name r.Fuzz.case.Sweep.scenario)
        (Env.kind_label r.Fuzz.case.Sweep.kind)
        (if Sweep.ok r.Fuzz.verdict then
           Printf.sprintf "+%d features (%d total, corpus %d)"
             r.Fuzz.new_features r.Fuzz.total_features r.Fuzz.corpus_size
         else "FAIL")
        (if Sweep.ok r.Fuzz.verdict then "" else " <-- oracle fired")
  in
  let result = Fuzz.run ~progress fcfg in
  if not json then
    Format.printf
      "@.%d case(s) executed, %d coverage feature(s), corpus %d@."
      result.Fuzz.executed result.Fuzz.total_features
      (List.length result.Fuzz.corpus);
  match result.Fuzz.failure with
  | None ->
      if json then print_json (Fuzz.summary_json fcfg result ~witness:None)
      else Format.printf "no oracle fired within the budget.@.";
      0
  | Some f ->
      if not json then
        Format.printf "@.failure at execution %d:@.%a@." f.Fuzz.exec
          Sweep.pp_verdict f.Fuzz.verdict;
      let minimized =
        if no_minimize then None
        else begin
          if not json then Format.printf "@.minimizing witness...@.";
          let progress (s : Minimize.step) =
            if json then print_json (Minimize.step_json s)
            else if s.Minimize.kept then
              Format.printf "  %s %s: still fails, kept@." s.Minimize.action
                s.Minimize.candidate
          in
          match Minimize.run ?bundle_dir ~progress f.Fuzz.cfg f.Fuzz.case with
          | m -> Some m
          | exception Minimize.Not_a_witness ->
              if not json then
                Format.printf "minimizer: case no longer fails (flaky?)@.";
              None
        end
      in
      (* The reported witness: the minimizer's confirmation run, which
         wrote the bundle; otherwise the failure itself, re-run with the
         bundle dump armed when a bundle is wanted. *)
      let witness =
        match minimized with
        | Some m -> m.Minimize.verdict
        | None when bundle_dir = None -> f.Fuzz.verdict
        | None ->
            Sweep.run_case { f.Fuzz.cfg with Sweep.bundle_dir } f.Fuzz.case
      in
      if json then begin
        Option.iter (fun m -> print_json (Minimize.to_json m)) minimized;
        print_json (Fuzz.summary_json fcfg result ~witness:(Some witness))
      end
      else begin
        Option.iter
          (fun (m : Minimize.result) ->
            Format.printf
              "@.minimal witness after %d shrink run(s): %d ms, %d cpus, %d \
               fault spec(s)@."
              m.Minimize.runs
              (m.Minimize.cfg.Sweep.duration_ns / 1_000_000)
              m.Minimize.cfg.Sweep.cpus (Minimize.plan_specs m))
          minimized;
        Option.iter (Format.printf "@.bundle: %s@.") witness.Sweep.bundle;
        Format.printf "@.replay: %s@." witness.Sweep.replay
      end;
      1
  end

open Cmdliner

(* --scale accepts a float or the presets small/medium/full. *)
let scale_conv =
  let parse s =
    match s with
    | "small" -> Ok 0.05
    | "medium" -> Ok 0.3
    | "full" -> Ok 1.0
    | _ -> (
        match float_of_string_opt s with
        | Some f when f > 0.0 -> Ok f
        | _ -> Error (`Msg (Printf.sprintf "invalid scale %S" s)))
  in
  Arg.conv (parse, Format.pp_print_float)

let scale_arg =
  let doc =
    "Workload scale factor: a float or small/medium/full (= 0.05/0.3/1.0; \
     1.0 = EXPERIMENTS.md defaults)."
  in
  Arg.(value & opt scale_conv 1.0 & info [ "scale" ] ~docv:"F" ~doc)

let seed_arg =
  let doc = "Deterministic simulation seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let cpus_arg ?(default = 8) doc =
  Arg.(value & opt int default & info [ "cpus" ] ~docv:"N" ~doc)

let runs_arg =
  let doc = "Repetitions for mean +/- stdev (paper: 3)." in
  Arg.(value & opt int 1 & info [ "runs" ] ~docv:"N" ~doc)

let params_term =
  Term.(
    const params $ scale_arg $ seed_arg
    $ cpus_arg "Simulated CPUs (the paper's machine had 64 logical CPUs)."
    $ runs_arg)

let scenario_names doc =
  Arg.(value & pos_all string [] & info [] ~docv:"SCENARIO" ~doc)

let chaos_scenarios_term =
  Term.(
    const parse_scenarios
    $ scenario_names
        "Scenarios (clean, stalled-reader, cb-flood, pressure-spike, \
         alloc-fault) or 'all' (default).")

let perf_scenarios_term =
  Term.(
    const parse_perf_scenarios
    $ scenario_names
        "Scenarios (endurance, fig3, chaos-clean, check) or 'all' (default).")

let alloc_arg default =
  let doc =
    "Reclamation scheme(s): slub, prudence, ebr-debra, hyaline, both or \
     all. 'both' is slub+prudence, except under anatomy and tournament, \
     which compare all four."
  in
  Arg.(value & opt string default & info [ "alloc" ] ~docv:"KIND" ~doc)

let ring_term default =
  let doc =
    "Per-CPU trace event-ring capacity (oldest events drop on overflow)."
  in
  let check ring =
    require_positive "--ring" ring;
    ring
  in
  Term.(
    const check $ Arg.(value & opt int default & info [ "ring" ] ~docv:"N" ~doc))

let json_arg doc = Arg.(value & flag & info [ "json" ] ~doc)

let bundle_dir_arg doc =
  Arg.(value & opt (some string) None & info [ "bundle-dir" ] ~docv:"DIR" ~doc)

let output_arg doc =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

(* check and fuzz: everything [sweep_config] needs, plus the command's
   own run-count flag. *)
let sweep_term count_flag count =
  let mutate =
    let doc =
      "Inject a known kernel bug class (proof an oracle has teeth: the \
       matching oracle must FAIL the run). 'skip-gp' reclaims deferred \
       objects without waiting for their grace period (shadow oracle); \
       'drop-stall' disarms the stall detector under pinned grace periods \
       (missed-QS oracle); 'lose-cb' drops every 64th call_rcu callback \
       between accounting and list (conservation oracle); \
       'free-latent-page' lets the shrinker return still-deferred pages to \
       the buddy (page-reuse oracle); 'skip-epoch-advance' advances the EBR \
       epoch without scanning reader announcements (early-reuse oracle, \
       --alloc=ebr-debra); 'drop-retire-batch' ripens Hyaline batches while \
       readers still hold references (early-reuse oracle, --alloc=hyaline)."
    in
    Arg.(value & opt string "none" & info [ "mutate" ] ~docv:"M" ~doc)
  in
  let shuffle_seed =
    let doc =
      "First shuffle seed: check sweeps seeds N..N+sweeps-1 (replay a \
       failing run with its printed seed and --sweeps=1); fuzz seeds its \
       corpus with it."
    in
    Arg.(value & opt int 1 & info [ "shuffle-seed" ] ~docv:"N" ~doc)
  in
  let duration_ms =
    let doc =
      "Virtual run length per schedule, in milliseconds (fuzz's duration \
       mutator scales it x0.5..x2)."
    in
    Arg.(value & opt int 50 & info [ "duration-ms" ] ~docv:"MS" ~doc)
  in
  let pages =
    let doc = "Physical memory per run, in 4 KiB pages." in
    Arg.(value & opt int 8_192 & info [ "pages" ] ~docv:"N" ~doc)
  in
  let disable_oracle =
    let doc =
      "Disable one oracle (page-reuse, early-reuse, missed-qs, \
       cb-conservation); repeatable. Used by the necessity self-tests: a \
       --mutate run with its oracle disabled must pass."
    in
    Arg.(value & opt_all string [] & info [ "disable-oracle" ] ~docv:"O" ~doc)
  in
  let plan =
    let doc =
      "Fault-plan override in compact form ('seed:spec;spec;...', as \
       printed by failing replay commands) instead of the scenario's \
       default plan."
    in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"PLAN" ~doc)
  in
  Term.(
    const (sweep_config count_flag)
    $ count $ chaos_scenarios_term $ alloc_arg "both" $ mutate $ shuffle_seed
    $ duration_ms $ pages $ disable_oracle $ plan $ seed_arg
    $ cpus_arg ~default:4
        "Simulated CPUs per run (fuzz's CPU mutator varies it 2..8).")

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List available experiments")
    Term.(const list_experiments $ const ())

let run_cmd =
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiment ids (fig3, costs, fig6, apps, ablations, \
                fig7..fig13) or 'all'.")
  in
  let out =
    output_arg
      "Also write the printed reports' metrics and the run config to \
       $(docv), the bench document that regress compares."
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run experiments and print their reports")
    Term.(const run_experiment $ ids $ out $ params_term)

let trace_cmd =
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT" ~doc:"Experiment id to trace (fig3, fig6).")
  in
  let out =
    output_arg
      "Output file for the Chrome trace-event JSON (default \
       trace-<experiment>.json)."
  in
  let hists =
    let doc = "Also print the grace-period latency, lock-wait and \
               allocation-cost histograms." in
    Arg.(value & flag & info [ "hist" ] ~doc)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Rerun an experiment with tracing armed: write a Perfetto-loadable \
          Chrome trace and print latency histograms")
    Term.(
      const trace_experiment $ id $ out $ hists $ ring_term 65_536
      $ params_term)

let chaos_cmd =
  let bundle_dir =
    bundle_dir_arg
      "Arm the flight recorder and dump a forensic bundle into $(docv) for \
       every outcome whose mitigations fired (safety violation, OOM, \
       emergency flush, OOM delay or stall warning); render bundles with \
       the postmortem subcommand."
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run fault-injection scenarios over the selected reclamation \
          schemes and print a survival/degradation report (RCU stall \
          warnings, grace-period p99, backoff retries, emergency flushes)")
    Term.(
      const run_chaos $ chaos_scenarios_term $ alloc_arg "both"
      $ ring_term 16_384 $ bundle_dir $ params_term)

let anatomy_cmd =
  let scenario =
    Arg.(
      value & pos 0 string "clean"
      & info [] ~docv:"SCENARIO"
          ~doc:"Scenario to dissect (clean, stalled-reader, cb-flood, \
                pressure-spike, alloc-fault; default clean).")
  in
  let json =
    json_arg
      "Machine-readable output: one NDJSON 'phase' object per (scheme, \
       phase), one 'total' and one 'worst_gp' per scheme, one trailing \
       'summary' line with the sum-identity verdict."
  in
  Cmd.v
    (Cmd.info "anatomy"
       ~doc:
         "Grace-period anatomy: run one chaos scenario under each \
          reclamation scheme with the phase tracer armed and decompose \
          every defer-to-reuse latency into defer-request, request-start, \
          qs-collection, complete-harvest and harvest-reuse (same schema \
          for all four backends), with a worst-GP drill-down naming the \
          holdout CPU; non-zero exit if the per-phase sums do not add up \
          exactly to the totals")
    Term.(
      const run_anatomy $ scenario $ alloc_arg "all" $ ring_term 16_384 $ json
      $ params_term)

let postmortem_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BUNDLE"
          ~doc:"Forensic bundle (NDJSON) written by check/fuzz \
                --bundle-dir or chaos --bundle-dir.")
  in
  Cmd.v
    (Cmd.info "postmortem"
       ~doc:
         "Render a forensic bundle into a human post-mortem: the \
          violation, a per-CPU timeline of the last trace events before \
          it, the offending objects' lineages \
          (deferred->harvested->reused), the anatomy of the implicated \
          grace periods and the full metric snapshot, plus the exact \
          replay command")
    Term.(const run_postmortem $ file)

let tournament_cmd =
  let out =
    output_arg
      "Also write the table as NDJSON to $(docv): one 'scheme' object per \
       (scenario, scheme) cell plus a trailing 'summary' line."
  in
  Cmd.v
    (Cmd.info "tournament"
       ~doc:
         "Cross-scheme SMR tournament: run the chaos scenarios under every \
          reclamation scheme (SLUB callbacks, RCU+Prudence, EBR/DEBRA, \
          Hyaline) and print one comparison table -- throughput, end-of-run \
          limbo occupancy, defer-to-reuse latency percentiles, grace-period \
          p99, OOM resilience; non-zero exit on any safety violation")
    Term.(
      const run_tournament $ chaos_scenarios_term $ alloc_arg "all"
      $ ring_term 16_384 $ out $ params_term)

let check_cmd =
  let sweeps =
    let doc = "Shuffled schedules per (scenario, allocator) pair." in
    Arg.(value & opt int 20 & info [ "sweeps" ] ~docv:"N" ~doc)
  in
  let skip_diff =
    let doc = "Skip the baseline-vs-Prudence differential trace replay." in
    Arg.(value & flag & info [ "skip-diff" ] ~doc)
  in
  let bundle_dir =
    bundle_dir_arg
      "Dump a self-contained forensic bundle (NDJSON: violation, per-CPU \
       event window, offending object lineages, GP anatomy, metric \
       snapshot, replay command) into $(docv) for every failing case; \
       render with the postmortem subcommand."
  in
  let json =
    json_arg
      "Machine-readable output: one NDJSON object per sweep verdict, one \
       for the differential replay, one summary line; human progress \
       output is suppressed."
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Schedule-exploration safety check: run the chaos matrix under \
          shuffled same-instant event orderings with the shadow-heap \
          oracle and invariant auditors armed, then differentially replay \
          one trace against both allocators; non-zero exit and a replay \
          command on any violation")
    Term.(
      const run_check $ sweep_term "--sweeps" sweeps $ skip_diff $ bundle_dir
      $ json)

let fuzz_cmd =
  let budget =
    let doc = "Maximum cases to execute." in
    Arg.(value & opt int 100 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let fuzz_seed =
    let doc =
      "Fuzzer RNG seed (mutation choices). The same seed and budget replay \
       the identical campaign, case for case."
    in
    Arg.(value & opt int 1 & info [ "fuzz-seed" ] ~docv:"N" ~doc)
  in
  let no_minimize =
    let doc = "Report the first failure as-is instead of shrinking it." in
    Arg.(value & flag & info [ "no-minimize" ] ~doc)
  in
  let bundle_dir =
    bundle_dir_arg
      "On failure, dump the final (minimized) witness's forensic bundle \
       into $(docv): the minimizer's confirmation run arms the flight \
       recorder (an unminimized failure is re-run with it armed); the \
       summary NDJSON line carries the bundle path."
  in
  let differential =
    let doc =
      "Differential mode: instead of the coverage-guided campaign, draw \
       random op traces from the fuzz RNG and replay each under every \
       reclamation backend (--alloc=both or all; a single kind is \
       rejected); any divergence in the backend-independent outcome \
       sequence, or any oracle hit, is a finding."
    in
    Arg.(value & flag & info [ "differential" ] ~doc)
  in
  let json =
    json_arg
      "Machine-readable output: one NDJSON 'case' object per execution, \
       'shrink' objects during minimization, a 'minimized' object and one \
       trailing 'summary' line; byte-identical across runs with the same \
       seeds and budget."
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Coverage-guided schedule fuzzing: mutate (shuffle seed, fault \
          plan, duration, CPUs) from a per-scenario seed corpus, keeping \
          inputs that light up new behavioural coverage; on an oracle \
          failure, shrink the witness (drop fault specs, binary-search \
          duration, reduce CPUs) and print a one-line replay command; \
          deterministic and replayable from --fuzz-seed")
    Term.(
      const run_fuzz $ sweep_term "--budget" budget $ fuzz_seed $ no_minimize
      $ differential $ bundle_dir $ json)

let stat_cmd =
  let duration_ms =
    let doc = "Virtual run length in milliseconds (scaled by --scale)." in
    Arg.(value & opt int 2_000 & info [ "duration-ms" ] ~docv:"MS" ~doc)
  in
  let sample_every =
    let doc = "Sampler period in virtual nanoseconds." in
    Arg.(value & opt int 10_000_000 & info [ "sample-every" ] ~docv:"NS" ~doc)
  in
  let capacity =
    let doc = "Time-series ring capacity in rows (oldest rows drop)." in
    Arg.(value & opt int 4_096 & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let watch =
    let doc =
      "Print a full snapshot periodically during the run (every 10 sampler \
       periods of virtual time), with churn columns showing per-interval \
       deltas."
    in
    Arg.(value & flag & info [ "watch" ] ~doc)
  in
  let series =
    let doc =
      "Export the sampled time series to $(docv) (with several allocators, \
       the allocator label is appended to the file name)."
    in
    Arg.(value & opt (some string) None & info [ "series" ] ~docv:"FILE" ~doc)
  in
  let format =
    let doc = "Series export format: csv or ndjson." in
    Arg.(value & opt string "csv" & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let registry_table =
    let doc = "Also print the flat metric-registry table (every registered \
               counter/gauge/derived metric with its current value)." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let pages =
    let doc = "Physical memory, in 4 KiB pages." in
    Arg.(value & opt int 65_536 & info [ "pages" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "Live allocator/RCU introspection: run the Fig. 3 endurance load \
          and report buddyinfo-style free-block counts, slabtop-style \
          per-cache activity, RCU grace-period/backlog state and \
          Prudence latent-cache occupancy; optionally sample any \
          registered metric into a bounded time-series ring and export it")
    Term.(
      const run_stat $ alloc_arg "both" $ duration_ms $ sample_every
      $ capacity $ watch $ series $ format $ registry_table $ pages $ scale_arg
      $ seed_arg
      $ cpus_arg "Simulated CPUs (the paper's machine had 64 logical CPUs).")

let perf_cmd =
  let out =
    let doc = "Output file for the wall-clock benchmark JSON." in
    Arg.(
      value
      & opt string "BENCH_wallclock.json"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Wall-clock throughput benchmark: time pinned scenarios (fig3, \
          chaos clean, endurance) under both allocators and report \
          events/sec, sim-ns per wall-ms and words per update; writes \
          BENCH_wallclock.json whose deterministic counters (events, \
          updates, allocation counts, grace periods) gate in CI while \
          wall timings stay informational")
    Term.(const run_perf $ perf_scenarios_term $ out $ params_term)

let prof_cmd =
  let top =
    let doc = "Show only the $(docv) heaviest spans per run (0 = all)." in
    Arg.(value & opt int 0 & info [ "top" ] ~docv:"N" ~doc)
  in
  let by =
    let doc = "Span ordering and folded-path weight: 'time' (self ns) or \
               'alloc' (self minor words)." in
    Arg.(value & opt string "time" & info [ "by" ] ~docv:"KEY" ~doc)
  in
  let folded =
    let doc =
      "Also write folded call paths ('engine.dispatch;slab.alloc N' lines, \
       weighted per --by) to $(docv) for flamegraph.pl / speedscope."
    in
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE" ~doc)
  in
  let json =
    json_arg
      "Machine-readable output: one NDJSON object per span per run, one \
       scenario_summary per run, one trailing summary line; the human \
       tables are suppressed."
  in
  Cmd.v
    (Cmd.info "prof"
       ~doc:
         "Hot-path profile: rerun the perf scenarios with the span profiler \
          installed across engine/buddy/slab/RCU/Prudence and report \
          per-span wall time, call counts and GC allocation words \
          (allocs-per-event, subsystem shares, folded stacks for \
          flamegraphs); deterministic counters are unchanged by profiling")
    Term.(
      const run_prof $ perf_scenarios_term $ top $ by $ folded $ json
      $ params_term)

let regress_cmd =
  (* Plain strings, not Arg.file: a missing baseline must reach the
     loader so `--json` still emits its error summary line. *)
  let file name doc =
    Arg.(required & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)
  in
  let tolerance =
    let doc =
      "Default drift tolerance in percent for metrics that do not carry \
       their own."
    in
    Arg.(value & opt float 5.0 & info [ "tolerance-pct" ] ~docv:"PCT" ~doc)
  in
  Cmd.v
    (Cmd.info "regress"
       ~doc:
         "Bench regression gate: compare a fresh BENCH_seed.json against \
          the committed baseline; exit 1 when any metric drifts past its \
          tolerance in the paper-unexpected direction (or disappears)")
    Term.(
      const run_regress
      $ file "baseline" "Committed baseline BENCH_seed.json."
      $ file "current" "Freshly generated BENCH_seed.json to gate."
      $ tolerance
      $ json_arg "Emit one NDJSON object per metric drift instead of a table.")

let main_cmd =
  let doc =
    "Reproduction of 'Prudent Memory Reclamation in Procrastination-Based \
     Synchronization' (ASPLOS 2016)"
  in
  Cmd.group
    (Cmd.info "prudence-repro" ~version:Core.version ~doc)
    [
      list_cmd; run_cmd; trace_cmd; chaos_cmd; anatomy_cmd; tournament_cmd;
      check_cmd; fuzz_cmd; postmortem_cmd; stat_cmd; perf_cmd; prof_cmd;
      regress_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
