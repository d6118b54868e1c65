type params = { seed : int; cpus : int; scale : float; ring : int }

let config_for p scenario =
  let base = Workloads.Chaos.default_config ~scenario in
  {
    base with
    Workloads.Chaos.seed = p.seed;
    cpus = p.cpus;
    ring = p.ring;
    duration_ns =
      int_of_float (float_of_int base.Workloads.Chaos.duration_ns *. p.scale);
  }

let run ?(obs = false) ~kinds p scenarios =
  List.concat_map
    (fun s ->
      let cfg = { (config_for p s) with Workloads.Chaos.obs } in
      List.map (Workloads.Chaos.run_one cfg) kinds)
    scenarios

let safety_violations outcomes =
  List.fold_left
    (fun acc o -> acc + o.Workloads.Chaos.safety_violations)
    0 outcomes

let verdict kinds outcomes =
  let survived label =
    let mine =
      List.filter (fun o -> o.Workloads.Chaos.label = label) outcomes
    in
    let n =
      List.length (List.filter (fun o -> o.Workloads.Chaos.survived) mine)
    in
    Printf.sprintf "%s %d/%d" label n (List.length mine)
  in
  Printf.sprintf "survival: %s; safety violations: %d"
    (String.concat ", "
       (List.map (fun k -> survived (Workloads.Env.kind_label k)) kinds))
    (safety_violations outcomes)

let fmt_ms ns = Printf.sprintf "%.1fms" (float_of_int ns /. 1e6)

let outcome_cell (o : Workloads.Chaos.outcome) =
  match o.Workloads.Chaos.oom_at_ns with
  | None -> "survived"
  | Some t -> Printf.sprintf "OOM@%.2fs" (Sim.Clock.to_s t)

let holdouts_cell = function
  | [] -> "-"
  | cpus -> String.concat "," (List.map string_of_int cpus)

let row (o : Workloads.Chaos.outcome) =
  let open Workloads.Chaos in
  [
    scenario_name o.scenario;
    o.label;
    outcome_cell o;
    Metrics.Table.fmt_i o.updates;
    Metrics.Table.fmt_i o.stall_warnings;
    holdouts_cell o.holdout_cpus;
    fmt_ms o.gp_p99_ns;
    Metrics.Table.fmt_i o.grow_retries;
    Printf.sprintf "%s/%s"
      (Metrics.Table.fmt_i o.emergency_flushes)
      (Metrics.Table.fmt_i o.emergency_flushed_objs);
    Metrics.Table.fmt_i o.ooms_delayed;
    Metrics.Table.fmt_i o.injected_failures;
    Metrics.Table.fmt_i o.safety_violations;
  ]

let header =
  [
    "scenario"; "alloc"; "outcome"; "updates"; "stalls"; "holdouts";
    "gp p99"; "retries"; "flush/objs"; "oom-delay"; "inj-fail"; "viol";
  ]

(* A chaos run has no oracle verdict; what merits a forensic bundle is a
   mitigation firing (or an outright loss). Ordered by severity: the
   first matching reason names the bundle. *)
let mitigation_reason (o : Workloads.Chaos.outcome) =
  let open Workloads.Chaos in
  if o.safety_violations > 0 then Some "chaos-safety-violation"
  else if o.oom_at_ns <> None then Some "chaos-oom"
  else if o.emergency_flushes > 0 then Some "chaos-emergency-flush"
  else if o.ooms_delayed > 0 then Some "chaos-oom-delay"
  else if o.stall_warnings > 0 then Some "chaos-stall-warning"
  else None

let chaos_replay p scenario label =
  Printf.sprintf
    "prudence-repro chaos %s --alloc=%s --seed=%d --cpus=%d --scale=%g \
     --ring=%d"
    (Workloads.Chaos.scenario_name scenario)
    label p.seed p.cpus p.scale p.ring

let write_bundle dir p reason (o : Workloads.Chaos.outcome) =
  let env = o.Workloads.Chaos.env in
  let violations =
    List.map
      (fun (w : Rcu.stall_warning) ->
        Printf.sprintf "stall warning at %d ns: holdouts %s" w.Rcu.at_ns
          (holdouts_cell w.Rcu.holdouts))
      (Rcu.stall_warnings env.Workloads.Env.rcu)
  in
  let path =
    Filename.concat dir
      (Printf.sprintf "bundle-chaos-%s-%s.ndjson"
         (Workloads.Chaos.scenario_name o.Workloads.Chaos.scenario)
         o.Workloads.Chaos.label)
  in
  Obs.Bundle.write ~path ~reason
    ~replay:(chaos_replay p o.Workloads.Chaos.scenario o.Workloads.Chaos.label)
    ~scheme:o.Workloads.Chaos.label
    ~at_ns:(Sim.Engine.now env.Workloads.Env.eng)
    ~tracer:env.Workloads.Env.tracer ~anatomy:(Workloads.Env.anatomy env)
    ~offenders:[] ~violations ~metrics:(Stats.Providers.metrics env) ();
  path

let report ~kinds ?bundle_dir p scenarios =
  let outcomes = run ~obs:(bundle_dir <> None) ~kinds p scenarios in
  let bundles =
    match bundle_dir with
    | None -> []
    | Some dir ->
        List.filter_map
          (fun o ->
            Option.map
              (fun reason -> write_bundle dir p reason o)
              (mitigation_reason o))
          outcomes
  in
  Metrics.Report.make ~id:"chaos"
    ~title:"Chaos matrix: fault injection over both allocators"
    ~paper_claim:
      "Robustness (S3.4/S3.5): Prudence degrades gracefully where SLUB hits \
       fatal OOM -- emergency flush + OOM delay ride out callback floods and \
       pressure spikes; stalled readers are detected and named, never cause \
       premature reuse."
    ~verdict:(verdict kinds outcomes)
    (Metrics.Table.render ~header (List.map row outcomes)
    ^
    match bundles with
    | [] -> ""
    | paths ->
        "\nforensic bundles (mitigation triggered):\n"
        ^ String.concat "\n" (List.map (fun p -> "  " ^ p) paths))

(* {1 Grace-period anatomy} *)

let anatomies outcomes =
  List.map (fun o -> Workloads.Env.anatomy o.Workloads.Chaos.env) outcomes

let anatomy_ok outcomes =
  List.for_all Obs.Anatomy.sum_identity_ok (anatomies outcomes)

let anatomy_report scenario outcomes =
  let recorders = anatomies outcomes in
  let verdict =
    Printf.sprintf
      "scenario %s: %d backends, identical 5-phase schema, sum identity %s"
      (Workloads.Chaos.scenario_name scenario)
      (List.length recorders)
      (if anatomy_ok outcomes then "exact on every backend" else "VIOLATED")
  in
  Metrics.Report.make ~id:"anatomy"
    ~title:"Grace-period anatomy: phase-attributed reclamation latency"
    ~paper_claim:
      "Latency decomposition (Fig. 6 axes): where a deferred object's \
       defer-to-reuse latency goes — waiting for a detection request, for \
       the detection cycle to start, for the slowest CPU to pass a \
       quiescent state, for the harvester, and for the allocator to hand \
       the slot out again — reported on one schema across all four SMR \
       backends."
    ~verdict
    (String.concat "\n" (List.map Obs.Anatomy.render recorders))

let anatomy_ndjson scenario outcomes =
  let module J = Metrics.Json in
  let recorders = anatomies outcomes in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 recorders in
  let ok = anatomy_ok outcomes in
  let summary =
    J.Obj
      [
        ("type", J.Str "summary");
        ("scenario", J.Str (Workloads.Chaos.scenario_name scenario));
        ( "schemes",
          J.List (List.map (fun r -> J.Str (Obs.Anatomy.scheme r)) recorders)
        );
        ("phase_sum_ns", J.Int (sum Obs.Anatomy.phase_sum));
        ( "total_sum_ns",
          J.Int (sum (fun r -> Trace.Hist.sum (Obs.Anatomy.total_hist r))) );
        ("sum_identity", J.Bool ok);
        ("ok", J.Bool ok);
      ]
  in
  let lines = List.concat_map Obs.Anatomy.json recorders @ [ summary ] in
  String.concat "\n" (List.map J.to_string lines) ^ "\n"
