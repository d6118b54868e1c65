(* Grace-period anatomy: run one chaos scenario per SMR backend with the
   Obs recorder armed and decompose every defer->reuse latency into the
   five-phase schema of {!Obs.Phase}. The phase histograms obey an exact
   sum identity (clamped edges): for every reused object the five phase
   samples add up to its total latency, so the per-phase [sum] column
   adds up to the [total] row — the CI smoke asserts exactly that. *)

type result = {
  kind : Workloads.Env.kind;
  outcome : Workloads.Chaos.outcome;
  obs : Obs.Anatomy.t;
}

let run ?(kinds = Workloads.Env.all_kinds) p scenario =
  let cfg = { (Chaos.config_for p scenario) with Workloads.Chaos.obs = true } in
  List.map
    (fun kind ->
      let outcome = Workloads.Chaos.run_one cfg kind in
      let obs = Workloads.Env.anatomy outcome.Workloads.Chaos.env in
      { kind; outcome; obs })
    kinds

(* {1 Rendering} *)

let fmt_ns_opt = function
  | None -> "-"
  | Some ns when ns >= 1_000_000 ->
      Printf.sprintf "%.2fms" (float_of_int ns /. 1e6)
  | Some ns when ns >= 1_000 ->
      Printf.sprintf "%.1fus" (float_of_int ns /. 1e3)
  | Some ns -> Printf.sprintf "%dns" ns

let fmt_ns ns = fmt_ns_opt (Some ns)

let hist_row label h =
  [
    label;
    Metrics.Table.fmt_i (Trace.Hist.count h);
    fmt_ns_opt (Trace.Hist.percentile_opt h 50.);
    fmt_ns_opt (Trace.Hist.percentile_opt h 99.);
    (match Trace.Hist.mean_opt h with
    | None -> "-"
    | Some m -> fmt_ns (int_of_float m));
    fmt_ns (Trace.Hist.sum h);
  ]

let header = [ "phase"; "count"; "p50"; "p99"; "mean"; "sum" ]

let phase_sum obs =
  List.fold_left
    (fun acc p -> acc + Trace.Hist.sum (Obs.Anatomy.phase_hist obs p))
    0 Obs.Phase.all

let worst_gp_line obs =
  match Obs.Anatomy.worst_gp obs with
  | None -> "worst gp: none completed inside the recorder window"
  | Some r ->
      let open Obs.Anatomy in
      let span = r.complete_ns - max 0 r.start_ns in
      Printf.sprintf
        "worst gp: cookie %d span %s (start %s -> complete %s), %d objects%s%s"
        r.cookie (fmt_ns span) (fmt_ns r.start_ns) (fmt_ns r.complete_ns)
        r.objects
        (if r.holdout_cpu >= 0 then
           Printf.sprintf ", holdout cpu %d @ %s" r.holdout_cpu
             (fmt_ns r.holdout_ns)
         else ", no holdout observed")
        (if r.first_qs_cpu >= 0 then
           Printf.sprintf ", first qs cpu %d @ %s" r.first_qs_cpu
             (fmt_ns r.first_qs_ns)
         else "")

let render_result r =
  let obs = r.obs in
  let rows =
    List.map
      (fun p -> hist_row (Obs.Phase.name p) (Obs.Anatomy.phase_hist obs p))
      Obs.Phase.all
    @ [ hist_row "total" (Obs.Anatomy.total_hist obs) ]
  in
  let identity =
    let ps = phase_sum obs and ts = Trace.Hist.sum (Obs.Anatomy.total_hist obs) in
    if ps = ts then Printf.sprintf "phase sums == total (%s): exact" (fmt_ns ts)
    else Printf.sprintf "SUM MISMATCH: phases %s vs total %s" (fmt_ns ps)
        (fmt_ns ts)
  in
  Printf.sprintf "-- %s (%s: %d defers, %d reuses, %d dropped) --\n%s\n%s\n%s\n"
    (Workloads.Env.kind_label r.kind)
    (Obs.Anatomy.scheme obs) (Obs.Anatomy.defers obs) (Obs.Anatomy.reuses obs)
    (Obs.Anatomy.dropped obs)
    (Metrics.Table.render ~header rows)
    (worst_gp_line obs) identity

let sum_identity_ok results =
  List.for_all
    (fun r -> phase_sum r.obs = Trace.Hist.sum (Obs.Anatomy.total_hist r.obs))
    results

let report_results scenario results =
  let body = String.concat "\n" (List.map render_result results) in
  let ok = sum_identity_ok results in
  let verdict =
    Printf.sprintf
      "scenario %s: %d backends, identical 5-phase schema, sum identity %s"
      (Workloads.Chaos.scenario_name scenario)
      (List.length results)
      (if ok then "exact on every backend" else "VIOLATED")
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
    ~verdict body

let report ?kinds p scenario =
  report_results scenario (run ?kinds p scenario)

(* {1 NDJSON} *)

let json_of_results scenario results =
  let module J = Metrics.Json in
  let opt = function None -> J.Null | Some v -> J.Int v in
  let hist_json h =
    [
      ("count", J.Int (Trace.Hist.count h));
      ("p50_ns", opt (Trace.Hist.percentile_opt h 50.));
      ("p99_ns", opt (Trace.Hist.percentile_opt h 99.));
      ( "mean_ns",
        match Trace.Hist.mean_opt h with
        | None -> J.Null
        | Some m -> J.Float m );
      ("sum_ns", J.Int (Trace.Hist.sum h));
    ]
  in
  let per_result r =
    let scheme = Workloads.Env.kind_label r.kind in
    let phase_lines =
      List.map
        (fun p ->
          J.Obj
            (("type", J.Str "phase")
            :: ("scheme", J.Str scheme)
            :: ("phase", J.Str (Obs.Phase.name p))
            :: hist_json (Obs.Anatomy.phase_hist r.obs p)))
        Obs.Phase.all
    in
    let total_line =
      J.Obj
        (("type", J.Str "total")
        :: ("scheme", J.Str scheme)
        :: hist_json (Obs.Anatomy.total_hist r.obs))
    in
    let worst =
      match Obs.Anatomy.worst_gp r.obs with
      | None -> []
      | Some g ->
          let open Obs.Anatomy in
          let i v = if v < 0 then J.Null else J.Int v in
          [
            J.Obj
              [
                ("type", J.Str "worst_gp");
                ("scheme", J.Str (Workloads.Env.kind_label r.kind));
                ("cookie", J.Int g.cookie);
                ("defer_ns", i g.defer_ns);
                ("request_ns", i g.request_ns);
                ("start_ns", i g.start_ns);
                ("complete_ns", i g.complete_ns);
                ("span_ns", J.Int (g.complete_ns - max 0 g.start_ns));
                ("first_qs_cpu", i g.first_qs_cpu);
                ("first_qs_ns", i g.first_qs_ns);
                ("holdout_cpu", i g.holdout_cpu);
                ("holdout_ns", i g.holdout_ns);
                ("objects", J.Int g.objects);
              ];
          ]
    in
    phase_lines @ (total_line :: worst)
  in
  let summary =
    let ok = sum_identity_ok results in
    J.Obj
      [
        ("type", J.Str "summary");
        ("scenario", J.Str (Workloads.Chaos.scenario_name scenario));
        ( "schemes",
          J.List
            (List.map
               (fun r -> J.Str (Workloads.Env.kind_label r.kind))
               results) );
        ( "phase_sum_ns",
          J.Int (List.fold_left (fun a r -> a + phase_sum r.obs) 0 results) );
        ( "total_sum_ns",
          J.Int
            (List.fold_left
               (fun a r -> a + Trace.Hist.sum (Obs.Anatomy.total_hist r.obs))
               0 results) );
        ("sum_identity", J.Bool ok);
        ("ok", J.Bool ok);
      ]
  in
  List.map J.to_string (List.concat_map per_result results)
  @ [ J.to_string summary ]

let json_lines ?kinds p scenario =
  json_of_results scenario (run ?kinds p scenario)

let to_ndjson ?kinds p scenario =
  String.concat "\n" (json_lines ?kinds p scenario) ^ "\n"
