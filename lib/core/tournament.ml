(* "Limbo" unifies the two places a deferred object can wait: the latent
   caches/slabs of the Prudence frame (any SMR backend) and the baseline's
   RCU callback lists. Exactly one is non-zero per scheme, so the sum is
   the scheme's end-of-run deferred occupancy. *)
let limbo (o : Workloads.Chaos.outcome) =
  let env = o.Workloads.Chaos.env in
  let latent = ref 0 in
  env.Workloads.Env.backend.Slab.Backend.iter_caches (fun c ->
      latent := !latent + Slab.Frame.latent_total c);
  !latent + Rcu.pending_callbacks env.Workloads.Env.rcu

let anatomy (o : Workloads.Chaos.outcome) =
  Workloads.Env.anatomy o.Workloads.Chaos.env

let reuse_p o q =
  Trace.Hist.percentile_opt (Obs.Anatomy.total_hist (anatomy o)) q

let gp_p99 (o : Workloads.Chaos.outcome) =
  Trace.Hist.percentile_opt
    (Trace.gp_latency o.Workloads.Chaos.env.Workloads.Env.tracer)
    99.

let phase_p99 o p =
  Trace.Hist.percentile_opt (Obs.Anatomy.phase_hist (anatomy o) p) 99.

let fmt_ms_opt = function
  | None -> "-"
  | Some ns -> Printf.sprintf "%.1fms" (float_of_int ns /. 1e6)

let fmt_us_opt = function
  | None -> "-"
  | Some ns -> Printf.sprintf "%.0fus" (float_of_int ns /. 1e3)

let header =
  [
    "scenario"; "scheme"; "outcome"; "updates"; "limbo@end"; "reuse p50";
    "reuse p99"; "gp p99"; "qs p99"; "harv p99"; "flush/objs"; "oom-delay";
    "viol"; "peak MiB";
  ]

let row (o : Workloads.Chaos.outcome) =
  let open Workloads.Chaos in
  [
    scenario_name o.scenario;
    o.label;
    Chaos.outcome_cell o;
    Metrics.Table.fmt_i o.updates;
    Metrics.Table.fmt_i (limbo o);
    fmt_us_opt (reuse_p o 50.);
    fmt_ms_opt (reuse_p o 99.);
    fmt_ms_opt (gp_p99 o);
    fmt_ms_opt (phase_p99 o Obs.Phase.Qs_collection);
    fmt_ms_opt (phase_p99 o Obs.Phase.Complete_to_harvest);
    Printf.sprintf "%s/%s"
      (Metrics.Table.fmt_i o.emergency_flushes)
      (Metrics.Table.fmt_i o.emergency_flushed_objs);
    Metrics.Table.fmt_i o.ooms_delayed;
    Metrics.Table.fmt_i o.safety_violations;
    Metrics.Table.fmt_f ~dec:1 o.peak_used_mib;
  ]

let report kinds outcomes =
  Metrics.Report.make ~id:"tournament"
    ~title:"SMR tournament: every reclamation scheme over the chaos matrix"
    ~paper_claim:
      "Cross-scheme comparison (Fig. 3 axes, generalized): the allocator \
       integration, not the grace-period mechanism, determines limbo \
       occupancy and defer-to-reuse latency -- RCU+Prudence, EBR/DEBRA and \
       Hyaline all reuse memory promptly where baseline SLUB's callback \
       batching lets deferred objects pile up, and every scheme stays \
       safety-clean under fault injection."
    ~verdict:(Chaos.verdict kinds outcomes)
    (Metrics.Table.render ~header (List.map row outcomes))

let json (o : Workloads.Chaos.outcome) =
  let module J = Metrics.Json in
  let open Workloads.Chaos in
  let opt = function None -> J.Null | Some v -> J.Int v in
  J.Obj
    [
      ("type", J.Str "scheme");
      ("scenario", J.Str (scenario_name o.scenario));
      ("scheme", J.Str o.label);
      ("survived", J.Bool o.survived);
      ("oom_at_ns", opt o.oom_at_ns);
      ("updates", J.Int o.updates);
      ("limbo_end", J.Int (limbo o));
      ("reuse_p50_ns", opt (reuse_p o 50.));
      ("reuse_p99_ns", opt (reuse_p o 99.));
      ("gp_p99_ns", opt (gp_p99 o));
      ( "phase_p99_ns",
        J.Obj
          (List.map
             (fun p -> (Obs.Phase.name p, opt (phase_p99 o p)))
             Obs.Phase.all) );
      ("stall_warnings", J.Int o.stall_warnings);
      ("grow_retries", J.Int o.grow_retries);
      ("emergency_flushes", J.Int o.emergency_flushes);
      ("emergency_flushed_objs", J.Int o.emergency_flushed_objs);
      ("ooms_delayed", J.Int o.ooms_delayed);
      ("injected_failures", J.Int o.injected_failures);
      ("safety_violations", J.Int o.safety_violations);
      ("peak_used_mib", J.Float o.peak_used_mib);
      ("final_used_mib", J.Float o.final_used_mib);
    ]

let to_ndjson kinds outcomes =
  let module J = Metrics.Json in
  let violations = Chaos.safety_violations outcomes in
  let summary =
    J.Obj
      [
        ("type", J.Str "summary");
        ( "schemes",
          J.List
            (List.map (fun k -> J.Str (Workloads.Env.kind_label k)) kinds) );
        ("cells", J.Int (List.length outcomes));
        ( "survived",
          J.Int
            (List.length
               (List.filter (fun o -> o.Workloads.Chaos.survived) outcomes)) );
        ("safety_violations", J.Int violations);
        ("ok", J.Bool (violations = 0));
      ]
  in
  let lines = List.map json outcomes @ [ summary ] in
  String.concat "\n" (List.map J.to_string lines) ^ "\n"
