type scenario =
  | Clean
  | Stalled_reader
  | Cb_flood
  | Pressure_spike
  | Alloc_fault

let all_scenarios =
  [ Clean; Stalled_reader; Cb_flood; Pressure_spike; Alloc_fault ]

let scenario_name = function
  | Clean -> "clean"
  | Stalled_reader -> "stalled-reader"
  | Cb_flood -> "cb-flood"
  | Pressure_spike -> "pressure-spike"
  | Alloc_fault -> "alloc-fault"

let scenario_of_string = function
  | "clean" -> Some Clean
  | "stalled-reader" -> Some Stalled_reader
  | "cb-flood" -> Some Cb_flood
  | "pressure-spike" -> Some Pressure_spike
  | "alloc-fault" -> Some Alloc_fault
  | _ -> None

type config = {
  scenario : scenario;
  seed : int;
  cpus : int;
  duration_ns : int;
  total_pages : int;
  stall_timeout_ns : int;
  ring : int;
  prof : Prof.t;
  obs : bool;
}

let default_config ~scenario =
  {
    scenario;
    seed = 42;
    cpus = 8;
    duration_ns = Sim.Clock.s 3;
    (* Bounded memory (192 MiB): under the throttled RCU config the
       cb-flood scenario exhausts it on the baseline within the run. *)
    total_pages = 49_152;
    stall_timeout_ns = Sim.Clock.ms 200;
    ring = 16_384;
    prof = Prof.null;
    obs = false;
  }

(* The scenario matrix, pinned to fractions of the run so any duration
   gets the same shape: faults start after a warm-up and end before the
   run does, leaving room to observe recovery. *)
let plan_for cfg =
  let d = cfg.duration_ns in
  let specs =
    match cfg.scenario with
    | Clean -> []
    | Stalled_reader ->
        [
          Faults.Plan.Stalled_reader
            {
              cpu = min 2 (cfg.cpus - 1);
              at_ns = d / 6;
              hold_ns = Some (d / 2);
            };
        ]
    | Cb_flood ->
        (* §3.4 DoS: the attacker floods from every CPU, so real deferred
           frees queue behind no-op callbacks on every callback list. *)
        List.init cfg.cpus (fun cpu ->
            Faults.Plan.Cb_flood
              {
                cpu;
                at_ns = d / 10;
                duration_ns = 4 * d / 5;
                per_ms = 500;
              })
    | Pressure_spike ->
        (* Seize enough that free memory drops below the Critical
           watermark (10% of total) even before the workload's own use. *)
        [
          Faults.Plan.Pressure_spike
            {
              at_ns = d / 3;
              duration_ns = d / 3;
              pages = cfg.total_pages * 15 / 16;
            };
        ]
    | Alloc_fault ->
        (* The stalled CPU pins grace periods, so deferred objects pile up
           and the caches must grow — buddy traffic that lands inside the
           fault window and exercises the grow retry-with-backoff path. *)
        [
          Faults.Plan.Alloc_fault
            { at_ns = d / 6; duration_ns = 2 * d / 3; fail_prob = 0.3 };
          Faults.Plan.Cpu_stall
            { cpu = 1; at_ns = d / 4; duration_ns = d / 4 };
        ]
  in
  Faults.Plan.make ~seed:cfg.seed specs

type outcome = {
  label : string;
  env : Env.t;
  scenario : scenario;
  survived : bool;
  oom_at_ns : int option;
  updates : int;
  stall_warnings : int;
  holdout_cpus : int list;
  gp_p99_ns : int;
  grow_retries : int;
  emergency_flushes : int;
  emergency_flushed_objs : int;
  ooms_delayed : int;
  max_backlog : int;
  injected_failures : int;
  flood_cbs : int;
  safety_violations : int;
  peak_used_mib : float;
  final_used_mib : float;
}

(* The stack a chaos run builds. Throttled callback processing in the
   Fig. 3 style (§3.5), but with a budget the clean run can sustain: the
   baseline keeps up with the workload's own frees, so whatever kills it
   in the other rows is the injected fault, not the background leak. The
   stall detector is armed. *)
let env_config cfg kind =
  {
    Env.default_config with
    Env.kind;
    cpus = cfg.cpus;
    seed = cfg.seed;
    total_pages = cfg.total_pages;
    rcu_config =
      {
        Rcu.default_config with
        Rcu.blimit = 100;
        expedited_blimit = 300;
        softirq_period_ns = 1_000_000;
        qhimark = max_int;
        stall_timeout_ns = Some cfg.stall_timeout_ns;
      };
    prudence_config =
      { Prudence.default_config with Prudence.emergency_flush = true };
    track_readers = true;
    (* Tracing on: the report's GP-latency p99 comes from the tracer's
       histogram. *)
    trace = Some cfg.ring;
    prof = cfg.prof;
    obs = cfg.obs;
  }

let run_env ?plan cfg env =
  (* Robustness mitigations under test: retry transient page-alloc
     failures with backoff instead of treating them as fatal. *)
  Slab.Frame.set_grow_retry env.Env.fenv
    (Some { Slab.Frame.max_retries = 6; base_backoff_ns = 10_000 });
  let injector =
    Faults.Injector.install ~pressure:env.Env.pressure
      (match plan with Some p -> p | None -> plan_for cfg)
      ~machine:env.Env.machine ~buddy:env.Env.buddy ~rcu:env.Env.rcu
  in
  let r =
    Endurance.run env
      { Endurance.default_config with
        Endurance.duration_ns = cfg.duration_ns }
  in
  let rcu_stats = Rcu.stats env.Env.rcu in
  let holdouts =
    List.sort_uniq compare
      (List.concat_map
         (fun (w : Rcu.stall_warning) -> w.Rcu.holdouts)
         (Rcu.stall_warnings env.Env.rcu))
  in
  let sum f =
    let acc = ref 0 in
    env.Env.backend.Slab.Backend.iter_caches (fun c ->
        acc := !acc + f (Slab.Slab_stats.snapshot c.Slab.Frame.stats));
    !acc
  in
  let fstats = Faults.Injector.stats injector in
  {
    label = r.Endurance.label;
    env;
    scenario = cfg.scenario;
    survived = r.Endurance.oom_at_ns = None;
    oom_at_ns = r.Endurance.oom_at_ns;
    updates = r.Endurance.updates;
    stall_warnings = rcu_stats.Rcu.stall_warnings;
    holdout_cpus = holdouts;
    gp_p99_ns = Trace.Hist.percentile (Trace.gp_latency env.Env.tracer) 99.;
    grow_retries = sum (fun s -> s.Slab.Slab_stats.grow_retries);
    emergency_flushes = sum (fun s -> s.Slab.Slab_stats.emergency_flushes);
    emergency_flushed_objs =
      sum (fun s -> s.Slab.Slab_stats.emergency_flushed_objs);
    ooms_delayed = sum (fun s -> s.Slab.Slab_stats.ooms_delayed);
    max_backlog = rcu_stats.Rcu.max_backlog;
    injected_failures = Mem.Buddy.injected_failures env.Env.buddy;
    flood_cbs = fstats.Faults.Injector.flood_cbs;
    safety_violations = r.Endurance.safety_violations;
    peak_used_mib = r.Endurance.peak_used_mib;
    final_used_mib = r.Endurance.final_used_mib;
  }

let run_one cfg kind = run_env cfg (Env.build (env_config cfg kind))
let run_pair cfg = (run_one cfg Env.Baseline, run_one cfg Env.Prudence_alloc)
