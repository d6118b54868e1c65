(* Wall-clock throughput harness (the `perf` subcommand).

   Every other BENCH metric is virtual-time only: it says what the
   simulated system did, never how fast the simulator itself did it.
   This harness times pinned scenarios on the wall clock and reports
   events per second, simulated nanoseconds per wall millisecond, and
   words allocated per simulated operation.

   Two kinds of fields come out of a run:

   - deterministic counters (executed events, simulated time, workload
     updates, slab alloc/free/deferred-free counts, grace periods) —
     functions of the seed alone, gated byte-identical in CI via the
     [Exact] metric direction;
   - wall-clock readings (seconds, derived rates, GC words) — machine-
     dependent, exported as [Info] so they are tracked but never gate;
   - allocs-per-event — replay-stable for a given compiler but not
     byte-exact across toolchains, gated [Lower_better] with a slack
     tolerance so an accidental allocation regression in a hot path
     fails CI while codegen drift does not.

   With --runs > 1 each scenario repeats in-process; the deterministic
   counters must agree across repetitions (a loud failure otherwise)
   and the smallest wall time wins, minimising scheduler noise. *)

module W = Workloads
module R = Metrics.Report
module T = Metrics.Table

type scenario = Endurance | Fig3 | Chaos_clean | Check

let all_scenarios = [ Endurance; Fig3; Chaos_clean; Check ]

let scenario_name = function
  | Endurance -> "endurance"
  | Fig3 -> "fig3"
  | Chaos_clean -> "chaos-clean"
  | Check -> "check"

let scenario_of_string = function
  | "endurance" -> Some Endurance
  | "fig3" -> Some Fig3
  | "chaos-clean" | "chaos_clean" -> Some Chaos_clean
  | "check" -> Some Check
  | _ -> None

let scaled_ns scale ns = max 1 (int_of_float (float_of_int ns *. scale))

(* One run of a pinned scenario. Returns the environment (for post-run
   counter extraction) and the workload's update count. [prof] installs a
   profiler on the run's stack (the `prof` subcommand); the default null
   profiler keeps benchmark runs instrumentation-free. *)
let run_once ?(prof = Prof.null) (p : Core.Experiments.params) scenario kind =
  let endurance env_config config =
    let env = W.Env.build { env_config with W.Env.prof } in
    (env, (W.Endurance.run env config).W.Endurance.updates)
  in
  match scenario with
  | Endurance ->
      (* The `stat` subcommand's live endurance shape: 256 MiB, 2 s. *)
      let live =
        {
          Stats.Live.default_config with
          Stats.Live.kind;
          seed = p.seed;
          cpus = p.cpus;
          scale = p.scale;
        }
      in
      endurance (Stats.Live.env_config live) (Stats.Live.endurance_config live)
  | Fig3 ->
      (* The Fig. 3 experiment shape: 1 GiB, 12 s, baseline OOMs. *)
      endurance
        (Core.Experiments.endurance_env p kind)
        (Core.Experiments.endurance_config p)
  | Chaos_clean ->
      (* The chaos control row: tracing armed, mitigations on, no
         faults — the heaviest instrumentation the simulator carries. *)
      let base = W.Chaos.default_config ~scenario:W.Chaos.Clean in
      let o =
        W.Chaos.run_one
          {
            base with
            W.Chaos.seed = p.seed;
            cpus = p.cpus;
            duration_ns = scaled_ns p.scale base.W.Chaos.duration_ns;
            prof;
          }
          kind
      in
      (o.W.Chaos.env, o.W.Chaos.updates)
  | Check ->
      (* The verification stack armed on a 1 s endurance run: shadow-heap
         probes on every slab transition, the pattern oracles polling
         from the engine observer, reader tracking on, and the shuffled
         tie-break of check's default --shuffle-seed, the schedule path
         every check and fuzz sweep runs. The checker's own cost lands
         in the check.probe span and its allocation behaviour gates via
         allocs-per-event like any other hot path. *)
      let duration_ns = scaled_ns p.scale (Sim.Clock.s 1) in
      let env =
        W.Env.build
          {
            W.Env.default_config with
            W.Env.kind;
            cpus = p.cpus;
            seed = p.seed;
            total_pages = 65_536;
            tiebreak = Sim.Engine.Shuffle 1;
            rcu_config =
              {
                W.Endurance.throttled_rcu with
                Rcu.stall_timeout_ns = Some (max 1 (duration_ns / 8));
              };
            prof;
            track_readers = true;
          }
      in
      let oracle = Check.Shadow.install env in
      let orc =
        Check.Oracles.install
          (Check.Oracles.default_config ~duration_ns)
          env
      in
      Sim.Engine.set_observer
        (Sim.Machine.engine env.W.Env.machine)
        (Some (fun ~time:_ -> Check.Oracles.poll_stall orc));
      let r =
        W.Endurance.run env
          { W.Endurance.default_config with W.Endurance.duration_ns }
      in
      Check.Oracles.finalize orc;
      if Check.Shadow.violation_count oracle > 0
         || Check.Oracles.stall_violations orc <> []
         || Check.Oracles.cb_violations orc <> []
      then failwith "wallclock: oracle fired on the clean check scenario";
      (env, r.W.Endurance.updates)

(* Deterministic counters: pure functions of (scenario, kind, params). *)
type counters = {
  events : int;  (** Engine events executed. *)
  sim_ns : int;  (** Final virtual clock. *)
  updates : int;  (** Workload list updates completed. *)
  allocs : int;  (** Slab allocations, summed over caches. *)
  frees : int;
  deferred_frees : int;
  gps : int;  (** RCU grace periods completed. *)
}

let counters_of env updates =
  let allocs = ref 0 and frees = ref 0 and deferred = ref 0 in
  env.W.Env.backend.Slab.Backend.iter_caches (fun c ->
      let s = Slab.Slab_stats.snapshot c.Slab.Frame.stats in
      allocs := !allocs + s.Slab.Slab_stats.allocs;
      frees := !frees + s.Slab.Slab_stats.frees;
      deferred := !deferred + s.Slab.Slab_stats.deferred_frees);
  {
    events = Sim.Engine.executed env.W.Env.eng;
    sim_ns = Sim.Engine.now env.W.Env.eng;
    updates;
    allocs = !allocs;
    frees = !frees;
    deferred_frees = !deferred;
    gps = (Rcu.stats env.W.Env.rcu).Rcu.gps_completed;
  }

type measurement = {
  scenario : scenario;
  alloc_label : string;  (** "slub" / "prudence". *)
  wall_s : float;  (** Best (minimum) wall time over the runs. *)
  minor_words : float;  (** GC minor-heap words allocated (first run). *)
  top_heap_words : int;
      (** Major-heap peak of the child that ran this measurement, set-up
          included. The child's count starts from the parent's at the
          fork, and in the [perf] command that still reads 0 at every
          fork, so the row is the scenario's own: one [Env.build] of
          the default config at 2 CPUs alone reaches 224,630 words. *)
  c : counters;
}

let measure_here (p : Core.Experiments.params) scenario kind =
  let det = ref None in
  let best_wall = ref infinity in
  let minor = ref 0. in
  for run = 1 to max 1 p.runs do
    Gc.compact ();
    let w0 = Unix.gettimeofday () in
    let m0 = Gc.minor_words () in
    let env, updates = run_once p scenario kind in
    let m1 = Gc.minor_words () in
    let w1 = Unix.gettimeofday () in
    let c = counters_of env updates in
    (match !det with
    | None ->
        det := Some c;
        minor := m1 -. m0
    | Some prev ->
        if prev <> c then
          failwith
            (Printf.sprintf
               "wallclock: deterministic counters changed on %s/%s run %d \
                (simulation is not replay-stable)"
               (scenario_name scenario)
               (W.Env.kind_label kind) run));
    if w1 -. w0 < !best_wall then best_wall := w1 -. w0
  done;
  {
    scenario;
    alloc_label = W.Env.kind_label kind;
    wall_s = !best_wall;
    minor_words = !minor;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    c = Option.get !det;
  }

(* Each measurement runs in a forked child, as bench/e2e runs each
   repetition in a fresh process, so its [top_heap_words] is its own
   peak rather than the largest of every scenario measured before it
   (the child's count starts from the parent's at the fork, which the
   `perf` command leaves at 0). The child marshals the measurement back
   over a pipe and leaves with [Unix._exit], so no [at_exit] handler
   runs twice. *)
let measure p scenario kind =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let code =
        match measure_here p scenario kind with
        | m ->
            Marshal.to_channel oc (m : measurement) [];
            close_out oc;
            0
        | exception e ->
            prerr_endline (Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let m = try Some (Marshal.from_channel ic : measurement) with _ -> None in
      close_in ic;
      match (snd (Unix.waitpid [] pid), m) with
      | Unix.WEXITED 0, Some m -> m
      | _ ->
          failwith
            (Printf.sprintf "wallclock: the %s/%s measurement failed"
               (scenario_name scenario) (W.Env.kind_label kind)))

let events_per_sec m =
  if m.wall_s <= 0. then 0. else float_of_int m.c.events /. m.wall_s

let sim_ns_per_wall_ms m =
  if m.wall_s <= 0. then 0.
  else float_of_int m.c.sim_ns /. (m.wall_s *. 1e3)

let words_per_update m =
  if m.c.updates = 0 then 0. else m.minor_words /. float_of_int m.c.updates

(* The §6-style overhead figure: simulator minor-heap words allocated per
   engine event. The event count is deterministic and the allocation
   profile is replay-stable for a given compiler, so unlike the wall
   readings this gates — Lower_better with slack for codegen drift across
   compiler point releases. *)
let allocs_per_event m =
  if m.c.events = 0 then 0. else m.minor_words /. float_of_int m.c.events

(* 10%: the event heap's hot path allocates no per-event record, so
   the steady-state figure leaves headroom below the baseline. *)
let allocs_per_event_tolerance_pct = 10.

let run_all ?(scenarios = all_scenarios) p =
  List.concat_map
    (fun s ->
      List.map
        (fun k -> measure p s k)
        [ W.Env.Baseline; W.Env.Prudence_alloc ])
    scenarios

let table ms =
  let row m =
    [
      scenario_name m.scenario;
      m.alloc_label;
      Printf.sprintf "%.1f" (m.wall_s *. 1e3);
      T.fmt_i m.c.events;
      T.fmt_i (int_of_float (events_per_sec m));
      T.fmt_i (int_of_float (sim_ns_per_wall_ms m));
      T.fmt_i m.c.updates;
      Printf.sprintf "%.0f" (words_per_update m);
      Printf.sprintf "%.1f" (allocs_per_event m);
      T.fmt_i m.c.gps;
    ]
  in
  T.render
    ~header:
      [
        "scenario"; "alloc"; "wall ms"; "events"; "events/s";
        "sim-ns/wall-ms"; "updates"; "words/update"; "words/event"; "GPs";
      ]
    (List.map row ms)

let metrics ms =
  List.concat_map
    (fun m ->
      let pre =
        Printf.sprintf "wallclock.%s.%s" (scenario_name m.scenario)
          m.alloc_label
      in
      let exact name v =
        R.metric ~direction:R.Exact ~tolerance_pct:0. (pre ^ "." ^ name) v
      in
      let info name v = R.metric ~direction:R.Info (pre ^ "." ^ name) v in
      let gated_lower name tol v =
        R.metric ~direction:R.Lower_better ~tolerance_pct:tol
          (pre ^ "." ^ name) v
      in
      [
        exact "events" (float_of_int m.c.events);
        exact "sim_ns" (float_of_int m.c.sim_ns);
        exact "updates" (float_of_int m.c.updates);
        exact "allocs" (float_of_int m.c.allocs);
        exact "frees" (float_of_int m.c.frees);
        exact "deferred_frees" (float_of_int m.c.deferred_frees);
        exact "gps" (float_of_int m.c.gps);
        gated_lower "allocs_per_event" allocs_per_event_tolerance_pct
          (allocs_per_event m);
        info "wall_ms" (m.wall_s *. 1e3);
        info "events_per_sec" (events_per_sec m);
        info "sim_ns_per_wall_ms" (sim_ns_per_wall_ms m);
        info "minor_words" m.minor_words;
        info "words_per_update" (words_per_update m);
        info "top_heap_words" (float_of_int m.top_heap_words);
      ])
    ms

let to_bench (p : Core.Experiments.params) ms =
  Stats.Bench_json.make
    ~config:
      {
        Stats.Bench_json.seed = p.seed;
        scale = p.scale;
        cpus = p.cpus;
        runs = p.runs;
      }
    ~metrics:(metrics ms)
