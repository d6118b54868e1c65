(* lib/obs: grace-period anatomy schema, recorder purity, and the
   forensic-bundle pipeline (determinism + postmortem rendering). *)

module W = Workloads
module Sweep = Check.Sweep

let small_params =
  { Core.Chaos.seed = 42; cpus = 4; scale = 0.01; ring = 2_048 }

(* Every backend reports the same five-phase schema: per phase, the
   sample count equals the reuse count (minus drops), and the clamped
   edges make the phase sums add up exactly to the total. *)
let test_anatomy_schema_all_backends () =
  let outcomes =
    Core.Chaos.run ~obs:true ~kinds:W.Env.all_kinds small_params
      [ W.Chaos.Clean ]
  in
  Alcotest.(check int) "four backends" 4 (List.length outcomes);
  List.iter
    (fun (o : W.Chaos.outcome) ->
      let label = o.W.Chaos.label in
      let obs = W.Env.anatomy o.W.Chaos.env in
      let reuses = Obs.Anatomy.reuses obs in
      Alcotest.(check bool) (label ^ ": observed reuses") true (reuses > 0);
      Alcotest.(check int) (label ^ ": no dropped tokens") 0
        (Obs.Anatomy.dropped obs);
      let total = Obs.Anatomy.total_hist obs in
      List.iter
        (fun p ->
          let h = Obs.Anatomy.phase_hist obs p in
          Alcotest.(check int)
            (Printf.sprintf "%s: %s count" label (Obs.Phase.name p))
            (Trace.Hist.count total) (Trace.Hist.count h))
        Obs.Phase.all;
      Alcotest.(check int)
        (label ^ ": phase sums == total, exactly")
        (Trace.Hist.sum total)
        (Obs.Anatomy.phase_sum obs))
    outcomes;
  Alcotest.(check bool) "sum identity verdict" true
    (Core.Chaos.anatomy_ok outcomes)

(* The RCU-backed schemes must attribute QS collection to real grace
   periods: the worst completed GP names a holdout CPU. *)
let test_worst_gp_names_holdout () =
  let outcomes =
    Core.Chaos.run ~obs:true ~kinds:[ W.Env.Baseline; W.Env.Prudence_alloc ]
      small_params [ W.Chaos.Clean ]
  in
  List.iter
    (fun (o : W.Chaos.outcome) ->
      match Obs.Anatomy.worst_gp (W.Env.anatomy o.W.Chaos.env) with
      | None -> Alcotest.fail "no completed grace period recorded"
      | Some g ->
          Alcotest.(check bool) "holdout cpu named" true
            (g.Obs.Anatomy.holdout_cpu >= 0);
          Alcotest.(check bool) "complete after start" true
            (g.Obs.Anatomy.complete_ns >= g.Obs.Anatomy.start_ns))
    outcomes

(* One stalled-reader run of [kind], with every reclamation tap
   subscriber armed (shadow heap, pattern oracles, reader checker,
   anatomy recorder) or none of them. *)
let observed_run ~armed kind =
  let chaos = Core.Chaos.config_for small_params W.Chaos.Stalled_reader in
  let env =
    W.Env.build
      {
        W.Env.default_config with
        W.Env.kind;
        cpus = chaos.W.Chaos.cpus;
        seed = chaos.W.Chaos.seed;
        total_pages = chaos.W.Chaos.total_pages;
        rcu_config =
          {
            Rcu.default_config with
            Rcu.stall_timeout_ns = Some chaos.W.Chaos.stall_timeout_ns;
          };
        track_readers = armed;
        obs = armed;
      }
  in
  let shadow =
    if armed then begin
      let orc =
        Check.Oracles.install
          (Check.Oracles.default_config ~duration_ns:chaos.W.Chaos.duration_ns)
          env
      in
      Sim.Engine.set_observer env.W.Env.eng
        (Some (fun ~time:_ -> Check.Oracles.poll_stall orc));
      Some (Check.Shadow.install env)
    end
    else None
  in
  ignore
    (Faults.Injector.install ~pressure:env.W.Env.pressure
       (W.Chaos.plan_for chaos) ~machine:env.W.Env.machine
       ~buddy:env.W.Env.buddy ~rcu:env.W.Env.rcu);
  let r =
    W.Endurance.run env
      { W.Endurance.default_config with
        W.Endurance.duration_ns = chaos.W.Chaos.duration_ns }
  in
  (env, r, shadow)

let deterministic_counters ((env : W.Env.t), (r : W.Endurance.result), _) =
  let slab = ref [] in
  env.W.Env.backend.Slab.Backend.iter_caches (fun c ->
      let s = Slab.Slab_stats.snapshot c.Slab.Frame.stats in
      slab :=
        s.Slab.Slab_stats.allocs :: s.Slab.Slab_stats.frees
        :: s.Slab.Slab_stats.deferred_frees :: s.Slab.Slab_stats.grows
        :: Slab.Frame.latent_total c :: !slab);
  let rcu = Rcu.stats env.W.Env.rcu in
  [
    r.W.Endurance.updates;
    Option.value r.W.Endurance.oom_at_ns ~default:(-1);
    Sim.Engine.executed env.W.Env.eng;
    Sim.Engine.now env.W.Env.eng;
    W.Env.used_bytes env;
    rcu.Rcu.gps_completed;
    rcu.Rcu.cbs_invoked;
    rcu.Rcu.stall_warnings;
    List.length (W.Env.safety_violations env);
  ]
  @ !slab

(* Pure observation: arming every tap subscriber must not change any
   deterministic outcome of the run, on any backend. *)
let test_recorder_off_identical_counters () =
  List.iter
    (fun kind ->
      let label = W.Env.kind_label kind in
      let on = observed_run ~armed:true kind
      and off = observed_run ~armed:false kind in
      Alcotest.(check (list int))
        (label ^ ": counters") (deterministic_counters off)
        (deterministic_counters on);
      let env, _, shadow = on in
      Alcotest.(check bool) (label ^ ": shadow saw traffic") true
        (Check.Shadow.events (Option.get shadow) > 0);
      Alcotest.(check bool) (label ^ ": recorder saw traffic") true
        (Obs.Anatomy.reuses (W.Env.anatomy env) > 0))
    W.Env.all_kinds

let bundle_case_config dir =
  {
    Sweep.default_config with
    Sweep.scenarios = [ W.Chaos.Clean ];
    kinds = [ W.Env.Prudence_alloc ];
    sweeps = 1;
    cpus = 2;
    duration_ns = 5_000_000;
    mutation = Sweep.Skip_gp;
    bundle_dir = Some dir;
  }

let bundle_case =
  { Sweep.scenario = W.Chaos.Clean; kind = W.Env.Prudence_alloc;
    shuffle_seed = 1 }

let tmp_dir name =
  let d = Filename.concat (Filename.get_temp_dir_name ()) name in
  (try Sys.mkdir d 0o755 with Sys_error _ -> ());
  d

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Same seed + same violation => byte-identical bundle NDJSON. *)
let test_bundle_deterministic () =
  let run dir =
    let v = Sweep.run_case (bundle_case_config dir) bundle_case in
    Alcotest.(check bool) "case fails under skip-gp" false (Sweep.ok v);
    match v.Sweep.bundle with
    | None -> Alcotest.fail "failing case produced no bundle"
    | Some path -> read_file path
  in
  let a = run (tmp_dir "obs-bundle-a") in
  let b = run (tmp_dir "obs-bundle-b") in
  Alcotest.(check bool) "bundle non-empty" true (String.length a > 0);
  Alcotest.(check string) "byte-identical across re-runs" a b

(* A passing case writes nothing even with the dump armed. *)
let test_no_bundle_on_pass () =
  let dir = tmp_dir "obs-bundle-pass" in
  let cfg =
    { (bundle_case_config dir) with Sweep.mutation = Sweep.No_mutation }
  in
  let v = Sweep.run_case cfg bundle_case in
  Alcotest.(check bool) "clean case passes" true (Sweep.ok v);
  Alcotest.(check bool) "no bundle path" true (v.Sweep.bundle = None)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The bundle round-trips through the postmortem renderer: the header
   validates, and the timeline names CPUs, offending objects and the
   implicated grace-period cookie. *)
let test_postmortem_renders () =
  let dir = tmp_dir "obs-bundle-render" in
  let v = Sweep.run_case (bundle_case_config dir) bundle_case in
  let path = Option.get v.Sweep.bundle in
  let content = read_file path in
  match Obs.Bundle.render content with
  | Error e -> Alcotest.fail ("render failed: " ^ e)
  | Ok text ->
      List.iter
        (fun sub ->
          Alcotest.(check bool) ("mentions " ^ sub) true (contains ~sub text))
        [
          Obs.Bundle.version; "reason:   oracle-violation"; "timeline";
          "cpu 0:"; "object lineages"; "cookie"; "grace-period anatomy";
          "metric snapshot"; "replay:";
        ]

let test_bundle_rejects_garbage () =
  (match Obs.Bundle.render "not json" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  match Obs.Bundle.render "{\"type\":\"bundle\",\"version\":\"nope/9\"}" with
  | Ok _ -> Alcotest.fail "accepted wrong version"
  | Error e ->
      Alcotest.(check bool) "names the version" true
        (contains ~sub:"unsupported bundle version" e)

(* The obs.* metrics register exactly when the recorder is armed, so a
   recorder-off registry snapshot is byte-identical to the seed's. *)
let test_obs_metrics_gated () =
  let cfg = Core.Chaos.config_for small_params W.Chaos.Clean in
  let names on =
    let o = W.Chaos.run_one { cfg with W.Chaos.obs = on } W.Env.Prudence_alloc in
    List.filter_map
      (fun (name, _) ->
        if String.length name >= 4 && String.sub name 0 4 = "obs." then
          Some name
        else None)
      (Stats.Providers.metrics o.W.Chaos.env)
  in
  Alcotest.(check (list string)) "no obs.* metrics when off" [] (names false);
  let on = names true in
  Alcotest.(check bool) "obs.* metrics when armed" true
    (List.mem "obs.qs-collection.p99_ns" on && List.mem "obs.defers" on)

let suite =
  [
    Alcotest.test_case "anatomy: one schema across all four backends" `Slow
      test_anatomy_schema_all_backends;
    Alcotest.test_case "anatomy: worst GP names its holdout CPU" `Slow
      test_worst_gp_names_holdout;
    Alcotest.test_case "recorder off/on: identical deterministic counters"
      `Slow test_recorder_off_identical_counters;
    Alcotest.test_case "bundle: byte-identical across re-runs" `Slow
      test_bundle_deterministic;
    Alcotest.test_case "bundle: none written for passing cases" `Slow
      test_no_bundle_on_pass;
    Alcotest.test_case "postmortem: renders timeline, lineage, anatomy" `Slow
      test_postmortem_renders;
    Alcotest.test_case "bundle: rejects garbage and wrong versions" `Quick
      test_bundle_rejects_garbage;
    Alcotest.test_case "stats: obs.* metrics gated on the recorder" `Slow
      test_obs_metrics_gated;
  ]
