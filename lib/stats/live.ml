type config = {
  kind : Workloads.Env.kind;
  seed : int;
  cpus : int;
  scale : float;
  duration_ns : int;
  sample_every_ns : int;
  capacity : int;
  total_pages : int;
}

let default_config =
  {
    kind = Workloads.Env.Prudence_alloc;
    seed = 42;
    cpus = 8;
    scale = 1.0;
    duration_ns = Sim.Clock.s 2;
    sample_every_ns = Sim.Clock.ms 10;
    capacity = 4096;
    total_pages = 65_536;
  }

type result = {
  label : string;
  env : Workloads.Env.t;
  registry : Registry.t;
  sampler : Sim.Sampler.t;
  watch : Providers.slabwatch;
  updates : int;
  oom_at_ns : int option;
}

let env_config cfg =
  {
    Workloads.Env.default_config with
    Workloads.Env.kind = cfg.kind;
    cpus = cfg.cpus;
    seed = cfg.seed;
    total_pages = cfg.total_pages;
    (* The Fig. 3 throttled callbacks: on the baseline they produce the
       climbing backlog and occupancy the stat views exist to show. *)
    rcu_config = Workloads.Endurance.throttled_rcu;
  }

let endurance_config cfg =
  {
    Workloads.Endurance.default_config with
    Workloads.Endurance.duration_ns =
      max 1 (int_of_float (float_of_int cfg.duration_ns *. cfg.scale));
  }

let run ?on_watch ?watch_every_ns cfg =
  let env = Workloads.Env.build (env_config cfg) in
  let registry = Registry.create () in
  Providers.register_env registry env;
  let sampler =
    Sim.Sampler.create env.Workloads.Env.eng ~capacity:cfg.capacity
      ~period_ns:cfg.sample_every_ns ()
  in
  ignore (Registry.attach registry sampler);
  Sim.Sampler.start sampler;
  let watch = Providers.slabwatch () in
  Option.iter
    (fun hook ->
      let period =
        Option.value watch_every_ns ~default:(cfg.sample_every_ns * 10)
      in
      Sim.Engine.every env.Workloads.Env.eng ~period (fun () ->
          hook
            ~time_ns:(Sim.Engine.now env.Workloads.Env.eng)
            ~snapshot:(Providers.snapshot ~watch env);
          true))
    on_watch;
  let endurance = Workloads.Endurance.run env (endurance_config cfg) in
  {
    label = Workloads.Env.kind_label cfg.kind;
    env;
    registry;
    sampler;
    watch;
    updates = endurance.Workloads.Endurance.updates;
    oom_at_ns = endurance.Workloads.Endurance.oom_at_ns;
  }
