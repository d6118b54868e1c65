type config = {
  duration_ns : int;
  update_interval_ns : int;
  obj_size : int;
  sample_period_ns : int;
  list_len : int;
}

let throttled_rcu =
  {
    Rcu.default_config with
    Rcu.blimit = 10;
    expedited_blimit = 30;
    softirq_period_ns = 1_000_000;
    qhimark = max_int;
  }

let default_config =
  {
    duration_ns = Sim.Clock.s 20;
    update_interval_ns = 20_000 (* 50k updates/s per cpu *);
    obj_size = 512;
    sample_period_ns = Sim.Clock.ms 10;
    list_len = 64;
  }

type result = {
  label : string;
  series : (int * float) array;
  oom_at_ns : int option;
  peak_used_mib : float;
  final_used_mib : float;
  updates : int;
  expedited_transitions : int;
  max_backlog : int;
  slab_churns : int;
  safety_violations : int;
}

let run (env : Env.t) (cfg : config) =
  let backend = env.Env.backend in
  let cache =
    backend.Slab.Backend.create_cache ~name:"endurance" ~obj_size:cfg.obj_size
  in
  let ncpus = Sim.Machine.nr_cpus env.Env.machine in
  let updates = ref 0 in
  (* Sample total used memory every 10 ms, like Fig. 3. *)
  let series = Sim.Series.create () in
  Sim.Series.sample_every env.Env.eng series ~period:cfg.sample_period_ns
    (fun () -> float_of_int (Env.used_bytes env) /. (1024. *. 1024.));
  (* Each CPU updates its own list (no list-lock contention, §3.5). *)
  for i = 0 to ncpus - 1 do
    let cpu = Env.cpu env i in
    let rng = Sim.Rng.split env.Env.rng in
    Sim.Process.spawn env.Env.eng (fun () ->
        let list =
          Rcudata.Rculist.create ~backend ~readers:env.Env.readers ~cache
            ~name:(Printf.sprintf "endurance-%d" i)
        in
        (try
           for k = 0 to cfg.list_len - 1 do
             if not (Rcudata.Rculist.insert list cpu ~key:k ~value:0) then
               raise Exit
           done;
           while
             Sim.Engine.now env.Env.eng < cfg.duration_ns
             && not (Sim.Engine.stopped env.Env.eng)
           do
             let key = Sim.Rng.int rng cfg.list_len in
             (match
                Rcudata.Rculist.update list cpu ~key
                  ~value:(Sim.Rng.int rng 1000)
              with
             | `Updated -> incr updates
             | `Absent -> ()
             | `Oom ->
                 Mem.Pressure.declare_oom env.Env.pressure
                   ~now:(Sim.Engine.now env.Env.eng);
                 Sim.Engine.stop env.Env.eng;
                 raise Exit);
             Sim.Process.sleep env.Env.eng
               (cfg.update_interval_ns + Sim.Machine.drain cpu)
           done
         with Exit -> ()))
  done;
  Sim.Engine.run ~until:cfg.duration_ns env.Env.eng;
  let arr = Sim.Series.to_array series in
  let peak = Sim.Series.max_value series in
  let final = match Sim.Series.last series with Some (_, v) -> v | None -> 0. in
  let rcu_stats = Rcu.stats env.Env.rcu in
  {
    label = backend.Slab.Backend.label;
    series = arr;
    oom_at_ns = Mem.Pressure.oom_time env.Env.pressure;
    peak_used_mib = peak;
    final_used_mib = final;
    updates = !updates;
    expedited_transitions = rcu_stats.Rcu.expedited_transitions;
    max_backlog = rcu_stats.Rcu.max_backlog;
    slab_churns =
      Slab.Slab_stats.slab_churns (Slab.Slab_stats.snapshot cache.Slab.Frame.stats);
    safety_violations = List.length (Env.safety_violations env);
  }
