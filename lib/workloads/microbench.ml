type config = {
  pairs_per_cpu : int;
  obj_size : int;
  ops_per_quantum : int;
  op_work_ns : int;
}

let default_config =
  { pairs_per_cpu = 20_000; obj_size = 512; ops_per_quantum = 8; op_work_ns = 150 }

type result = {
  label : string;
  obj_size : int;
  pairs : int;
  duration_ns : int;
  pairs_per_sec : float;
  oom : bool;
  snap : Slab.Slab_stats.snapshot;
  lock_contended : int;
  lock_wait_ns : int;
  rcu : Rcu.stats;
}

let run (env : Env.t) (cfg : config) =
  let backend = env.Env.backend in
  let cache =
    backend.Slab.Backend.create_cache
      ~name:(Slab.Size_class.kmalloc_cache_name cfg.obj_size)
      ~obj_size:cfg.obj_size
  in
  let ncpus = Sim.Machine.nr_cpus env.Env.machine in
  let completed = ref 0 in
  let finish_times = ref [] in
  let oom = ref false in
  for i = 0 to ncpus - 1 do
    let cpu = Env.cpu env i in
    Sim.Process.spawn env.Env.eng (fun () ->
        let pairs_done = ref 0 in
        (try
           while !pairs_done < cfg.pairs_per_cpu do
             let quantum = min cfg.ops_per_quantum (cfg.pairs_per_cpu - !pairs_done) in
             for _ = 1 to quantum do
               match backend.Slab.Backend.alloc cache cpu with
               | Some obj ->
                   (* the "list update" the pair models *)
                   Sim.Machine.consume cpu cfg.op_work_ns;
                   backend.Slab.Backend.free_deferred cache cpu obj;
                   incr pairs_done
               | None ->
                   oom := true;
                   raise Exit
             done;
             Sim.Process.sleep env.Env.eng (Sim.Machine.drain cpu)
           done
         with Exit -> ());
        completed := !completed + !pairs_done;
        finish_times := Sim.Engine.now env.Env.eng :: !finish_times)
  done;
  (* Drive the simulation until every CPU loop has finished (daemon events
     such as scheduler ticks do not keep it alive). *)
  Sim.Engine.run_until_quiet env.Env.eng;
  let duration = List.fold_left max 0 !finish_times in
  let duration = max duration 1 in
  (* Settle deferred objects outside the timed region, as the paper does. *)
  Sim.Process.spawn env.Env.eng (fun () -> backend.Slab.Backend.settle ());
  Sim.Engine.run_until_quiet env.Env.eng;
  let contended, wait = Env.node_lock_stats cache in
  {
    label = backend.Slab.Backend.label;
    obj_size = cfg.obj_size;
    pairs = !completed;
    duration_ns = duration;
    pairs_per_sec = float_of_int !completed /. (float_of_int duration /. 1e9);
    oom = !oom;
    snap = Slab.Slab_stats.snapshot cache.Slab.Frame.stats;
    lock_contended = contended;
    lock_wait_ns = wait;
    rcu = Rcu.stats env.Env.rcu;
  }
