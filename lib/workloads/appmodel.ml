type 'cache step =
  | Acquire of 'cache
  | Release of 'cache
  | Release_deferred of 'cache
  | Release_newest of 'cache
  | Work of int

type op = string step

type cache_spec = { cache_name : string; obj_size : int }

type config = {
  bench_name : string;
  caches : cache_spec list;
  standing : (string * int) list;
      (* Objects acquired per CPU at startup and held for the whole run:
         listening sockets, open connections, resident files. They make
         end-of-run "requested bytes" non-zero, as in the paper's runs. *)
  txns : op list array;
  next_txn : Sim.Rng.t -> int;
  txns_per_cpu : int;
  think_ns_mean : float;
}

type cache_result = {
  cache_name : string;
  snap : Slab.Slab_stats.snapshot;
  fragmentation : float;
  lock_contended : int;
  lock_wait_ns : int;
}

(* Running mean of a cache's fragmentation, sampled during the run (the
   end-of-run pools can be empty, which would make the §4.2 ratio
   undefined). *)
type frag_meter = { mutable sum : float; mutable n : int }

type result = {
  label : string;
  bench_name : string;
  txns : int;
  duration_ns : int;
  throughput : float;
  deferred_pct : float;
  caches : cache_result list;
  oom : bool;
  safety_violations : int;
}

let run (env : Env.t) (cfg : config) =
  (* Resolve every cache name once, before anything is created or run,
     so the per-op path indexes arrays and never compares strings. *)
  let index name =
    let rec find i = function
      | [] -> invalid_arg (Printf.sprintf "Appmodel: unknown cache %s" name)
      | (spec : cache_spec) :: rest ->
          if String.equal spec.cache_name name then i else find (i + 1) rest
    in
    find 0 cfg.caches
  in
  let compile = function
    | Acquire name -> Acquire (index name)
    | Release name -> Release (index name)
    | Release_deferred name -> Release_deferred (index name)
    | Release_newest name -> Release_newest (index name)
    | Work ns -> Work ns
  in
  let shapes =
    Array.map (fun ops -> Array.of_list (List.map compile ops)) cfg.txns
  in
  let standing =
    List.map (fun (name, count) -> (index name, count)) cfg.standing
  in
  let backend = env.Env.backend in
  let caches =
    Array.of_list
      (List.map
         (fun (spec : cache_spec) ->
           backend.Slab.Backend.create_cache ~name:spec.cache_name
             ~obj_size:spec.obj_size)
         cfg.caches)
  in
  let ncpus = Sim.Machine.nr_cpus env.Env.machine in
  let txns = ref 0 in
  let oom = ref false in
  let finish_times = ref [] in
  let frag_meters = Array.map (fun _ -> { sum = 0.; n = 0 }) caches in
  Sim.Engine.every env.Env.eng ~period:1_000_000 (fun () ->
      Array.iteri
        (fun c cache ->
          let f = Slab.Frame.fragmentation cache in
          if not (Float.is_nan f) then begin
            let m = frag_meters.(c) in
            m.sum <- m.sum +. f;
            m.n <- m.n + 1
          end)
        caches;
      true);
  for i = 0 to ncpus - 1 do
    let cpu = Env.cpu env i in
    let rng = Sim.Rng.split env.Env.rng in
    Sim.Process.spawn env.Env.eng (fun () ->
        (* This CPU's held objects, one deque per cache, oldest first:
           transactions release oldest-first (typical kernel lifetimes)
           or newest-first (scratch buffers). *)
        let pools = Array.map (fun _ -> Sim.Deque.create ()) caches in
        (try
           List.iter
             (fun (c, count) ->
               for _ = 1 to count do
                 match backend.Slab.Backend.alloc caches.(c) cpu with
                 | _obj -> () (* held for the whole run *)
                 | exception Slab.Frame.Oom ->
                     oom := true;
                     raise Exit
               done)
             standing;
           for _ = 1 to cfg.txns_per_cpu do
             let shape = shapes.(cfg.next_txn rng) in
             for j = 0 to Array.length shape - 1 do
               match shape.(j) with
               | Acquire c -> (
                   match backend.Slab.Backend.alloc caches.(c) cpu with
                   | obj -> Sim.Deque.push_back pools.(c) obj
                   | exception Slab.Frame.Oom ->
                       oom := true;
                       raise Exit)
               | Release c ->
                   if not (Sim.Deque.is_empty pools.(c)) then
                     backend.Slab.Backend.free caches.(c) cpu
                       (Sim.Deque.pop_front_exn pools.(c))
               | Release_newest c ->
                   if not (Sim.Deque.is_empty pools.(c)) then
                     backend.Slab.Backend.free caches.(c) cpu
                       (Sim.Deque.pop_back_exn pools.(c))
               | Release_deferred c ->
                   if not (Sim.Deque.is_empty pools.(c)) then
                     backend.Slab.Backend.free_deferred caches.(c) cpu
                       (Sim.Deque.pop_front_exn pools.(c))
               | Work ns -> Sim.Machine.consume cpu ns
             done;
             incr txns;
             (* Charge the transaction's accumulated cost, then think
                (idle: pre-flush opportunity). *)
             Sim.Process.sleep env.Env.eng (Sim.Machine.drain cpu);
             let think =
               int_of_float
                 (Sim.Rng.exponential rng ~mean:cfg.think_ns_mean)
             in
             Sim.Machine.idle_sleep env.Env.machine cpu think
           done
         with Exit -> ());
        finish_times := Sim.Engine.now env.Env.eng :: !finish_times)
  done;
  Sim.Engine.run_until_quiet env.Env.eng;
  let duration = max 1 (List.fold_left max 0 !finish_times) in
  (* Settle deferred objects before the end-of-run measurements (§5.4
     measures fragmentation "after the completion of each run"). *)
  Sim.Process.spawn env.Env.eng (fun () -> backend.Slab.Backend.settle ());
  Sim.Engine.run_until_quiet env.Env.eng;
  let total_frees, total_deferred =
    Array.fold_left
      (fun (f, d) cache ->
        let s = Slab.Slab_stats.snapshot cache.Slab.Frame.stats in
        (f + s.Slab.Slab_stats.frees, d + s.Slab.Slab_stats.deferred_frees))
      (0, 0) caches
  in
  {
    label = backend.Slab.Backend.label;
    bench_name = cfg.bench_name;
    txns = !txns;
    duration_ns = duration;
    throughput = float_of_int !txns /. (float_of_int duration /. 1e9);
    deferred_pct =
      (if total_frees + total_deferred = 0 then 0.
       else
         100.
         *. float_of_int total_deferred
         /. float_of_int (total_frees + total_deferred));
    caches =
      List.mapi
        (fun c (spec : cache_spec) ->
          let cache = caches.(c) in
          let contended, wait = Env.node_lock_stats cache in
          let meter = frag_meters.(c) in
          let sampled_frag =
            if meter.n = 0 then Slab.Frame.fragmentation cache
            else meter.sum /. float_of_int meter.n
          in
          {
            cache_name = spec.cache_name;
            snap = Slab.Slab_stats.snapshot cache.Slab.Frame.stats;
            fragmentation = sampled_frag;
            lock_contended = contended;
            lock_wait_ns = wait;
          })
        cfg.caches;
    oom = !oom;
    safety_violations = List.length (Env.safety_violations env);
  }
