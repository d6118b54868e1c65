(* The denial-of-service scenario of §3.4: a malicious user performs
   open/close-style operations in a tight loop, generating deferred frees
   faster than RCU's throttled callback processing can reclaim them. On
   the baseline allocator the backlog's memory grows until the system hits
   OOM; Prudence reuses each deferred object right after its grace period
   and sails through.

   Run with: dune exec examples/dos_attack.exe *)

module W = Workloads

let attack_duration = Sim.Clock.s 4

let run kind =
  let env =
    W.Env.build
      {
        W.Env.default_config with
        W.Env.kind;
        cpus = 4;
        seed = 3;
        total_pages = 32_768 (* 128 MiB *);
        (* The throttled callback processing of §3.5. *)
        rcu_config = W.Endurance.throttled_rcu;
      }
  in
  let backend = env.W.Env.backend in
  let cache = backend.Slab.Backend.create_cache ~name:"filp" ~obj_size:256 in
  let opens = ref 0 in
  for i = 0 to Sim.Machine.nr_cpus env.W.Env.machine - 1 do
    Sim.Process.spawn env.W.Env.eng (fun () ->
        let cpu = W.Env.cpu env i in
        try
          while
            Sim.Engine.now env.W.Env.eng < attack_duration
            && not (Sim.Engine.stopped env.W.Env.eng)
          do
            (* open(): allocate the file object; close(): defer-free it
               (fput goes through RCU). *)
            (match backend.Slab.Backend.alloc cache cpu with
            | Some obj ->
                incr opens;
                backend.Slab.Backend.free_deferred cache cpu obj
            | None ->
                Mem.Pressure.declare_oom env.W.Env.pressure
                  ~now:(Sim.Engine.now env.W.Env.eng);
                Sim.Engine.stop env.W.Env.eng;
                raise Exit);
            Sim.Process.sleep env.W.Env.eng (2_000 + Sim.Machine.drain cpu)
          done
        with Exit -> ())
  done;
  Sim.Engine.run ~until:attack_duration env.W.Env.eng;
  (env, !opens)

let describe label (env, opens) =
  let used = float_of_int (W.Env.used_bytes env) /. (1024. *. 1024.) in
  Format.printf "  %-9s %8d open/close ops, %7.1f MiB used, backlog %7d, %s@."
    label opens used
    (Rcu.pending_callbacks env.W.Env.rcu)
    (match Mem.Pressure.oom_time env.W.Env.pressure with
    | Some t -> Format.asprintf "OOM at %a -- attack succeeded" Sim.Clock.pp t
    | None -> "survived the attack")

let () =
  Format.printf "DoS via deferred frees (%a of open/close flooding, 128 MiB RAM):@.@."
    Sim.Clock.pp attack_duration;
  describe "slub:" (run W.Env.Baseline);
  describe "prudence:" (run W.Env.Prudence_alloc)
