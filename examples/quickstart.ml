(* Quickstart: build the simulated stack, allocate objects through
   Prudence, defer-free them RCU-style, and watch them become reusable
   right after the grace period completes.

   Run with: dune exec examples/quickstart.exe *)

module W = Workloads

let () =
  (* One call builds the whole stack: virtual-time engine, an 4-CPU
     machine with scheduler ticks, a buddy page allocator, RCU, and the
     allocator under test. *)
  let env =
    W.Env.build
      {
        W.Env.default_config with
        W.Env.kind = W.Env.Prudence_alloc;
        cpus = 4;
        seed = 7;
      }
  in
  let backend = env.W.Env.backend in
  let cache =
    backend.Slab.Backend.create_cache ~name:"my_objects" ~obj_size:256
  in
  let cpu = W.Env.cpu env 0 in

  (* Simulation code runs as a coroutine process over virtual time. *)
  Sim.Process.spawn env.W.Env.eng (fun () ->
      (* Allocate a batch of objects. *)
      let objs =
        List.init 10 (fun _ -> backend.Slab.Backend.alloc cache cpu)
      in
      Format.printf "t=%a  allocated 10 objects (live=%d, slabs=%d)@."
        Sim.Clock.pp
        (Sim.Engine.now env.W.Env.eng)
        (Slab.Frame.live_objects cache)
        (Slab.Frame.total_slabs cache);

      (* Defer-free them: Listing 2's turnkey replacement for call_rcu.
         The objects go into the per-CPU latent cache, stamped with the
         grace period they must wait for. *)
      List.iter (fun o -> backend.Slab.Backend.free_deferred cache cpu o) objs;
      Format.printf "t=%a  deferred 10 frees (latent=%d, rcu callbacks=%d)@."
        Sim.Clock.pp
        (Sim.Engine.now env.W.Env.eng)
        (Slab.Frame.latent_total cache)
        (Rcu.pending_callbacks env.W.Env.rcu);

      (* Wait for a grace period: every CPU passes a quiescent state. *)
      Rcu.synchronize env.W.Env.rcu;
      Format.printf "t=%a  grace period %d complete@." Sim.Clock.pp
        (Sim.Engine.now env.W.Env.eng)
        (Rcu.completed env.W.Env.rcu);

      (* The deferred objects are now merged back on demand: the very next
         allocations reuse their memory with no callback processing. *)
      let reused =
        List.init 10 (fun _ -> backend.Slab.Backend.alloc cache cpu)
      in
      let reused_ids = List.map (Slab.Frame.oid cache) reused in
      let original_ids = List.map (Slab.Frame.oid cache) objs in
      let recycled =
        List.length (List.filter (fun id -> List.mem id original_ids) reused_ids)
      in
      Format.printf "t=%a  allocated 10 more: %d of them recycle the deferred objects@."
        Sim.Clock.pp
        (Sim.Engine.now env.W.Env.eng)
        recycled;

      let snap = Slab.Slab_stats.snapshot cache.Slab.Frame.stats in
      Format.printf "@.cache stats: %a@." Slab.Slab_stats.pp snap);

  Sim.Engine.run_until_quiet env.W.Env.eng;
  Format.printf "@.simulation finished at t=%a after %d events@." Sim.Clock.pp
    (Sim.Engine.now env.W.Env.eng)
    (Sim.Engine.executed env.W.Env.eng)
