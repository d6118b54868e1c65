(* Demonstrates the idle-time latent-cache pre-flush (§4.2, "idleness is
   not sloth"): a workload that defers many objects and then idles. With
   pre-flush enabled, Prudence migrates latent objects to their slabs and
   pre-merges ripe ones during the idle window, off the critical path;
   with it disabled, the same work happens during later allocations.

   Run with: dune exec examples/idle_preflush.exe *)

module W = Workloads

let run ~preflush =
  let env =
    W.Env.build
      {
        W.Env.default_config with
        W.Env.kind = W.Env.Prudence_alloc;
        cpus = 1;
        seed = 5;
        prudence_config =
          { Prudence.default_config with Prudence.preflush_enabled = preflush };
      }
  in
  let backend = env.W.Env.backend in
  let cache = backend.Slab.Backend.create_cache ~name:"bursty" ~obj_size:512 in
  let cpu = W.Env.cpu env 0 in
  Sim.Process.spawn env.W.Env.eng (fun () ->
      for _burst = 1 to 20 do
        (* A busy burst: allocate a batch, return part of it immediately
           (object cache fills up) and defer the rest (latent cache fills
           up). Cache + latent now exceed the object-cache capacity: an
           overflow flush is foreseeable (§4.2)... *)
        let objs =
          List.init 40 (fun _ -> backend.Slab.Backend.alloc cache cpu)
        in
        List.iteri
          (fun i o ->
            if i < 15 then backend.Slab.Backend.free cache cpu o
            else backend.Slab.Backend.free_deferred cache cpu o)
          objs;
        Sim.Process.sleep env.W.Env.eng (Sim.Machine.drain cpu);
        (* ...then a short idle window (waiting for the next request) —
           shorter than a grace period, so without pre-flush the unripe
           latent objects pile up across bursts. *)
        Sim.Machine.idle_sleep env.W.Env.machine cpu (Sim.Clock.us 800)
      done);
  Sim.Engine.run_until_quiet env.W.Env.eng;
  let snap = Slab.Slab_stats.snapshot cache.Slab.Frame.stats in
  (snap, Sim.Machine.drain cpu)

let () =
  let on, _ = run ~preflush:true in
  let off, _ = run ~preflush:false in
  let open Slab.Slab_stats in
  Format.printf "idle pre-flush demonstration (20 defer bursts + idle gaps):@.@.";
  Format.printf "  %-34s %12s %12s@." "" "pre-flush on" "pre-flush off";
  Format.printf "  %-34s %12d %12d@." "pre-flush passes (idle work)"
    on.preflush_passes off.preflush_passes;
  Format.printf "  %-34s %12d %12d@." "objects migrated while idle"
    on.preflushed_objs off.preflushed_objs;
  Format.printf "  %-34s %12d %12d@." "slow-path deferred frees"
    on.latent_overflows off.latent_overflows;
  Format.printf "  %-34s %12d %12d@." "merge operations" on.merges off.merges;
  Format.printf "  %-34s %12d %12d@." "object-cache hits" on.hits off.hits;
  Format.printf
    "@.with pre-flush, the latent cache is emptied during idle windows, so@.";
  Format.printf
    "deferred frees stay on their fast path instead of flushing, merging@.";
  Format.printf "and demoting objects inside the critical section.@."
