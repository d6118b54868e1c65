(* Full-stack torture tests: concurrent readers and updaters over the RCU
   data structures, with the premature-reuse checker armed, on both
   allocators. *)

module W = Workloads

let torture kind =
  let env =
    W.Env.build
      {
        W.Env.default_config with
        W.Env.kind;
        cpus = 4;
        seed = 23;
        total_pages = 32_768;
        tick_ns = 500_000;
        track_readers = true;
      }
  in
  let backend = env.W.Env.backend in
  let cache = backend.Slab.Backend.create_cache ~name:"torture" ~obj_size:192 in
  let table =
    Rcudata.Rcuhash.create ~backend ~readers:env.W.Env.readers ~cache
      ~buckets:32 ~name:"torture"
  in
  let horizon = Sim.Clock.ms 80 in
  let lookups = ref 0 and mutations = ref 0 in
  (* CPU 0 and 1: updaters (insert/update/delete mix). *)
  for i = 0 to 1 do
    Sim.Process.spawn env.W.Env.eng (fun () ->
        let cpu = W.Env.cpu env i in
        let rng = Sim.Rng.split env.W.Env.rng in
        while Sim.Engine.now env.W.Env.eng < horizon do
          let key = Sim.Rng.int rng 200 in
          (match Sim.Rng.int rng 3 with
          | 0 -> ignore (Rcudata.Rcuhash.insert table cpu ~key ~value:key)
          | 1 -> ignore (Rcudata.Rcuhash.update table cpu ~key ~value:(-key))
          | _ -> ignore (Rcudata.Rcuhash.delete table cpu ~key));
          incr mutations;
          Sim.Process.sleep env.W.Env.eng (2_000 + Sim.Machine.drain cpu)
        done)
  done;
  (* CPU 2 and 3: readers, sometimes dwelling inside the critical section
     (delaying grace periods). *)
  for i = 2 to 3 do
    Sim.Process.spawn env.W.Env.eng (fun () ->
        let cpu = W.Env.cpu env i in
        let rng = Sim.Rng.split env.W.Env.rng in
        while Sim.Engine.now env.W.Env.eng < horizon do
          ignore (Rcudata.Rcuhash.lookup table cpu ~key:(Sim.Rng.int rng 200));
          incr lookups;
          Sim.Process.sleep env.W.Env.eng (1_500 + Sim.Machine.drain cpu)
        done)
  done;
  Sim.Engine.run_until_quiet ~horizon:(2 * horizon) env.W.Env.eng;
  (* settle everything deferred, then check the world *)
  Sim.Process.spawn env.W.Env.eng (fun () -> backend.Slab.Backend.settle ());
  Sim.Engine.run_until_quiet ~horizon:(4 * horizon) env.W.Env.eng;
  Alcotest.(check bool) "mutations happened" true (!mutations > 1_000);
  Alcotest.(check bool) "lookups happened" true (!lookups > 1_000);
  Alcotest.(check (list string)) "no safety violations" []
    (W.Env.safety_violations env);
  Test_util.audit_clean (Check.Audit.slab ~rcu:env.W.Env.rcu cache);
  Alcotest.(check int) "no leftover rcu callbacks" 0
    (Rcu.pending_callbacks env.W.Env.rcu);
  (* Everything still in the table is live; everything else reclaimed. *)
  Alcotest.(check int) "live = table size" (Rcudata.Rcuhash.size table)
    (Slab.Frame.live_objects cache)

let test_torture_slub () = torture W.Env.Baseline
let test_torture_prudence () = torture W.Env.Prudence_alloc

(* The readers in a long critical section must stall reclamation on both
   backends; memory is only reusable after they exit. *)
let gp_stall kind =
  let env =
    W.Env.build
      {
        W.Env.default_config with
        W.Env.kind;
        cpus = 2;
        seed = 9;
        track_readers = true;
      }
  in
  let backend = env.W.Env.backend in
  let cache = backend.Slab.Backend.create_cache ~name:"stall" ~obj_size:256 in
  let c0 = W.Env.cpu env 0 and c1 = W.Env.cpu env 1 in
  let obj = backend.Slab.Backend.alloc cache c0 in
  let oid = Slab.Frame.oid cache obj in
  (* Reader enters and holds the object. *)
  Rcu.Readers.enter env.W.Env.readers c1;
  Rcu.Readers.hold env.W.Env.readers c1 ~oid;
  backend.Slab.Backend.free_deferred cache c0 obj;
  (* 20 ms pass; the reader never quiesces, so no grace period completes
     and the object stays unreclaimed. *)
  Sim.Engine.run ~until:(Sim.Clock.ms 20) env.W.Env.eng;
  Alcotest.(check int) "no gp while reader active" 0
    (Rcu.completed env.W.Env.rcu);
  Alcotest.(check bool) "object not reclaimed" true
    (List.mem
       (Slab.Frame.state cache obj)
       Slab.Frame.[ Allocated; In_latent_cache; In_latent_slab ]);
  Rcu.Readers.exit env.W.Env.readers c1;
  Sim.Engine.run ~until:(Sim.Clock.ms 45) env.W.Env.eng;
  Alcotest.(check bool) "gp completes after reader exits" true
    (Rcu.completed env.W.Env.rcu >= 1);
  Alcotest.(check (list string)) "no violations" []
    (W.Env.safety_violations env)

let test_gp_stall_slub () = gp_stall W.Env.Baseline
let test_gp_stall_prudence () = gp_stall W.Env.Prudence_alloc

(* Out of memory, an allocation raises [Slab.Frame.Oom] only after
   pricing itself (one [Alloc_cost] on the tap, as a success emits) and
   closing its profiler span: every allocation, the failed ones
   included, is a root [slab.alloc] frame, and a span the caller opens
   next is a root too, not a child of the failed call. *)
let oom_is_priced_and_closed kind () =
  let prof = Prof.create ~ncpus:2 () in
  let env =
    W.Env.build
      { W.Env.default_config with W.Env.kind; cpus = 2; total_pages = 64; prof }
  in
  let backend = env.W.Env.backend in
  let cache = backend.Slab.Backend.create_cache ~name:"oom" ~obj_size:4096 in
  let c = W.Env.cpu env 0 in
  let costs = ref 0 in
  Trace.Tap.subscribe (Sim.Engine.tap env.W.Env.eng)
    (fun kind ~cpu:_ ~label:_ _ _ ->
      match kind with Trace.Event.Alloc_cost -> incr costs | _ -> ());
  let held = ref 0 in
  let rec exhaust () =
    match backend.Slab.Backend.alloc cache c with
    | _ ->
        incr held;
        exhaust ()
    | exception Slab.Frame.Oom -> ()
  in
  exhaust ();
  Alcotest.(check bool) "objects were handed out first" true (!held > 0);
  Alcotest.(check int) "one Alloc_cost per call" (!held + 1) !costs;
  Alcotest.check_raises "still out of memory" Slab.Frame.Oom (fun () ->
      ignore (backend.Slab.Backend.alloc cache c));
  Alcotest.(check int) "the failed call was priced" (!held + 2) !costs;
  Prof.enter prof ~cpu:0 Prof.Span.Check_probe;
  Prof.exit prof Prof.Span.Check_probe;
  let folded = Prof.folded prof in
  Alcotest.(check (option int)) "every allocation a root frame"
    (Some (!held + 2))
    (List.assoc_opt "slab.alloc" folded);
  Alcotest.(check (option int)) "the caller's next span is a root" (Some 1)
    (List.assoc_opt "check.probe" folded);
  Alcotest.(check int) "no orphan exits" 0 (Prof.dropped_exits prof)

(* Determinism across the whole stack: identical seeds -> identical
   simulations, different seeds -> different interleavings. *)
let test_cross_stack_determinism () =
  let run seed =
    let env =
      W.Env.build
        { W.Env.default_config with W.Env.cpus = 3; seed; total_pages = 8_192 }
    in
    (* postmark's transaction mix draws from the seeded RNG *)
    let r = W.Appmodel.run env (W.Postmark.config ~txns_per_cpu:300 ()) in
    (r.W.Appmodel.duration_ns, Sim.Engine.executed env.W.Env.eng)
  in
  Alcotest.(check (pair int int)) "seed 1 reproducible" (run 1) (run 1);
  Alcotest.(check bool) "seed changes interleaving" true (run 1 <> run 2)

let suite =
  [
    Alcotest.test_case "torture: slub stack" `Slow test_torture_slub;
    Alcotest.test_case "torture: prudence stack" `Slow test_torture_prudence;
    Alcotest.test_case "reader stalls reclamation (slub)" `Quick
      test_gp_stall_slub;
    Alcotest.test_case "reader stalls reclamation (prudence)" `Quick
      test_gp_stall_prudence;
    Alcotest.test_case "OOM raises, priced and its span closed (slub)" `Quick
      (oom_is_priced_and_closed W.Env.Baseline);
    Alcotest.test_case "OOM raises, priced and its span closed (prudence)"
      `Quick
      (oom_is_priced_and_closed W.Env.Prudence_alloc);
    Alcotest.test_case "cross-stack determinism" `Slow
      test_cross_stack_determinism;
  ]
