open Test_util
module Frame = Slab.Frame
module Stats = Slab.Slab_stats

let make ?(cpus = 2) ?(total_pages = 4096) ?(obj_size = 512) ?config () =
  let env = make_env ~cpus ~total_pages () in
  let pr = Prudence.create ?config env.fenv env.rcu in
  let cache = Prudence.create_cache pr ~name:"test" ~obj_size in
  (env, pr, cache)

let alloc_exn ?(may_wait = false) pr cache cpu =
  match Prudence.alloc pr ~may_wait cache cpu with
  | o -> o
  | exception Frame.Oom -> Alcotest.fail "unexpected OOM"

let test_cache_is_latent_aware () =
  let _env, _pr, cache = make () in
  Alcotest.(check bool) "latent aware" true cache.Frame.latent_aware

let test_alloc_free_roundtrip () =
  let env, pr, cache = make () in
  let c = cpu0 env in
  let obj = alloc_exn pr cache c in
  Prudence.free pr cache c obj;
  Alcotest.(check int) "live zero" 0 (Frame.live_objects cache);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_free_deferred_goes_latent () =
  let env, pr, cache = make () in
  let c = cpu0 env in
  let obj = alloc_exn pr cache c in
  Prudence.free_deferred pr cache c obj;
  Alcotest.(check bool) "in latent cache" true
    (obj.Frame.ostate = Frame.In_latent_cache);
  Alcotest.(check int) "no rcu callback enqueued" 0
    (Rcu.pending_callbacks env.rcu);
  Alcotest.(check int) "one latent" 1 (Prudence.latent_outstanding pr);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_not_reusable_before_gp () =
  let env, pr, cache = make () in
  let c = cpu0 env in
  let obj = alloc_exn pr cache c in
  (* Drain the object cache so the next alloc must look at the latent
     cache. *)
  let pc = Frame.pcpu_for cache c in
  let rest =
    let rec go acc =
      match Frame.pop_ocache pc with
      | Some o ->
          Frame.hand_to_user cache c o;
          go (o :: acc)
      | None -> acc
    in
    go []
  in
  Prudence.free_deferred pr cache c obj;
  let next = alloc_exn pr cache c in
  Alcotest.(check bool) "deferred object not handed out before gp" true
    (next.Frame.oid <> obj.Frame.oid);
  List.iter (fun o -> Prudence.free pr cache c o) (next :: rest);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_reusable_after_gp () =
  let env, pr, cache = make () in
  let c = cpu0 env in
  let obj = alloc_exn pr cache c in
  let pc = Frame.pcpu_for cache c in
  (* Empty the object cache (hand objects out) so merges are observable. *)
  let held =
    let rec go acc =
      match Frame.pop_ocache pc with
      | Some o ->
          Frame.hand_to_user cache c o;
          go (o :: acc)
      | None -> acc
    in
    go []
  in
  Prudence.free_deferred pr cache c obj;
  (* Run two full grace periods. *)
  Sim.Engine.run ~until:Sim.(Clock.ms 10) env.eng;
  let next = alloc_exn pr cache c in
  Alcotest.(check int) "deferred object merged and reused" obj.Frame.oid
    next.Frame.oid;
  let s = Stats.snapshot cache.Frame.stats in
  Alcotest.(check bool) "merge counted" true (s.Stats.merges >= 1);
  List.iter (fun o -> Prudence.free pr cache c o) (next :: held);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_latent_cache_bounded () =
  let env, pr, cache = make () in
  let c = cpu0 env in
  let pc = Frame.pcpu_for cache c in
  let n = cache.Frame.latent_cap + 20 in
  let objs = List.init n (fun _ -> alloc_exn pr cache c) in
  List.iter (Prudence.free_deferred pr cache c) objs;
  Alcotest.(check bool)
    (Printf.sprintf "latent cache bounded (%d <= %d)"
       (Slab.Latq.Fifo.length pc.Frame.latent) cache.Frame.latent_cap)
    true
    (Slab.Latq.Fifo.length pc.Frame.latent <= cache.Frame.latent_cap);
  let s = Stats.snapshot cache.Frame.stats in
  Alcotest.(check bool) "overflow went to latent slabs" true
    (s.Stats.latent_overflows > 0);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_no_growth_in_steady_state () =
  (* The headline behaviour: with alloc rate = defer rate, Prudence reaches
     an equilibrium and stops growing (Fig. 3 flat line). *)
  let env, pr, cache = make ~total_pages:65536 () in
  let c = cpu0 env in
  let finished =
    run_process env (fun () ->
        (* warm up for a few grace periods *)
        let window = ref [] in
        for i = 0 to 2_000 do
          (match Prudence.alloc pr cache c with
          | o -> window := o :: !window
          | exception Frame.Oom -> Alcotest.fail "oom in steady state");
          (* keep ~50 objects alive, defer the rest *)
          (match !window with
          | o :: rest when List.length !window > 50 ->
              Prudence.free_deferred pr cache c o;
              window := rest
          | _ -> ());
          ignore i;
          Sim.Process.sleep env.eng 2_000
        done)
  in
  check_completed "steady state" finished;
  let s = Stats.snapshot cache.Frame.stats in
  (* Equilibrium footprint is ~(defer rate x 2 grace periods) objects plus
     the free-slab buffer: ~1200 objects = ~80 slabs here. Without reuse,
     2000 allocations at 16 objects/slab would need ~125 ever-growing
     slabs and keep climbing; the bound asserts the flat line. *)
  Alcotest.(check bool)
    (Printf.sprintf "peak slabs bounded (%d)" s.Stats.peak_slabs)
    true (s.Stats.peak_slabs < 110);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_partial_refill_leaves_room () =
  let env, pr, cache = make () in
  let c = cpu0 env in
  let pc = Frame.pcpu_for cache c in
  (* Fill the latent cache with unripe objects, then force a refill. *)
  let objs = List.init 20 (fun _ -> alloc_exn pr cache c) in
  (* empty the object cache *)
  let held =
    let rec go acc =
      match Frame.pop_ocache pc with
      | Some o ->
          Frame.hand_to_user cache c o;
          go (o :: acc)
      | None -> acc
    in
    go []
  in
  List.iter (Prudence.free_deferred pr cache c) objs;
  let latent_n = Slab.Latq.Fifo.length pc.Frame.latent in
  Alcotest.(check bool) "latent populated" true (latent_n > 0);
  let _o = alloc_exn pr cache c in
  (* ocache after refill must leave room: ocache_n + latent <= capacity
     (modulo the one object just popped). *)
  Alcotest.(check bool)
    (Printf.sprintf "partial refill: %d + %d <= %d" pc.Frame.ocache_n latent_n
       cache.Frame.ocache_cap)
    true
    (pc.Frame.ocache_n + latent_n <= cache.Frame.ocache_cap);
  List.iter (fun o -> Prudence.free pr cache c o) held;
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_oom_delayed_when_latent () =
  (* Exhaust memory with deferred objects outstanding: alloc must wait a
     grace period and then succeed instead of failing (l.31-32). *)
  let env, pr, cache = make ~total_pages:64 ~obj_size:4096 () in
  let c = cpu0 env in
  let finished =
    run_process env (fun () ->
        let objs =
          let rec go acc =
            match Prudence.alloc pr cache c with
            | o -> go (o :: acc)
            | exception Frame.Oom -> acc
          in
          go []
        in
        Alcotest.(check bool) "memory exhausted" true (List.length objs > 40);
        List.iter (Prudence.free_deferred pr cache c) objs;
        match Prudence.alloc pr ~may_wait:true cache c with
        | _ -> ()
        | exception Frame.Oom -> Alcotest.fail "oom despite deferred objects")
  in
  check_completed "oom delay" finished;
  let s = Stats.snapshot cache.Frame.stats in
  Alcotest.(check bool) "oom delay counted" true (s.Stats.ooms_delayed >= 1)

let test_oom_immediate_without_latent () =
  let env, pr, cache = make ~total_pages:8 ~obj_size:4096 () in
  let c = cpu0 env in
  let rec exhaust () =
    match Prudence.alloc pr ~may_wait:false cache c with
    | _ -> exhaust ()
    | exception Frame.Oom -> ()
  in
  exhaust ();
  Alcotest.check_raises "hard oom" Frame.Oom (fun () ->
      ignore (Prudence.alloc pr ~may_wait:false cache c));
  ignore env

let test_preflush_runs_on_idle () =
  let env, pr, cache = make () in
  let c = cpu0 env in
  let pc = Frame.pcpu_for cache c in
  let finished =
    run_process env (fun () ->
        (* Overfill cache+latent to trigger pre-flush scheduling, then go
           idle. *)
        let objs =
          List.init cache.Frame.ocache_cap (fun _ -> alloc_exn pr cache c)
        in
        List.iter (Prudence.free_deferred pr cache c) objs;
        Alcotest.(check bool) "pre-flush armed" true pc.Frame.preflush_scheduled;
        Sim.Machine.idle_sleep env.machine c Sim.(Clock.ms 2))
  in
  check_completed "preflush" finished;
  let s = Stats.snapshot cache.Frame.stats in
  Alcotest.(check bool) "pre-flush pass ran" true (s.Stats.preflush_passes >= 1);
  Alcotest.(check bool) "room restored" true
    (pc.Frame.ocache_n + Slab.Latq.Fifo.length pc.Frame.latent
    <= cache.Frame.ocache_cap);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_preflush_disabled_config () =
  let config = { Prudence.default_config with preflush_enabled = false } in
  let env, pr, cache = make ~config () in
  let c = cpu0 env in
  let finished =
    run_process env (fun () ->
        let objs =
          List.init cache.Frame.ocache_cap (fun _ -> alloc_exn pr cache c)
        in
        List.iter (Prudence.free_deferred pr cache c) objs;
        Sim.Machine.idle_sleep env.machine c Sim.(Clock.ms 2))
  in
  check_completed "preflush disabled" finished;
  let s = Stats.snapshot cache.Frame.stats in
  Alcotest.(check int) "no pre-flush passes" 0 s.Stats.preflush_passes

let test_settle_recycles_everything () =
  let env, pr, cache = make () in
  let c = cpu0 env in
  let finished =
    run_process env (fun () ->
        let objs = List.init 100 (fun _ -> alloc_exn pr cache c) in
        List.iter (Prudence.free_deferred pr cache c) objs;
        Prudence.settle pr)
  in
  check_completed "settle" finished;
  Alcotest.(check int) "nothing latent" 0 (Prudence.latent_outstanding pr);
  Alcotest.(check int) "nothing live" 0 (Frame.live_objects cache);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_safety_checker_catches_unsafe_mode () =
  (* Fault injection: unsafe_skip_gp reuses objects before the grace
     period; a reader holding the object must trip the checker. *)
  let config = { Prudence.default_config with unsafe_skip_gp = true } in
  let env, pr, cache = make ~config () in
  let readers = Rcu.Readers.create env.rcu in
  Rcu.Readers.check_allocs readers ~where:"prudence";
  let c0 = cpu0 env and c1 = cpu env 1 in
  let obj = alloc_exn pr cache c0 in
  (* Drain cpu0's object cache so the deferred object is the only source. *)
  let pc = Frame.pcpu_for cache c0 in
  let rec drain acc =
    match Frame.pop_ocache pc with
    | Some o ->
        Frame.hand_to_user cache c0 o;
        drain (o :: acc)
    | None -> acc
  in
  let _held = drain [] in
  (* A reader on cpu1 still references the object... *)
  Rcu.Readers.enter readers c1;
  Rcu.Readers.hold readers c1 ~oid:obj.Frame.oid;
  (* ...while the writer defers it and the broken allocator recycles it. *)
  Prudence.free_deferred pr cache c0 obj;
  let next = alloc_exn pr cache c0 in
  Alcotest.(check int) "unsafe mode recycled the object" obj.Frame.oid
    next.Frame.oid;
  Alcotest.(check bool) "violation detected" true
    (List.length (Rcu.Readers.violations readers) >= 1);
  Rcu.Readers.exit readers c1

let test_safe_mode_never_violates () =
  (* The same scenario with a correct Prudence: no violation possible
     because the object only merges after the reader's grace period. *)
  let env, pr, cache = make () in
  let readers = Rcu.Readers.create env.rcu in
  Rcu.Readers.check_allocs readers ~where:"prudence";
  let c0 = cpu0 env and c1 = cpu env 1 in
  let finished =
    run_process env (fun () ->
        let obj = alloc_exn pr cache c0 in
        Rcu.Readers.enter readers c1;
        Rcu.Readers.hold readers c1 ~oid:obj.Frame.oid;
        Prudence.free_deferred pr cache c0 obj;
        (* Reader works for a while, then exits; grace period follows. *)
        Sim.Process.sleep env.eng Sim.(Clock.ms 3);
        Rcu.Readers.exit readers c1;
        Sim.Process.sleep env.eng Sim.(Clock.ms 10);
        (* Allocate everything: the deferred object eventually recycles. *)
        for _ = 1 to 200 do
          ignore (Prudence.alloc pr cache c0)
        done)
  in
  check_completed "safe mode" finished;
  Alcotest.(check (list string)) "no violations" []
    (Rcu.Readers.violations readers)

let prop_random_ops_keep_invariants =
  QCheck.Test.make ~name:"random prudence op sequences keep invariants"
    ~count:40
    QCheck.(list (int_bound 2))
    (fun ops ->
      let env, pr, cache = make ~obj_size:1024 () in
      let c = cpu0 env in
      let held = ref [] in
      List.iter
        (fun op ->
          match op with
          | 0 -> (
              match Prudence.alloc pr ~may_wait:false cache c with
              | o -> held := o :: !held
              | exception Frame.Oom -> ())
          | 1 -> (
              match !held with
              | o :: rest ->
                  Prudence.free pr cache c o;
                  held := rest
              | [] -> ())
          | _ -> (
              match !held with
              | o :: rest ->
                  Prudence.free_deferred pr cache c o;
                  held := rest
              | [] -> ()))
        ops;
      audit_clean (Check.Audit.slab ~rcu:env.rcu cache);
      Sim.Engine.run ~until:Sim.(Clock.ms 50) env.eng;
      audit_clean (Check.Audit.slab ~rcu:env.rcu cache);
      true)

let prop_deferred_never_reused_early =
  QCheck.Test.make
    ~name:"no deferred object is handed out before its grace period"
    ~count:30
    QCheck.(pair (int_bound 100) (int_bound 1000))
    (fun (n_defer, seed) ->
      let env, pr, cache = make ~obj_size:512 () in
      ignore seed;
      let c = cpu0 env in
      let objs = List.init (n_defer + 1) (fun _ -> alloc_exn pr cache c) in
      let cookie_now = Rcu.snapshot env.rcu in
      List.iter (Prudence.free_deferred pr cache c) objs;
      (* Allocate aggressively without advancing time: none of the deferred
         oids may come back because no grace period has completed. *)
      let deferred_oids =
        List.map (fun (o : Frame.objekt) -> o.Frame.oid) objs
      in
      let ok = ref true in
      for _ = 1 to n_defer + 10 do
        match Prudence.alloc pr ~may_wait:false cache c with
        | o ->
            if
              List.mem o.Frame.oid deferred_oids
              && not (Rcu.poll env.rcu cookie_now)
            then ok := false
        | exception Frame.Oom -> ()
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "latent-aware cache" `Quick test_cache_is_latent_aware;
    Alcotest.test_case "alloc/free roundtrip" `Quick test_alloc_free_roundtrip;
    Alcotest.test_case "free_deferred goes latent (no rcu cb)" `Quick
      test_free_deferred_goes_latent;
    Alcotest.test_case "not reusable before gp" `Quick
      test_not_reusable_before_gp;
    Alcotest.test_case "reusable right after gp" `Quick test_reusable_after_gp;
    Alcotest.test_case "latent cache bounded" `Quick test_latent_cache_bounded;
    Alcotest.test_case "steady state does not grow" `Slow
      test_no_growth_in_steady_state;
    Alcotest.test_case "partial refill leaves room" `Quick
      test_partial_refill_leaves_room;
    Alcotest.test_case "oom delayed when latent" `Quick
      test_oom_delayed_when_latent;
    Alcotest.test_case "hard oom without latent" `Quick
      test_oom_immediate_without_latent;
    Alcotest.test_case "pre-flush runs on idle" `Quick test_preflush_runs_on_idle;
    Alcotest.test_case "pre-flush disable config" `Quick
      test_preflush_disabled_config;
    Alcotest.test_case "settle recycles everything" `Quick
      test_settle_recycles_everything;
    Alcotest.test_case "fault injection: unsafe mode caught" `Quick
      test_safety_checker_catches_unsafe_mode;
    Alcotest.test_case "safe mode never violates" `Quick
      test_safe_mode_never_violates;
    QCheck_alcotest.to_alcotest prop_random_ops_keep_invariants;
    QCheck_alcotest.to_alcotest prop_deferred_never_reused_early;
  ]
