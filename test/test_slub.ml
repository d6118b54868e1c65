open Test_util
module Frame = Slab.Frame
module Stats = Slab.Slab_stats

let make ?(cpus = 2) ?(total_pages = 4096) ?(obj_size = 512) () =
  let env = make_env ~cpus ~total_pages () in
  let slub = Slab.Slub.create env.fenv env.rcu in
  let cache = Slab.Slub.create_cache slub ~name:"test" ~obj_size in
  (env, slub, cache)

let alloc_exn slub cache cpu =
  match Slab.Slub.alloc slub cache cpu with
  | o -> o
  | exception Frame.Oom -> Alcotest.fail "unexpected OOM"

let test_alloc_free_roundtrip () =
  let env, slub, cache = make () in
  let c = cpu0 env in
  let obj = alloc_exn slub cache c in
  Alcotest.(check bool) "allocated state" true
    (obj.Frame.ostate = Frame.Allocated);
  Alcotest.(check int) "live" 1 (Frame.live_objects cache);
  Slab.Slub.free slub cache c obj;
  Alcotest.(check int) "live zero" 0 (Frame.live_objects cache);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_first_alloc_misses_then_hits () =
  let env, slub, cache = make () in
  let c = cpu0 env in
  let o1 = alloc_exn slub cache c in
  let s = Stats.snapshot cache.Frame.stats in
  Alcotest.(check int) "first is a miss" 0 s.Stats.hits;
  Alcotest.(check int) "one refill" 1 s.Stats.refills;
  Alcotest.(check int) "one grow" 1 s.Stats.grows;
  let o2 = alloc_exn slub cache c in
  let s = Stats.snapshot cache.Frame.stats in
  Alcotest.(check int) "second is a hit" 1 s.Stats.hits;
  Slab.Slub.free slub cache c o1;
  Slab.Slub.free slub cache c o2;
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_batch_refill_amount () =
  let env, slub, cache = make () in
  let c = cpu0 env in
  let _o = alloc_exn slub cache c in
  let pc = Frame.pcpu_for cache c in
  (* After one alloc the object cache holds batch - 1 objects. *)
  Alcotest.(check int) "refilled a batch" (cache.Frame.batch - 1)
    pc.Frame.ocache_n

let test_overflow_flushes_half () =
  let env, slub, cache = make () in
  let c = cpu0 env in
  let cap = cache.Frame.ocache_cap in
  (* Allocate enough objects to exceed the cache, then free them all. *)
  let objs = List.init (cap + 1) (fun _ -> alloc_exn slub cache c) in
  List.iter (Slab.Slub.free slub cache c) objs;
  let pc = Frame.pcpu_for cache c in
  Alcotest.(check int) "object cache trimmed to half" (cap / 2)
    pc.Frame.ocache_n;
  let s = Stats.snapshot cache.Frame.stats in
  Alcotest.(check bool) "flush happened" true (s.Stats.flushes >= 1);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_allocs_spread_slabs () =
  let env, slub, cache = make ~obj_size:4096 () in
  let c = cpu0 env in
  let n = 50 in
  let objs = List.init n (fun _ -> alloc_exn slub cache c) in
  Alcotest.(check bool) "several slabs" true (Frame.total_slabs cache > 1);
  Alcotest.(check int) "live" n (Frame.live_objects cache);
  List.iter (Slab.Slub.free slub cache c) objs;
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_shrink_returns_pages () =
  let env, slub, cache = make ~obj_size:4096 () in
  let c = cpu0 env in
  let used0 = Mem.Buddy.used_pages env.buddy in
  let objs = List.init 200 (fun _ -> alloc_exn slub cache c) in
  let used_mid = Mem.Buddy.used_pages env.buddy in
  Alcotest.(check bool) "pages consumed" true (used_mid > used0);
  List.iter (Slab.Slub.free slub cache c) objs;
  let s = Stats.snapshot cache.Frame.stats in
  Alcotest.(check bool) "shrink ran" true (s.Stats.shrinks > 0);
  Alcotest.(check bool) "pages returned" true
    (Mem.Buddy.used_pages env.buddy < used_mid);
  (* Free slabs above the threshold were destroyed. *)
  Alcotest.(check bool) "bounded free slabs" true
    (Frame.total_slabs cache
    <= Slab.Size_class.min_free_slabs + 2 (* per node margins *));
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_free_deferred_goes_through_rcu () =
  let env, slub, cache = make () in
  let c = cpu0 env in
  let obj = alloc_exn slub cache c in
  Slab.Slub.free_deferred slub cache c obj;
  Alcotest.(check int) "still pending in rcu" 1
    (Rcu.pending_callbacks env.rcu);
  Alcotest.(check bool) "object still marked allocated" true
    (obj.Frame.ostate = Frame.Allocated);
  (* Not reusable yet: allocate and check we get a different object. *)
  Sim.Engine.run ~until:Sim.(Clock.ms 20) env.eng;
  Alcotest.(check int) "reclaimed after gp + softirq" 0
    (Rcu.pending_callbacks env.rcu);
  Alcotest.(check bool) "object back in a cache or slab" true
    (obj.Frame.ostate = Frame.In_object_cache
    || obj.Frame.ostate = Frame.Free_in_slab);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_deferred_free_extended_lifetime () =
  (* Objects deferred during a burst stay unavailable until callbacks run:
     the extended-object-lifetime pathology of §3.2. *)
  let env, slub, cache = make () in
  let c = cpu0 env in
  let objs = List.init 100 (fun _ -> alloc_exn slub cache c) in
  let slabs_before = Frame.total_slabs cache in
  List.iter (Slab.Slub.free_deferred slub cache c) objs;
  (* Immediately re-allocate 100: the deferred ones are invisible, so the
     cache must grow again. *)
  let objs2 = List.init 100 (fun _ -> alloc_exn slub cache c) in
  Alcotest.(check bool) "slab cache grew despite 100 deferred objects" true
    (Frame.total_slabs cache > slabs_before);
  List.iter (Slab.Slub.free slub cache c) objs2;
  Sim.Engine.run ~until:Sim.(Clock.ms 50) env.eng;
  Alcotest.(check int) "drained" 0 (Rcu.pending_callbacks env.rcu);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_settle () =
  let env, slub, cache = make () in
  let c = cpu0 env in
  let finished =
    run_process env (fun () ->
        let objs = List.init 40 (fun _ -> alloc_exn slub cache c) in
        List.iter (Slab.Slub.free_deferred slub cache c) objs;
        Slab.Slub.settle slub)
  in
  check_completed "settle" finished;
  Alcotest.(check int) "no pending callbacks" 0 (Rcu.pending_callbacks env.rcu);
  Alcotest.(check int) "no live objects" 0 (Frame.live_objects cache)

let test_oom_when_exhausted () =
  let env, slub, cache = make ~total_pages:8 ~obj_size:4096 () in
  let c = cpu0 env in
  let rec drain acc =
    match Slab.Slub.alloc slub cache c with
    | o -> drain (o :: acc)
    | exception Frame.Oom -> acc
  in
  let got = drain [] in
  Alcotest.(check bool) "some allocations succeeded" true (List.length got > 0);
  Alcotest.check_raises "eventually Oom" Frame.Oom (fun () ->
      ignore (Slab.Slub.alloc slub cache c))

let test_oom_recovers_via_pressure_handler () =
  (* When the page allocator is exhausted, the pressure OOM chain drains
     ripe RCU callbacks, freeing slabs, and the allocation succeeds. *)
  let env, slub, cache = make ~total_pages:64 ~obj_size:4096 () in
  let c = cpu0 env in
  (* 8 objs/slab x 8 slabs = 64 objects exhaust the 64 pages. *)
  let objs = List.init 56 (fun _ -> alloc_exn slub cache c) in
  List.iter (Slab.Slub.free_deferred slub cache c) objs;
  (* Give the grace period time to complete but stop before the throttled
     softirq drains everything. *)
  Sim.Engine.run ~until:Sim.(Clock.ms 3) env.eng;
  (match Slab.Slub.alloc slub cache c with
  | _ -> ()
  | exception Frame.Oom -> Alcotest.fail "alloc failed after oom-driven drain");
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_multi_cpu_caches_independent () =
  let env, slub, cache = make ~cpus:2 () in
  let c0 = cpu0 env and c1 = cpu env 1 in
  let o0 = alloc_exn slub cache c0 in
  let _o1 = alloc_exn slub cache c1 in
  let _o1' = alloc_exn slub cache c1 in
  let pc0 = Frame.pcpu_for cache c0 and pc1 = Frame.pcpu_for cache c1 in
  (* c0's refill left a batch in its cache; c1 scavenged the leftover from
     the shared node and then had to grow its own slab. *)
  Alcotest.(check bool) "c0 cache retains its batch" true
    (pc0.Frame.ocache_n > 0);
  Alcotest.(check bool) "c1 refilled separately" true (pc1.Frame.ocache_n > 0);
  (* Free on the other CPU: object goes to c1's cache. *)
  let n1 = pc1.Frame.ocache_n in
  Slab.Slub.free slub cache c1 o0;
  Alcotest.(check int) "freed into c1's cache" (n1 + 1) pc1.Frame.ocache_n;
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_double_free_detected () =
  let env, slub, cache = make () in
  let c = cpu0 env in
  let obj = alloc_exn slub cache c in
  Slab.Slub.free slub cache c obj;
  (try
     Slab.Slub.free slub cache c obj;
     Alcotest.fail "double free not detected"
   with Assert_failure _ -> ());
  ignore cache

let prop_random_ops_keep_invariants =
  QCheck.Test.make ~name:"random slub op sequences keep accounting invariants"
    ~count:40
    QCheck.(list (int_bound 2))
    (fun ops ->
      let env, slub, cache = make ~obj_size:1024 () in
      let c = cpu0 env in
      let held = ref [] in
      List.iter
        (fun op ->
          match op with
          | 0 -> (
              match Slab.Slub.alloc slub cache c with
              | o -> held := o :: !held
              | exception Frame.Oom -> ())
          | 1 -> (
              match !held with
              | o :: rest ->
                  Slab.Slub.free slub cache c o;
                  held := rest
              | [] -> ())
          | _ -> (
              match !held with
              | o :: rest ->
                  Slab.Slub.free_deferred slub cache c o;
                  held := rest
              | [] -> ()))
        ops;
      audit_clean (Check.Audit.slab ~rcu:env.rcu cache);
      Sim.Engine.run ~until:Sim.(Clock.ms 100) env.eng;
      audit_clean (Check.Audit.slab ~rcu:env.rcu cache);
      Rcu.pending_callbacks env.rcu = 0)

let suite =
  [
    Alcotest.test_case "alloc/free roundtrip" `Quick test_alloc_free_roundtrip;
    Alcotest.test_case "miss then hit" `Quick test_first_alloc_misses_then_hits;
    Alcotest.test_case "batch refill amount" `Quick test_batch_refill_amount;
    Alcotest.test_case "overflow flushes half" `Quick test_overflow_flushes_half;
    Alcotest.test_case "allocations spread slabs" `Quick
      test_allocs_spread_slabs;
    Alcotest.test_case "shrink returns pages" `Quick test_shrink_returns_pages;
    Alcotest.test_case "free_deferred via rcu" `Quick
      test_free_deferred_goes_through_rcu;
    Alcotest.test_case "extended lifetimes force growth" `Quick
      test_deferred_free_extended_lifetime;
    Alcotest.test_case "settle drains" `Quick test_settle;
    Alcotest.test_case "oom when exhausted" `Quick test_oom_when_exhausted;
    Alcotest.test_case "oom recovers via pressure drain" `Quick
      test_oom_recovers_via_pressure_handler;
    Alcotest.test_case "multi-cpu caches independent" `Quick
      test_multi_cpu_caches_independent;
    Alcotest.test_case "double free detected" `Quick test_double_free_detected;
    QCheck_alcotest.to_alcotest prop_random_ops_keep_invariants;
  ]
