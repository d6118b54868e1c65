(* Allocation pins for the slab frame's containers: once the per-slab
   and per-CPU arrays have grown, moving an object between them
   allocates nothing on the OCaml heap, and neither SLUB's nor
   Prudence's allocation allocates (the object is an int handle). Once
   the slab table and the object store have room, a slab grow allocates
   nothing either (the slab is an int handle too), and neither does the
   first latent push on a fresh slab. A SLUB deferred free
   allocates nothing, and neither does the RCU callback ring once grown,
   nor SLUB's reclaim callback, nor a grace period with the callback
   conservation oracle installed, nor 1,000 grace periods of SLUB
   deferrals end to end. The engine's schedule/dispatch
   cycle allocates nothing either, under both tie-break policies and
   with 200 events pending, and a process sleep only the runtime's
   continuation. On the read side, a reader section's holds, an EBR
   reader exit and a list copy-update allocate nothing, a lookup only
   its result, and an insert into a list with spare room only its
   entry record. A buddy allocation and a coalescing buddy free
   allocate nothing, and neither does a bare
   machine's scheduler tick. The RNG's float draws allocate nothing
   when called from another module: they are inlined there, so their
   floats stay unboxed (a build that loses cross-module inlining boxes
   them). Each case warms up first, then counts minor words over 10k
   iterations. *)

open Test_util
module Frame = Slab.Frame

let iterations = 10_000

let words f =
  let before = Gc.minor_words () in
  for i = 1 to iterations do
    f i
  done;
  Gc.minor_words () -. before

let pin name f =
  f 0;
  Alcotest.(check (float 0.)) (name ^ ": 10k iterations, 0 minor words") 0.
    (words f)

let make_cache ?(latent_aware = false) () =
  let env = make_env ~cpus:2 ~total_pages:4096 () in
  let cache =
    Frame.create_cache env.fenv ~name:"pins" ~obj_size:512 ~latent_aware ()
  in
  (env, cache)

let test_free_stack () =
  let env, cache = make_cache () in
  let slab = Frame.grow cache (cpu0 env) in
  pin "take_free_obj_exn + put_free_obj" (fun _ ->
      Frame.put_free_obj cache slab (Frame.take_free_obj_exn cache slab));
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_object_cache () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  ignore (Frame.grow cache c);
  ignore (Frame.refill_from_node cache c ~want:1 ~select:Frame.select_slub);
  let pc = Frame.pcpu_for cache c in
  pin "pop_ocache_exn + push_ocache" (fun _ ->
      Frame.push_ocache cache pc (Frame.pop_ocache_exn pc));
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_latent_slab_cycle () =
  let env, cache = make_cache ~latent_aware:true () in
  let c = cpu0 env in
  let slab = Frame.grow cache c in
  (* The warm-up's latent push makes the store's latent array. *)
  pin "obj_to_latent_slab + slab_harvest_ripe" (fun i ->
      let o = Frame.take_free_obj_exn cache slab in
      Frame.hand_to_user cache c o;
      Frame.stamp_deferred cache c o ~cookie:(i + 1);
      Frame.obj_to_latent_slab cache o;
      ignore (Frame.relocate cache slab);
      ignore (Frame.slab_harvest_ripe cache slab ~completed:(i + 1));
      ignore (Frame.relocate cache slab));
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

(* A slab's latent list is its handles' entries in the store's latent
   array, which the env makes at its first latent push: after that, the
   first latent push on each fresh slab allocates nothing while the
   store has room (its first room holds 2,048 handles, 128 slabs of the
   512 B test cache, and the table's 32 rows). *)
let test_first_latent_push () =
  let env, cache = make_cache ~latent_aware:true () in
  let c = cpu0 env in
  let deferred () =
    let s = Frame.grow cache c in
    let o = Frame.take_free_obj_exn cache s in
    Frame.hand_to_user cache c o;
    Frame.stamp_deferred cache c o ~cookie:1;
    (s, o)
  in
  let s, o = deferred () in
  Frame.obj_to_latent_slab cache o;
  ignore (Frame.relocate cache s);
  let fresh = Array.init 30 (fun _ -> deferred ()) in
  let before = Gc.minor_words () in
  for i = 0 to Array.length fresh - 1 do
    let s, o = fresh.(i) in
    Frame.obj_to_latent_slab cache o;
    ignore (Frame.relocate cache s)
  done;
  Alcotest.(check (float 0.)) "30 first latent pushes, 0 minor words" 0.
    (Gc.minor_words () -. before);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_relocate () =
  let env, cache = make_cache () in
  let slab = Frame.grow cache (cpu0 env) in
  ignore (Frame.grow cache (cpu0 env));
  pin "relocate free <-> partial" (fun _ ->
      let o = Frame.take_free_obj_exn cache slab in
      assert (Frame.relocate cache slab);
      Frame.put_free_obj cache slab o;
      assert (Frame.relocate cache slab));
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

(* Each cycle grows a slab of the 512 B test cache and destroys it, so
   the next grow reuses the slab's table row and its handles, and
   neither the table nor the object store grows. The slab is an int
   index into the table, so the grow and the destroy allocate nothing,
   on a latent-aware cache too: its slab's latent list is entries in
   the store, so a grow has nothing latent to make. *)
let test_grow ~latent_aware () =
  let env, cache = make_cache ~latent_aware () in
  let c = cpu0 env in
  pin "grow + destroy" (fun _ -> Frame.destroy_slab cache (Frame.grow cache c));
  Alcotest.(check int) "no slab left" 0 (Frame.total_slabs cache);
  Alcotest.(check int) "one table entry made" 1 env.fenv.Frame.slab_top;
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

(* Minor words spent in refills and in flushes, over 10k rounds of a
   refill that crosses slabs and the flush that returns its objects. *)
let refill_flush_words () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  ignore (Frame.grow cache c);
  ignore (Frame.grow cache c);
  (* Two slabs' worth each time, so a refill crosses slabs. *)
  let want = cache.Frame.objs_per_slab + 3 in
  let refill_words = ref 0. and flush_words = ref 0. in
  let round () =
    let a = Gc.minor_words () in
    let got = Frame.refill_from_node cache c ~want ~select:Frame.select_slub in
    let b = Gc.minor_words () in
    Frame.flush_to_node cache c ~count:got;
    let e = Gc.minor_words () in
    assert (got = want);
    (b -. a, e -. b)
  in
  ignore (round ());
  for _ = 1 to iterations do
    let r, f = round () in
    refill_words := !refill_words +. r;
    flush_words := !flush_words +. f
  done;
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache);
  (!refill_words, !flush_words)

let test_refill () =
  Alcotest.(check (float 0.)) "refill_from_node ~select:select_slub" 0.
    (fst (refill_flush_words ()))

let test_flush () =
  Alcotest.(check (float 0.)) "flush_to_node" 0. (snd (refill_flush_words ()))

(* Minor words spent in SLUB allocations and in SLUB frees, over 100
   rounds of 100 of each. *)
let slub_alloc_free_words () =
  let env = make_env ~cpus:2 ~total_pages:4096 () in
  let slub = Slab.Slub.create env.fenv env.rcu in
  let cache = Slab.Slub.create_cache slub ~name:"pins" ~obj_size:512 in
  let c = cpu0 env in
  (* 100 objects per round: the frees overflow the object cache, so
     they flush to the slabs; the allocations refill from them. *)
  let n = 100 and rounds = iterations / 100 in
  let objs = Array.make n (Slab.Slub.alloc slub cache c) in
  Slab.Slub.free slub cache c objs.(0);
  let alloc_words = ref 0. and free_words = ref 0. in
  for round = 0 to rounds do
    let a = Gc.minor_words () in
    for i = 0 to n - 1 do
      objs.(i) <- Slab.Slub.alloc slub cache c
    done;
    let b = Gc.minor_words () in
    for i = 0 to n - 1 do
      Slab.Slub.free slub cache c objs.(i)
    done;
    let e = Gc.minor_words () in
    (* Round 0 warms up: it grows the slabs and the object cache. *)
    if round > 0 then begin
      alloc_words := !alloc_words +. (b -. a);
      free_words := !free_words +. (e -. b)
    end
  done;
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache);
  (!alloc_words, !free_words)

let test_slub_free () =
  Alcotest.(check (float 0.)) "SLUB free: 0 words" 0.
    (snd (slub_alloc_free_words ()))

let test_slub_alloc () =
  Alcotest.(check (float 0.)) "SLUB alloc: 0 words" 0.
    (fst (slub_alloc_free_words ()))

(* Minor words spent in 10k Prudence allocations, in rounds of [n]
   after a warm-up round, and the misses among them. Each round frees
   its objects back to the object cache; with [flush], it then flushes
   the object cache to the slabs, so the next round refills. *)
let prudence_alloc_words ~n ~flush =
  let env = make_env ~cpus:2 ~total_pages:4096 () in
  let pr = Prudence.create env.fenv env.rcu in
  let cache = Prudence.create_cache pr ~name:"pins" ~obj_size:512 in
  let c = cpu0 env in
  let pc = Frame.pcpu_for cache c in
  let rounds = iterations / n in
  let objs = Array.make n (Prudence.alloc pr ~may_wait:false cache c) in
  Prudence.free pr cache c objs.(0);
  let words = ref 0. and misses = ref 0 in
  for round = 0 to rounds do
    let misses0 = (Slab.Slab_stats.snapshot cache.Frame.stats).misses in
    let a = Gc.minor_words () in
    for i = 0 to n - 1 do
      objs.(i) <- Prudence.alloc pr ~may_wait:false cache c
    done;
    let b = Gc.minor_words () in
    for i = 0 to n - 1 do
      Prudence.free pr cache c objs.(i)
    done;
    if flush then Frame.flush_to_node cache c ~count:pc.Frame.ocache_n;
    if round > 0 then begin
      words := !words +. (b -. a);
      misses :=
        !misses + (Slab.Slab_stats.snapshot cache.Frame.stats).misses - misses0
    end
  done;
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache);
  (!words, !misses)

let test_prudence_alloc_hit () =
  let words, misses = prudence_alloc_words ~n:8 ~flush:false in
  Alcotest.(check int) "every allocation hit" 0 misses;
  Alcotest.(check (float 0.)) "Prudence alloc (hits): 0 words" 0. words

let test_prudence_alloc_miss () =
  let words, misses = prudence_alloc_words ~n:100 ~flush:true in
  Alcotest.(check bool) "every round refilled" true (misses >= iterations / 100);
  Alcotest.(check (float 0.)) "Prudence alloc (refills): 0 words" 0. words

(* SLUB deferred frees over 100 rounds of 100; between rounds the
   engine runs until a grace period has passed and every callback has
   run. Once the callback ring has grown to a round's worth, a deferred
   free allocates nothing: its ring entry is SLUB's one callback plus
   the object's handle. *)
let test_slub_free_deferred () =
  let env = make_env ~cpus:2 ~total_pages:4096 () in
  let slub = Slab.Slub.create env.fenv env.rcu in
  let cache = Slab.Slub.create_cache slub ~name:"pins" ~obj_size:512 in
  let c = cpu0 env in
  let n = 100 and rounds = iterations / 100 in
  let objs = Array.make n (Slab.Slub.alloc slub cache c) in
  Slab.Slub.free slub cache c objs.(0);
  let words = ref 0. in
  for round = 0 to rounds do
    for i = 0 to n - 1 do
      objs.(i) <- Slab.Slub.alloc slub cache c
    done;
    let a = Gc.minor_words () in
    for i = 0 to n - 1 do
      Slab.Slub.free_deferred slub cache c objs.(i)
    done;
    let b = Gc.minor_words () in
    if round > 0 then words := !words +. (b -. a);
    while Rcu.pending_callbacks env.rcu > 0 do
      Sim.Engine.run ~until:(Sim.Engine.now env.eng + 1_000_000) env.eng
    done
  done;
  Alcotest.(check int) "every callback ran" 0 (Rcu.pending_callbacks env.rcu);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache);
  Alcotest.(check (float 0.)) "SLUB free_deferred: 0 words" 0. !words

(* SLUB's reclaim callback over 100 rounds of 100 deferred frees. Each
   round runs the engine until the grace period its callbacks wait for
   has completed, then invokes them all at once with [barrier_drain];
   the softirq period is too long for a softirq pass to drain any
   first. Each callback finds the object's slab and cache from its
   handle ([Frame.of_int], [Frame.cache_of]) and releases the object,
   which refills the object cache and flushes its overflow to the slabs:
   none of it allocates. *)
let test_slub_reclaim () =
  let rcu_config =
    { Rcu.default_config with Rcu.softirq_period_ns = Sim.Clock.s 1_000 }
  in
  let env = make_env ~cpus:2 ~total_pages:4096 ~rcu_config () in
  let slub = Slab.Slub.create env.fenv env.rcu in
  let cache = Slab.Slub.create_cache slub ~name:"pins" ~obj_size:512 in
  let c = cpu0 env in
  let n = 100 and rounds = iterations / 100 in
  let objs = Array.make n (Slab.Slub.alloc slub cache c) in
  Slab.Slub.free slub cache c objs.(0);
  let words = ref 0. in
  for round = 0 to rounds do
    for i = 0 to n - 1 do
      objs.(i) <- Slab.Slub.alloc slub cache c
    done;
    for i = 0 to n - 1 do
      Slab.Slub.free_deferred slub cache c objs.(i)
    done;
    let cookie = Rcu.snapshot env.rcu in
    while not (Rcu.poll env.rcu cookie) do
      Sim.Engine.run ~until:(Sim.Engine.now env.eng + 1_000_000) env.eng
    done;
    Alcotest.(check int) "no callback ran before the drain" n
      (Rcu.pending_callbacks env.rcu);
    let a = Gc.minor_words () in
    Rcu.barrier_drain env.rcu;
    let b = Gc.minor_words () in
    if round > 0 then words := !words +. (b -. a)
  done;
  Alcotest.(check int) "every callback ran" 0 (Rcu.pending_callbacks env.rcu);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache);
  Alcotest.(check (float 0.)) "SLUB reclaim callback: 0 words" 0. !words

(* SLUB's deferred frees through whole grace periods: a daemon event
   every 5 ms allocates 100 objects on one CPU and defers them all, and
   before the next one the CPUs' ticks complete the grace periods they
   wait for and softirq passes invoke every callback. A round's
   callbacks share SLUB's one callback and one or two cookies, so each
   round makes a segment or two in the callback ring, which the drains
   pop; over 1,000 rounds the 256-slot segment ring wraps several
   times. Once the first round has grown both rings, the next 1,000
   allocate nothing. *)
let test_slub_defer_segments () =
  let env = make_env ~cpus:2 ~total_pages:4096 () in
  let slub = Slab.Slub.create env.fenv env.rcu in
  let cache = Slab.Slub.create_cache slub ~name:"pins" ~obj_size:512 in
  let c = cpu0 env in
  let n = 100 and rounds = 1_000 in
  let objs = Array.make n (Slab.Slub.alloc slub cache c) in
  Slab.Slub.free slub cache c objs.(0);
  let period = Sim.Clock.ms 5 in
  let round = ref 0 and leftover = ref 0 in
  let words = Float.Array.make 2 0. in
  let rec step () =
    leftover := !leftover + Rcu.pending_callbacks env.rcu;
    if !round = 1 then Float.Array.set words 0 (Gc.minor_words ());
    if !round = rounds + 1 then Float.Array.set words 1 (Gc.minor_words ())
    else begin
      for i = 0 to n - 1 do
        objs.(i) <- Slab.Slub.alloc slub cache c
      done;
      for i = 0 to n - 1 do
        Slab.Slub.free_deferred slub cache c objs.(i)
      done;
      incr round;
      Sim.Engine.schedule ~daemon:true env.eng ~after:period step
    end
  in
  Sim.Engine.schedule ~daemon:true env.eng ~after:period step;
  let gps0 = Rcu.completed env.rcu in
  Sim.Engine.run ~until:(period * (rounds + 3)) env.eng;
  Alcotest.(check int) "every round ran" (rounds + 1) !round;
  Alcotest.(check int) "each round drained before the next" 0 !leftover;
  Alcotest.(check bool) "a grace period or more per round" true
    (Rcu.completed env.rcu - gps0 > rounds);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache);
  Alcotest.(check (float 0.)) "1,000 rounds of 100 deferrals, 0 minor words"
    0.
    (Float.Array.get words 1 -. Float.Array.get words 0)

(* A SLUB environment with the callback conservation oracle installed
   runs 10k grace periods: a daemon event requests one every 5 ms, and
   the CPUs' scheduler ticks report the quiescent states that complete
   it, where the oracle recounts the callback lists. The first and the
   last request read the minor-word counter. *)
let test_grace_period () =
  let env =
    Workloads.Env.build
      {
        Workloads.Env.default_config with
        Workloads.Env.kind = Workloads.Env.Baseline;
        cpus = 2;
        total_pages = 4_096;
      }
  in
  let eng = env.Workloads.Env.eng and rcu = env.Workloads.Env.rcu in
  let orc =
    Check.Oracles.install
      (Check.Oracles.default_config ~duration_ns:(Sim.Clock.s 100))
      env
  in
  let period = Sim.Clock.ms 5 in
  let requested = ref 0 and words = Float.Array.make 2 0. in
  let rec step () =
    if !requested = 1 then Float.Array.set words 0 (Gc.minor_words ());
    if !requested = iterations + 1 then
      Float.Array.set words 1 (Gc.minor_words ())
    else begin
      Rcu.request_gp rcu;
      incr requested;
      Sim.Engine.schedule ~daemon:true eng ~after:period step
    end
  in
  Sim.Engine.schedule ~daemon:true eng ~after:period step;
  let gps0 = Rcu.completed rcu in
  Sim.Engine.run ~until:(period * (iterations + 3)) eng;
  Alcotest.(check int) "a grace period per request" (iterations + 1)
    (Rcu.completed rcu - gps0);
  Check.Oracles.finalize orc;
  Alcotest.(check (list string)) "conservation holds" []
    (Check.Oracles.cb_violations orc);
  Alcotest.(check (float 0.)) "10k grace periods, 0 minor words" 0.
    (Float.Array.get words 1 -. Float.Array.get words 0)

(* An enqueue/advance/drain cycle on a ring kept 10 entries deep, so
   its head and tail keep crossing the end of the 16-slot ring. The
   callback closure is allocated once, up front; each entry's payload
   is its cookie, which the callback checks against the drain order. *)
let test_cblist_cycle () =
  let cbl = Rcu.Cblist.create () in
  let ran = ref 0 in
  let fn () cookie =
    incr ran;
    assert (cookie = !ran)
  in
  for k = 1 to 10 do
    Rcu.Cblist.enqueue cbl ~cookie:k fn k
  done;
  pin "enqueue + advance + drain" (fun i ->
      let cookie = i + 11 in
      Rcu.Cblist.enqueue cbl ~cookie fn cookie;
      assert (Rcu.Cblist.advance cbl ~completed:(cookie - 10) = 1);
      assert (Rcu.Cblist.drain cbl ~max:1 () = 1));
  Alcotest.(check int) "every cycle ran one callback" (iterations + 1) !ran;
  Alcotest.(check int) "the ring stays 10 deep" 10 (Rcu.Cblist.total cbl)

(* Each cycle schedules two same-instant events, one 70 us away and
   one 2^32 ns (4.3 s) away, then runs all four. The handler closure
   is allocated once, up front. *)
let test_engine_cycle tiebreak () =
  let eng = Sim.Engine.create ~tiebreak () in
  let ran = ref 0 in
  let fn () = incr ran in
  pin "schedule x4 + run" (fun _ ->
      Sim.Engine.schedule eng ~after:0 fn;
      Sim.Engine.schedule eng ~after:0 fn;
      Sim.Engine.schedule eng ~after:70_000 fn;
      Sim.Engine.schedule eng ~after:(1 lsl 32) fn;
      Sim.Engine.run eng);
  Alcotest.(check int) "every event ran" (4 * (iterations + 1)) !ran;
  Alcotest.(check int) "none left" 0 (Sim.Engine.pending eng)

(* 200 daemon events wait 2^40 ns out, more than the 150 events the
   checked workload holds at its peak, while each cycle schedules two
   live events and runs until only the daemons are left: every
   schedule and pop works a heap about 200 deep. A growth would show
   as major words; there is none. A minor collection first empties the
   minor heap, so no collection promotes words during the
   measurement. *)
let test_engine_deep_queue () =
  let eng = Sim.Engine.create () in
  let fn () = () in
  for i = 1 to 200 do
    Sim.Engine.schedule ~daemon:true eng ~after:((1 lsl 40) + i) fn
  done;
  let cycle _ =
    Sim.Engine.schedule eng ~after:0 fn;
    Sim.Engine.schedule eng ~after:70_000 fn;
    Sim.Engine.run_until_quiet eng
  in
  cycle 0;
  Gc.minor ();
  let major0 = major_words () in
  let minor = words cycle in
  let major = major_words () -. major0 in
  Alcotest.(check (float 0.)) "10k cycles, 0 minor words" 0. minor;
  Alcotest.(check (float 0.)) "10k cycles, 0 major words" 0. major;
  Alcotest.(check int) "the daemons are still pending" 200
    (Sim.Engine.pending eng)

(* A process on a bare engine sleeps 10k times after one warm-up
   sleep. The effect is a constant, so a sleep allocates only the
   runtime's continuation, and the wakeup nothing. *)
let test_process_sleep () =
  let eng = Sim.Engine.create () in
  let words = ref nan in
  Sim.Process.spawn eng (fun () ->
      Sim.Process.sleep eng 1;
      let before = Gc.minor_words () in
      for _ = 1 to iterations do
        Sim.Process.sleep eng 1
      done;
      words := Gc.minor_words () -. before);
  Sim.Engine.run eng;
  Alcotest.(check (float 0.)) "10k sleeps, 2 words each"
    (float_of_int (2 * iterations))
    !words

(* One section per iteration: five holds (one oid twice, which grows
   the stack past its first size in the warm-up), two releases, a
   refcount and the exit that drops the other three. *)
let test_reader_section () =
  let env = make_env ~cpus:2 ~total_pages:4096 () in
  let readers = Rcu.Readers.create env.rcu in
  let c = cpu0 env in
  pin "enter + hold x5 + release x2 + exit" (fun i ->
      Rcu.Readers.enter readers c;
      for k = 0 to 4 do
        Rcu.Readers.hold readers c ~oid:(i + (k land 3))
      done;
      Rcu.Readers.release readers c ~oid:(i + 1);
      Rcu.Readers.release readers c ~oid:(i + 2);
      assert (Rcu.Readers.refcount readers ~oid:i = 2);
      Rcu.Readers.exit readers c);
  Alcotest.(check int) "exit dropped every hold" 0
    (Rcu.Readers.refcount readers ~oid:iterations);
  Alcotest.(check (list string)) "no violations" []
    (Rcu.Readers.violations readers)

(* A list of 8 keys over Prudence, with reader tracking armed. *)
let make_list () =
  let env = make_env ~cpus:2 ~total_pages:4096 () in
  let readers = Rcu.Readers.create env.rcu in
  Rcu.Readers.check_allocs readers ~where:"alloc";
  let backend = Prudence.backend (Prudence.create env.fenv env.rcu) in
  let cache = backend.Slab.Backend.create_cache ~name:"pins" ~obj_size:128 in
  let l = Rcudata.Rculist.create ~backend ~readers ~cache ~name:"pins" in
  for key = 0 to 7 do
    assert (Rcudata.Rculist.insert l (cpu0 env) ~key ~value:key)
  done;
  (env, readers, l)

(* A lookup that finds its key allocates only the [Some] it returns
   (2 words); a miss allocates nothing. *)
let test_rculist_lookup () =
  let env, readers, l = make_list () in
  let c = cpu0 env in
  let hit i =
    match Rcudata.Rculist.lookup l c ~key:(i land 7) with
    | Some _ -> ()
    | None -> assert false
  in
  hit 0;
  Alcotest.(check (float 0.)) "10k hits, 2 words each"
    (float_of_int (2 * iterations))
    (words hit);
  pin "lookup (miss)" (fun _ ->
      assert (Rcudata.Rculist.lookup l c ~key:8 = None));
  Alcotest.(check int) "sections closed" 0 c.Sim.Machine.rcu_nesting;
  Alcotest.(check (list string)) "no violations" []
    (Rcu.Readers.violations readers)

(* Copy-updates over 100 rounds of 100; between rounds the engine runs
   10 ms of virtual time, so grace periods pass and Prudence recycles
   the old versions. The first 50 rounds are the warm-up: the slabs
   and latent arrays reach their steady size in round 25. *)
let test_rculist_update () =
  let env, readers, l = make_list () in
  let c = cpu0 env in
  let warmup = 50 in
  let words = ref 0. in
  for round = 1 - warmup to iterations / 100 do
    let a = Gc.minor_words () in
    for i = 0 to 99 do
      match Rcudata.Rculist.update l c ~key:(i land 7) ~value:i with
      | `Updated -> ()
      | `Absent | `Oom -> assert false
    done;
    let b = Gc.minor_words () in
    if round > 0 then words := !words +. (b -. a);
    Sim.Engine.run ~until:(Sim.Engine.now env.eng + 10_000_000) env.eng
  done;
  Alcotest.(check (list string)) "no violations" []
    (Rcu.Readers.violations readers);
  Alcotest.(check (float 0.)) "Rculist.update on Prudence: 0 words" 0. !words

(* Inserts into a list with spare room, in rounds of 100 after a
   50-round warm-up, as for updates; each insert's key is deleted again
   before the next, and the engine runs 10 ms between rounds. The
   warm-up's first insert doubles the arrays from 8 slots to 16, so
   every measured insert allocates only its 4-word entry record. *)
let test_rculist_insert () =
  let env, readers, l = make_list () in
  let c = cpu0 env in
  let warmup = 50 in
  let words = ref 0. in
  for round = 1 - warmup to iterations / 100 do
    for i = 0 to 99 do
      let a = Gc.minor_words () in
      assert (Rcudata.Rculist.insert l c ~key:8 ~value:i);
      let b = Gc.minor_words () in
      if round > 0 then words := !words +. (b -. a);
      assert (Rcudata.Rculist.delete l c ~key:8)
    done;
    Sim.Engine.run ~until:(Sim.Engine.now env.eng + 10_000_000) env.eng
  done;
  Alcotest.(check (list int)) "the 8 keys remain, newest first"
    [ 7; 6; 5; 4; 3; 2; 1; 0 ] (Rcudata.Rculist.keys l);
  Alcotest.(check (list string)) "no violations" []
    (Rcu.Readers.violations readers);
  Alcotest.(check (float 0.)) "10k inserts, 4 words each"
    (float_of_int (4 * iterations))
    !words

(* 10k draws of each kind pass through the float results the way
   pgbench's think time and churn coin do. *)
let test_rng_draws () =
  let rng = Sim.Rng.create ~seed:42 in
  let sum = ref 0 and hits = ref 0 in
  pin "int_of_float (exponential ~mean:4000.)" (fun _ ->
      sum := !sum + int_of_float (Sim.Rng.exponential rng ~mean:4000.));
  pin "chance 0.1" (fun _ -> if Sim.Rng.chance rng 0.1 then incr hits);
  (* 10,001 draws each: the mean is within 5 sd of 4000 and the hits
     within 5 sd of a tenth. *)
  Alcotest.(check bool) "exponential mean near 4000" true
    (abs ((!sum / (iterations + 1)) - 4000) < 200);
  Alcotest.(check bool) "about a tenth of the coins hit" true
    (abs (!hits - 1000) < 150)

(* Minor words spent in buddy allocations and in buddy frees, over 10k
   rounds on a 16-page arena of two order-3 blocks. Each order-0
   allocation splits an order-3 block, pushing its three upper halves;
   the free merges all three back, leaving their stack entries stale for
   the next allocation to skip. *)
let buddy_alloc_free_words () =
  let b = Mem.Buddy.create ~max_order:3 ~total_pages:16 () in
  let alloc_words = ref 0. and free_words = ref 0. in
  for round = 0 to iterations do
    let a = Gc.minor_words () in
    let page = Mem.Buddy.alloc b ~order:0 in
    let m = Gc.minor_words () in
    Mem.Buddy.free b ~page ~order:0;
    let e = Gc.minor_words () in
    assert (page = 8 && Mem.Buddy.free_blocks b ~order:3 = 2);
    if round > 0 then begin
      alloc_words := !alloc_words +. (m -. a);
      free_words := !free_words +. (e -. m)
    end
  done;
  audit_clean (Check.Audit.buddy b);
  (!alloc_words, !free_words)

let test_buddy_alloc () =
  Alcotest.(check (float 0.)) "Buddy.alloc (split): 0 words" 0.
    (fst (buddy_alloc_free_words ()))

let test_buddy_free () =
  Alcotest.(check (float 0.)) "Buddy.free (coalesce): 0 words" 0.
    (snd (buddy_alloc_free_words ()))

(* A bare 8-CPU machine ticks 800 times in 100 ms of virtual time. Two
   events between ticks read the minor-word counter and the switch count;
   the tick count is read outside the window. *)
let test_machine_ticks () =
  let eng, machine = make_sim ~cpus:8 () in
  let words = Float.Array.make 2 0. and switches = Array.make 2 0 in
  let count () =
    Array.fold_left
      (fun n c -> n + c.Sim.Machine.ctx_switches)
      0 (Sim.Machine.cpus machine)
  in
  Sim.Engine.schedule_at ~daemon:true eng ~time:(Sim.Clock.ms 10 + 1)
    (fun () ->
      switches.(0) <- count ();
      Float.Array.set words 0 (Gc.minor_words ()));
  Sim.Engine.schedule_at ~daemon:true eng ~time:(Sim.Clock.ms 110 + 1)
    (fun () ->
      Float.Array.set words 1 (Gc.minor_words ());
      switches.(1) <- count ());
  Sim.Engine.run ~until:(Sim.Clock.ms 120) eng;
  Alcotest.(check int) "800 ticks" 800 (switches.(1) - switches.(0));
  Alcotest.(check (float 0.)) "800 ticks, 0 minor words" 0.
    (Float.Array.get words 1 -. Float.Array.get words 0)

(* CPU 1 defers, then enters and exits a section, so every exit finds
   tokens outstanding and tries to advance the epoch. With CPU 0
   stalled in a section the scan is blocked and the epoch stays put;
   otherwise each exit advances it and fires the ripen hook. *)
let test_ebr_reader_exit ~stalled () =
  let eng, machine = make_sim ~cpus:2 () in
  let e = Slab.Ebr.create ~cpus:2 eng in
  let smr = Slab.Ebr.smr e in
  let enter = Option.get smr.Slab.Smr.reader_enter in
  let exit = Option.get smr.Slab.Smr.reader_exit in
  let ripened = ref 0 in
  smr.Slab.Smr.on_ripen (fun _ -> incr ripened);
  let c1 = Sim.Machine.cpu machine 1 in
  if stalled then enter (Sim.Machine.cpu machine 0);
  pin "defer + reader enter/exit" (fun _ ->
      ignore (smr.Slab.Smr.defer ~cpu:1);
      enter c1;
      exit c1);
  let frontier = smr.Slab.Smr.ripe_upto () in
  if stalled then begin
    Alcotest.(check int) "one advance, before the stall blocked" 1 !ripened;
    Alcotest.(check bool) "tokens outstanding" true
      (frontier < smr.Slab.Smr.snapshot ())
  end
  else
    Alcotest.(check bool) "an advance per exit" true (!ripened > iterations)

let suite =
  [
    Alcotest.test_case "free stack take/put allocate nothing" `Quick
      test_free_stack;
    Alcotest.test_case "slab grow allocates nothing" `Quick
      (test_grow ~latent_aware:false);
    Alcotest.test_case "slab grow allocates nothing (latent-aware)" `Quick
      (test_grow ~latent_aware:true);
    Alcotest.test_case "object cache push/pop allocate nothing" `Quick
      test_object_cache;
    Alcotest.test_case "latent slab push/harvest allocate nothing" `Quick
      test_latent_slab_cycle;
    Alcotest.test_case "first latent push on a fresh slab allocates nothing"
      `Quick test_first_latent_push;
    Alcotest.test_case "relocate across lists allocates nothing" `Quick
      test_relocate;
    Alcotest.test_case "refill_from_node allocates nothing" `Quick test_refill;
    Alcotest.test_case "flush_to_node allocates nothing" `Quick test_flush;
    Alcotest.test_case "SLUB free allocates nothing" `Quick test_slub_free;
    Alcotest.test_case "SLUB alloc allocates nothing" `Quick test_slub_alloc;
    Alcotest.test_case "Prudence alloc allocates nothing (hits)" `Quick
      test_prudence_alloc_hit;
    Alcotest.test_case "Prudence alloc allocates nothing (refills)" `Quick
      test_prudence_alloc_miss;
    Alcotest.test_case "SLUB free_deferred allocates nothing" `Quick
      test_slub_free_deferred;
    Alcotest.test_case "SLUB reclaim callback allocates nothing" `Quick
      test_slub_reclaim;
    Alcotest.test_case
      "SLUB deferrals through 1,000 grace periods allocate nothing" `Quick
      test_slub_defer_segments;
    Alcotest.test_case "grace periods with the conservation oracle allocate \
                        nothing" `Quick test_grace_period;
    Alcotest.test_case "cblist enqueue/advance/drain allocate nothing" `Quick
      test_cblist_cycle;
    Alcotest.test_case "engine schedule/run allocate nothing (Fifo)" `Quick
      (test_engine_cycle Sim.Engine.Fifo);
    Alcotest.test_case "engine schedule/run allocate nothing (Shuffle)"
      `Quick
      (test_engine_cycle (Sim.Engine.Shuffle 3));
    Alcotest.test_case "engine schedule/pop 200 deep allocate nothing" `Quick
      test_engine_deep_queue;
    Alcotest.test_case "process sleep allocates only its continuation"
      `Quick test_process_sleep;
    Alcotest.test_case "reader section holds allocate nothing" `Quick
      test_reader_section;
    Alcotest.test_case "Rculist.lookup allocates only its result" `Quick
      test_rculist_lookup;
    Alcotest.test_case "Rculist.update on Prudence allocates nothing" `Quick
      test_rculist_update;
    Alcotest.test_case
      "Rculist.insert with spare room allocates only its entry" `Quick
      test_rculist_insert;
    Alcotest.test_case "Rng float draws allocate nothing across modules"
      `Quick test_rng_draws;
    Alcotest.test_case "Buddy.alloc allocates nothing" `Quick test_buddy_alloc;
    Alcotest.test_case "Buddy.free (coalescing) allocates nothing" `Quick
      test_buddy_free;
    Alcotest.test_case "machine ticks allocate nothing" `Quick
      test_machine_ticks;
    Alcotest.test_case "EBR reader exit allocates nothing (scan blocked)"
      `Quick
      (test_ebr_reader_exit ~stalled:true);
    Alcotest.test_case "EBR reader exit allocates nothing (epoch advances)"
      `Quick
      (test_ebr_reader_exit ~stalled:false);
  ]
