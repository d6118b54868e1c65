(* Allocation pins for the slab frame's containers: once the per-slab
   and per-CPU arrays have grown, moving an object between them
   allocates nothing on the OCaml heap, and neither SLUB's nor
   Prudence's allocation allocates (the object is an int handle). A
   slab grow allocates only the slab's own records, none per object. A
   SLUB deferred free allocates nothing, and neither does the RCU
   callback ring once grown. The engine's schedule/dispatch
   cycle allocates nothing either, under both tie-break policies, and a
   process sleep only the runtime's continuation. On the read side, a
   reader section's holds, an EBR reader exit and a list copy-update
   allocate nothing, and a lookup only its result. A buddy allocation
   and a coalescing buddy free allocate nothing, and neither does a bare
   machine's scheduler tick. Each case warms up first, then counts minor
   words over 10k iterations. *)

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
  let slab = Option.get (Frame.grow cache (cpu0 env)) in
  pin "take_free_obj_exn + put_free_obj" (fun _ ->
      Frame.put_free_obj slab (Frame.take_free_obj_exn slab));
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
  let slab = Option.get (Frame.grow cache c) in
  (* The first latent push allocates the slab's latent arrays. *)
  pin "obj_to_latent_slab + slab_harvest_ripe" (fun i ->
      let o = Frame.take_free_obj_exn slab in
      Frame.hand_to_user cache c o;
      Frame.stamp_deferred cache c o ~cookie:(i + 1);
      Frame.obj_to_latent_slab cache o;
      ignore (Frame.relocate cache slab);
      ignore (Frame.slab_harvest_ripe slab ~completed:(i + 1));
      ignore (Frame.relocate cache slab));
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_relocate () =
  let env, cache = make_cache () in
  let slab = Option.get (Frame.grow cache (cpu0 env)) in
  ignore (Option.get (Frame.grow cache (cpu0 env)));
  pin "relocate free <-> partial" (fun _ ->
      let o = Frame.take_free_obj_exn slab in
      assert (Frame.relocate cache slab);
      Frame.put_free_obj slab o;
      assert (Frame.relocate cache slab));
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

(* Each cycle grows a slab of the 512 B test cache and destroys it, so
   the next grow reuses its handles and the object store never grows.
   The grow allocates the slab record, its free stack, its two link
   records, its [self] option (which it also returns) and its latent
   queue's header: 50 words, of which the free stack's 16 slots are
   the only per-object part. The destroy allocates nothing. *)
let test_grow () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  let cycle _ = Frame.destroy_slab cache (Option.get (Frame.grow cache c)) in
  cycle 0;
  Alcotest.(check (float 0.)) "10k grow + destroy, 50 words each"
    (float_of_int (50 * iterations))
    (words cycle);
  Alcotest.(check int) "no slab left" 0 (Frame.total_slabs cache);
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

(* Each cycle schedules two same-instant events and one 70 us away,
   which lands on wheel level 1 and cascades down before it runs, then
   runs all three. The handler closure is allocated once, up front. *)
let test_engine_cycle tiebreak () =
  let eng = Sim.Engine.create ~tiebreak () in
  let ran = ref 0 in
  let fn () = incr ran in
  pin "schedule x3 + run" (fun _ ->
      Sim.Engine.schedule eng ~after:0 fn;
      Sim.Engine.schedule eng ~after:0 fn;
      Sim.Engine.schedule eng ~after:70_000 fn;
      Sim.Engine.run eng);
  Alcotest.(check int) "every event ran" (3 * (iterations + 1)) !ran;
  Alcotest.(check int) "none left" 0 (Sim.Engine.pending eng);
  Alcotest.(check bool) "the far events cascaded" true
    (Sim.Engine.cascades eng > iterations)

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
    Alcotest.test_case "slab grow allocates only the slab's records" `Quick
      test_grow;
    Alcotest.test_case "object cache push/pop allocate nothing" `Quick
      test_object_cache;
    Alcotest.test_case "latent slab push/harvest allocate nothing" `Quick
      test_latent_slab_cycle;
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
    Alcotest.test_case "cblist enqueue/advance/drain allocate nothing" `Quick
      test_cblist_cycle;
    Alcotest.test_case "engine schedule/run allocate nothing (Fifo)" `Quick
      (test_engine_cycle Sim.Engine.Fifo);
    Alcotest.test_case "engine schedule/run allocate nothing (Shuffle)"
      `Quick
      (test_engine_cycle (Sim.Engine.Shuffle 3));
    Alcotest.test_case "process sleep allocates only its continuation"
      `Quick test_process_sleep;
    Alcotest.test_case "reader section holds allocate nothing" `Quick
      test_reader_section;
    Alcotest.test_case "Rculist.lookup allocates only its result" `Quick
      test_rculist_lookup;
    Alcotest.test_case "Rculist.update on Prudence allocates nothing" `Quick
      test_rculist_update;
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
