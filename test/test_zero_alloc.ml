(* Allocation pins for the slab frame's containers: once the per-slab
   and per-CPU arrays have grown, moving an object between them
   allocates nothing on the OCaml heap, and a SLUB allocation allocates
   exactly the [Some] it returns. Each case warms up first, then counts
   minor words over 10k iterations. *)

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
  let objs = Array.make n (Option.get (Slab.Slub.alloc slub cache c)) in
  Slab.Slub.free slub cache c objs.(0);
  let alloc_words = ref 0. and free_words = ref 0. in
  for round = 0 to rounds do
    let a = Gc.minor_words () in
    for i = 0 to n - 1 do
      objs.(i) <- Option.get (Slab.Slub.alloc slub cache c)
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
  Alcotest.(check (float 0.)) "SLUB alloc: its Some, 2 words per call"
    (float_of_int (2 * iterations))
    (fst (slub_alloc_free_words ()))

let suite =
  [
    Alcotest.test_case "free stack take/put allocate nothing" `Quick
      test_free_stack;
    Alcotest.test_case "object cache push/pop allocate nothing" `Quick
      test_object_cache;
    Alcotest.test_case "latent slab push/harvest allocate nothing" `Quick
      test_latent_slab_cycle;
    Alcotest.test_case "relocate across lists allocates nothing" `Quick
      test_relocate;
    Alcotest.test_case "refill_from_node allocates nothing" `Quick test_refill;
    Alcotest.test_case "flush_to_node allocates nothing" `Quick test_flush;
    Alcotest.test_case "SLUB free allocates nothing" `Quick test_slub_free;
    Alcotest.test_case "SLUB alloc allocates only its Some" `Quick
      test_slub_alloc;
  ]
