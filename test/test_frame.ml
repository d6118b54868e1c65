open Test_util
module Frame = Slab.Frame

let make_cache ?(latent_aware = false) ?(obj_size = 512) ?(cpus = 2) () =
  let env = make_env ~cpus ~total_pages:4096 () in
  let cache =
    Frame.create_cache env.fenv ~name:"frame-test" ~obj_size ~latent_aware ()
  in
  (env, cache)

let test_cache_geometry () =
  let _env, cache = make_cache () in
  Alcotest.(check int) "obj size" 512 cache.Frame.obj_size;
  Alcotest.(check bool) "order sane" true (cache.Frame.order <= 3);
  Alcotest.(check bool) "objs per slab" true (cache.Frame.objs_per_slab >= 16);
  Alcotest.(check int) "latent cap defaults to ocache cap"
    cache.Frame.ocache_cap cache.Frame.latent_cap;
  Alcotest.(check int) "no slabs yet" 0 (Frame.total_slabs cache)

let test_grow_creates_free_slab () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  let slab = Frame.grow cache c in
  Alcotest.(check bool) "on free list" true
    (Frame.on_list cache slab = Frame.L_free);
  Alcotest.(check int) "fully free" (Frame.capacity cache slab)
    (Frame.free_n cache slab);
  Alcotest.(check int) "one slab" 1 (Frame.total_slabs cache);
  Alcotest.(check bool) "pages charged" true
    (Mem.Buddy.used_pages env.buddy > 0);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_destroy_slab () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  let slab = Frame.grow cache c in
  let used = Mem.Buddy.used_pages env.buddy in
  Frame.destroy_slab cache slab;
  Alcotest.(check int) "slab gone" 0 (Frame.total_slabs cache);
  Alcotest.(check bool) "pages returned" true
    (Mem.Buddy.used_pages env.buddy < used)

let test_refill_and_relocate () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  ignore (Frame.grow cache c);
  let got =
    Frame.refill_from_node cache c ~want:5 ~select:Frame.select_slub
  in
  Alcotest.(check int) "got 5" 5 got;
  let pc = Frame.pcpu_for cache c in
  Alcotest.(check int) "in ocache" 5 pc.Frame.ocache_n;
  let node = Frame.node_for cache c in
  Alcotest.(check int) "slab now partial" 1 node.Frame.partial.Frame.len;
  Alcotest.(check int) "free list empty" 0
    node.Frame.free_slabs.Frame.len;
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_refill_exhausts_to_full () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  ignore (Frame.grow cache c);
  let want = cache.Frame.objs_per_slab in
  let got = Frame.refill_from_node cache c ~want ~select:Frame.select_slub in
  Alcotest.(check int) "whole slab taken" want got;
  let node = Frame.node_for cache c in
  Alcotest.(check int) "slab on full list" 1 node.Frame.full.Frame.len;
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_flush_returns_objects () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  ignore (Frame.grow cache c);
  ignore (Frame.refill_from_node cache c ~want:8 ~select:Frame.select_slub);
  Frame.flush_to_node cache c ~count:8;
  let pc = Frame.pcpu_for cache c in
  Alcotest.(check int) "ocache empty" 0 pc.Frame.ocache_n;
  let node = Frame.node_for cache c in
  Alcotest.(check int) "slab free again" 1
    node.Frame.free_slabs.Frame.len;
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_hand_to_user_emits_alloc () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  let checked = ref [] in
  Trace.Tap.subscribe env.fenv.Frame.tap (fun kind ~cpu:_ ~label:_ oid _ ->
      match kind with Alloc -> checked := oid :: !checked | _ -> ());
  ignore (Frame.grow cache c);
  ignore (Frame.refill_from_node cache c ~want:1 ~select:Frame.select_slub);
  let pc = Frame.pcpu_for cache c in
  let obj = Option.get (Frame.pop_ocache pc) in
  Frame.hand_to_user cache c obj;
  Alcotest.(check (list int)) "hook saw the oid" [ Frame.oid cache obj ]
    !checked

let take_one env cache =
  let c = cpu0 env in
  if Frame.total_slabs cache = 0 then ignore (Frame.grow cache c);
  ignore (Frame.refill_from_node cache c ~want:1 ~select:Frame.select_slub);
  let pc = Frame.pcpu_for cache c in
  let obj = Option.get (Frame.pop_ocache pc) in
  Frame.hand_to_user cache c obj;
  obj

let test_latent_cache_fifo_ripeness () =
  let env, cache = make_cache ~latent_aware:true () in
  let c = cpu0 env in
  let pc = Frame.pcpu_for cache c in
  let o1 = take_one env cache in
  let o2 = take_one env cache in
  Frame.stamp_deferred cache (cpu0 env) o1 ~cookie:1;
  Frame.obj_to_latent_cache cache pc o1;
  Frame.stamp_deferred cache (cpu0 env) o2 ~cookie:3;
  Frame.obj_to_latent_cache cache pc o2;
  Alcotest.(check bool) "nothing ripe at 0" true
    (Frame.latent_cache_pop_ripe cache pc ~completed:0 = None);
  (match Frame.latent_cache_pop_ripe cache pc ~completed:1 with
  | Some o ->
      Alcotest.(check int) "oldest first" (Frame.oid cache o1)
        (Frame.oid cache o)
  | None -> Alcotest.fail "expected ripe object");
  Alcotest.(check bool) "next not ripe at 1" true
    (Frame.latent_cache_pop_ripe cache pc ~completed:1 = None);
  Alcotest.(check int) "newest popped" (Frame.oid cache o2)
    (Frame.oid cache (Frame.latent_cache_pop_newest cache pc))

let test_latent_slab_harvest () =
  let env, cache = make_cache ~latent_aware:true () in
  let o1 = take_one env cache in
  let o2 = take_one env cache in
  let slab = Frame.parent cache o1 in
  Frame.stamp_deferred cache (cpu0 env) o1 ~cookie:1;
  Frame.obj_to_latent_slab cache o1;
  Frame.stamp_deferred cache (cpu0 env) o2 ~cookie:2;
  Frame.obj_to_latent_slab cache o2;
  Alcotest.(check int) "two latent" 2 (Frame.latent_n cache slab);
  Alcotest.(check int) "harvest at 1" 1
    (Frame.slab_harvest_ripe cache slab ~completed:1);
  Alcotest.(check int) "one left" 1 (Frame.latent_n cache slab);
  Alcotest.(check int) "harvest rest" 1
    (Frame.slab_harvest_ripe cache slab ~completed:5);
  Alcotest.(check int) "none left" 0 (Frame.latent_n cache slab);
  ignore (Frame.relocate cache slab);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_premove_full_to_partial () =
  (* Paper l.54: a full slab with a deferred object pre-moves to partial. *)
  let env, cache = make_cache ~latent_aware:true () in
  let c = cpu0 env in
  ignore (Frame.grow cache c);
  let want = cache.Frame.objs_per_slab in
  ignore (Frame.refill_from_node cache c ~want ~select:Frame.select_slub);
  let pc = Frame.pcpu_for cache c in
  let objs =
    List.init want (fun _ ->
        let o = Option.get (Frame.pop_ocache pc) in
        Frame.hand_to_user cache c o;
        o)
  in
  let slab = Frame.parent cache (List.hd objs) in
  Alcotest.(check bool) "slab full" true
    (Frame.on_list cache slab = Frame.L_full);
  let victim = List.hd objs in
  Frame.stamp_deferred cache (cpu0 env) victim ~cookie:1;
  Frame.obj_to_latent_slab cache victim;
  Alcotest.(check bool) "pre-moved" true (Frame.relocate cache slab);
  Alcotest.(check bool) "now partial" true
    (Frame.on_list cache slab = Frame.L_partial);
  (* clean up the rest for invariant purposes *)
  List.iter
    (fun o ->
      if o != victim then begin
        Frame.stamp_deferred cache (cpu0 env) o ~cookie:1;
        Frame.obj_to_latent_slab cache o
      end)
    objs;
  ignore (Frame.relocate cache slab);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_premove_all_deferred_to_free () =
  (* Paper l.56: allocated = deferred -> free list, but not reclaimable
     until the grace period. *)
  let env, cache = make_cache ~latent_aware:true ~obj_size:4096 () in
  let c = cpu0 env in
  ignore (Frame.grow cache c);
  let want = cache.Frame.objs_per_slab in
  ignore (Frame.refill_from_node cache c ~want ~select:Frame.select_slub);
  let pc = Frame.pcpu_for cache c in
  let objs =
    List.init want (fun _ ->
        let o = Option.get (Frame.pop_ocache pc) in
        Frame.hand_to_user cache c o;
        o)
  in
  let slab = Frame.parent cache (List.hd objs) in
  List.iter
    (fun o ->
      Frame.stamp_deferred cache (cpu0 env) o ~cookie:1;
      Frame.obj_to_latent_slab cache o)
    objs;
  ignore (Frame.relocate cache slab);
  Alcotest.(check bool) "pre-moved to free list" true
    (Frame.on_list cache slab = Frame.L_free);
  Alcotest.(check bool) "but not truly free" false
    (Frame.truly_free cache slab);
  (* Harvest at grace-period completion makes it reclaimable. *)
  ignore (Frame.slab_harvest_ripe cache slab ~completed:1);
  Alcotest.(check bool) "truly free after harvest" true
    (Frame.truly_free cache slab);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_shrink_skips_pre_moved_slabs () =
  let env, cache = make_cache ~latent_aware:true ~obj_size:4096 () in
  let c = cpu0 env in
  (* Build Size_class.min_free_slabs + 2 slabs on the free list where one is
     pre-moved (latent) and the rest truly free. *)
  let n = Slab.Size_class.min_free_slabs + 2 in
  let slabs = List.init n (fun _ -> Frame.grow cache c) in
  (* Make the first slab all-latent: take its objects and defer them. *)
  let first = List.hd slabs in
  while Frame.free_n cache first > 0 do
    (* hand + stamp to latent *)
    let o = Frame.take_free_obj_exn cache first in
    Frame.hand_to_user cache c o;
    Frame.stamp_deferred cache (cpu0 env) o ~cookie:99;
    Frame.obj_to_latent_slab cache o
  done;
  ignore (Frame.relocate cache first);
  Alcotest.(check bool) "pre-moved slab on free list" true
    (Frame.on_list cache first = Frame.L_free);
  let node = Frame.node_for cache c in
  let destroyed = Frame.shrink_node cache c node in
  Alcotest.(check bool) "destroyed some" true (destroyed > 0);
  Alcotest.(check bool) "pre-moved slab survived" true
    (Frame.on_list cache first = Frame.L_free);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_select_slub_prefers_partial () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  ignore (Frame.grow cache c);
  ignore (Frame.grow cache c);
  (* Make the first slab partial. *)
  ignore (Frame.refill_from_node cache c ~want:3 ~select:Frame.select_slub);
  let node = Frame.node_for cache c in
  let s = Frame.select_slub cache node in
  if s = Frame.no_slab then Alcotest.fail "selector found nothing";
  Alcotest.(check bool) "picked the partial slab" true
    (Frame.on_list cache s = Frame.L_partial)

let test_select_prudence_avoids_mostly_deferred () =
  let env, cache = make_cache ~latent_aware:true ~obj_size:4096 () in
  let c = cpu0 env in
  let node = Frame.node_for cache c in
  (* Slab A: 2 allocated, rest free. Slab B: like A, then its 2 allocated
     objects deferred (mostly-deferred). *)
  let setup deferred =
    let slab = Frame.grow cache c in
    let o1 = Frame.take_free_obj_exn cache slab in
    let o2 = Frame.take_free_obj_exn cache slab in
    Frame.hand_to_user cache c o1;
    Frame.hand_to_user cache c o2;
    ignore (Frame.relocate cache slab);
    if deferred then begin
      Frame.stamp_deferred cache (cpu0 env) o1 ~cookie:50;
      Frame.obj_to_latent_slab cache o1;
      Frame.stamp_deferred cache (cpu0 env) o2 ~cookie:50;
      Frame.obj_to_latent_slab cache o2;
      ignore (Frame.relocate cache slab)
    end;
    slab
  in
  let slab_a = setup false in
  let slab_b = setup true in
  Alcotest.(check bool) "both on partial/free" true
    (Frame.on_list cache slab_a = Frame.L_partial
    && (Frame.on_list cache slab_b = Frame.L_partial
       || Frame.on_list cache slab_b = Frame.L_free));
  let s = Frame.select_prudence ~scan_depth:10 cache node in
  if s = Frame.no_slab then Alcotest.fail "selector found nothing";
  Alcotest.(check int) "Fig. 5: picks slab A (no deferred)"
    (Frame.sid cache slab_a) (Frame.sid cache s);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let sids cache l =
  let out = ref [] in
  Frame.iter_list cache (fun s -> out := Frame.sid cache s :: !out) l;
  List.rev !out

let latent_sids cache node =
  let out = ref [] in
  Frame.iter_latent cache (fun s -> out := Frame.sid cache s :: !out) node;
  List.rev !out

let test_list_link_order () =
  (* A slab with free objects links at the front of its list; a
     pre-moved slab with none queues at the back. *)
  let env, cache = make_cache ~latent_aware:true ~obj_size:4096 () in
  let c = cpu0 env in
  let node = Frame.node_for cache c in
  let partial_slab () =
    let s = Frame.grow cache c in
    Frame.hand_to_user cache c (Frame.take_free_obj_exn cache s);
    ignore (Frame.relocate cache s);
    s
  in
  let s1 = partial_slab () in
  let s2 = partial_slab () in
  let s3 = Frame.grow cache c in
  let objs =
    List.init (Frame.capacity cache s3) (fun _ ->
        let o = Frame.take_free_obj_exn cache s3 in
        Frame.hand_to_user cache c o;
        o)
  in
  ignore (Frame.relocate cache s3);
  Alcotest.(check bool) "full" true (Frame.on_list cache s3 = Frame.L_full);
  let victim = List.hd objs in
  Frame.stamp_deferred cache c victim ~cookie:1;
  Frame.obj_to_latent_slab cache victim;
  Alcotest.(check bool) "pre-moved" true (Frame.relocate cache s3);
  Alcotest.(check (list int)) "newest free-bearing slab first, pre-moved last"
    [ Frame.sid cache s2; Frame.sid cache s1; Frame.sid cache s3 ]
    (sids cache node.Frame.partial);
  Alcotest.(check int) "length" 3 node.Frame.partial.Frame.len;
  Alcotest.(check (list int)) "full list empty" [] (sids cache node.Frame.full);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_list_walk_survives_relocation () =
  (* A walk may move the slab it visits to another list: it still visits
     every slab once, in the list's order. *)
  let env, cache = make_cache ~obj_size:4096 () in
  let c = cpu0 env in
  let node = Frame.node_for cache c in
  let held =
    List.init 3 (fun _ ->
        let s = Frame.grow cache c in
        let o = Frame.take_free_obj_exn cache s in
        ignore (Frame.relocate cache s);
        (s, o))
  in
  let before = sids cache node.Frame.partial in
  let visited = ref [] in
  Frame.iter_list cache
    (fun s ->
      visited := Frame.sid cache s :: !visited;
      let _, o = List.find (fun (s', _) -> s' = s) held in
      Frame.put_free_obj cache s o;
      Alcotest.(check bool) "moved to the free list" true
        (Frame.relocate cache s))
    node.Frame.partial;
  Alcotest.(check (list int)) "every slab once, in order" before
    (List.rev !visited);
  Alcotest.(check int) "partial emptied" 0 node.Frame.partial.Frame.len;
  Alcotest.(check int) "all free" 3 node.Frame.free_slabs.Frame.len;
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_latent_list_membership () =
  (* A slab is on the latent-slab list, oldest first, exactly while it
     holds latent objects. *)
  let env, cache = make_cache ~latent_aware:true () in
  let c = cpu0 env in
  let node = Frame.node_for cache c in
  let park s cookie =
    let o = Frame.take_free_obj_exn cache s in
    Frame.hand_to_user cache c o;
    Frame.stamp_deferred cache c o ~cookie;
    Frame.obj_to_latent_slab cache o;
    ignore (Frame.relocate cache s)
  in
  let s1 = Frame.grow cache c in
  let s2 = Frame.grow cache c in
  park s1 1;
  park s2 2;
  park s1 3;
  Alcotest.(check (list int)) "oldest first, once each"
    [ Frame.sid cache s1; Frame.sid cache s2 ] (latent_sids cache node);
  ignore (Frame.slab_harvest_ripe cache s1 ~completed:1);
  Alcotest.(check (list int)) "still latent: stays"
    [ Frame.sid cache s1; Frame.sid cache s2 ]
    (latent_sids cache node);
  ignore (Frame.slab_harvest_ripe cache s1 ~completed:3);
  ignore (Frame.relocate cache s1);
  Alcotest.(check (list int)) "emptied: leaves" [ Frame.sid cache s2 ]
    (latent_sids cache node);
  park s1 4;
  Alcotest.(check (list int)) "re-parked: back of the list"
    [ Frame.sid cache s2; Frame.sid cache s1 ] (latent_sids cache node);
  Alcotest.(check int) "length" 2 node.Frame.latent_slabs.Frame.len;
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_fragmentation_formula () =
  let env, cache = make_cache ~obj_size:512 () in
  let c = cpu0 env in
  Alcotest.(check bool) "nan when no live objects" true
    (Float.is_nan (Frame.fragmentation cache));
  let _o = take_one env cache in
  let expect =
    float_of_int (Frame.total_slabs cache * Frame.slab_bytes cache)
    /. float_of_int (1 * 512)
  in
  Alcotest.(check (float 0.001)) "f_t" expect (Frame.fragmentation cache);
  ignore c

(* A slab's latent list, driven through the frame: one slab of 8 B
   objects, 512 of them, more than a test pushes. *)
let latent_slab () =
  let env, cache = make_cache ~latent_aware:true ~obj_size:8 () in
  (env, cache, Frame.grow cache (cpu0 env))

(* Defer one of the slab's free objects onto its latent list. *)
let defer_to_slab env cache s ~cookie =
  let c = cpu0 env in
  let o = Frame.take_free_obj_exn cache s in
  Frame.hand_to_user cache c o;
  Frame.stamp_deferred cache c o ~cookie;
  Frame.obj_to_latent_slab cache o;
  ignore (Frame.relocate cache s);
  o

(* A harvest's count and the objects it freed, in the order it freed
   them: they are the top of the slab's free stack. *)
let harvest cache s ~completed =
  let before = Frame.free_n cache s in
  let n = Frame.slab_harvest_ripe cache s ~completed in
  ignore (Frame.relocate cache s);
  (n, List.init n (fun i -> Frame.free_obj cache s (before + i)))

(* Reference model: one newest-first list of (cookie, object),
   [List.partition]ed on harvest. A harvest frees the ripe objects
   newest first, and the waiting ones stay in push order. *)
let prop_latent_list_matches_model =
  QCheck.Test.make ~name:"slab latent list matches newest-first list model"
    ~count:300
    QCheck.(list (pair (int_bound 1) (int_bound 8)))
    (fun ops ->
      let env, cache, s = latent_slab () in
      let model = ref [] in
      let waiting_ok () =
        List.init (Frame.latent_n cache s) (Frame.latent_obj cache s)
        = List.rev_map snd !model
      in
      List.for_all
        (fun (op, k) ->
          if op = 0 then begin
            model := (k, defer_to_slab env cache s ~cookie:k) :: !model;
            waiting_ok ()
          end
          else begin
            let ripe, rest = List.partition (fun (c, _) -> c <= k) !model in
            model := rest;
            let n, got = harvest cache s ~completed:k in
            n = List.length ripe && got = List.map snd ripe && waiting_ok ()
          end)
        ops
      && Check.Audit.slab ~rcu:env.rcu cache = [])

let test_latent_harvest_merge_order () =
  (* Interleaved pushes across two cookies: the harvest frees them
     newest first across cookies, as a partition of one newest-first
     list does. *)
  let env, cache, s = latent_slab () in
  let push cookie = Frame.oid cache (defer_to_slab env cache s ~cookie) in
  let a = push 1 in
  let b = push 2 in
  let c = push 1 in
  let d = push 2 in
  let e = push 1 in
  let n, got = harvest cache s ~completed:2 in
  Alcotest.(check int) "all ripe" 5 n;
  Alcotest.(check (list int)) "newest first" [ e; d; c; b; a ]
    (List.map (Frame.oid cache) got)

let test_latent_harvest_visits () =
  (* 512 latent objects over 8 cookies. [latent_visits] counts every
     entry a harvest walks: a harvest below the least cookie visits
     nothing, and one that ripens a cookie visits each entry at most
     once. *)
  let env, cache, s = latent_slab () in
  let cookies = 8 and per = cache.Frame.objs_per_slab / 8 in
  for cookie = 1 to cookies do
    for _ = 1 to per do
      ignore (defer_to_slab env cache s ~cookie)
    done
  done;
  Alcotest.(check int) "populated" (cookies * per) (Frame.latent_n cache s);
  let visits () = env.fenv.Frame.latent_visits in
  let v0 = visits () in
  Alcotest.(check int) "nothing ripe" 0
    (Frame.slab_harvest_ripe cache s ~completed:0);
  Alcotest.(check int) "nothing visited" v0 (visits ());
  let len = Frame.latent_n cache s in
  Alcotest.(check int) "one cookie ripe" per
    (Frame.slab_harvest_ripe cache s ~completed:1);
  Alcotest.(check bool) "at most length visited" true (visits () - v0 <= len);
  let v1 = visits () in
  ignore (Frame.slab_harvest_ripe cache s ~completed:1);
  Alcotest.(check int) "same horizon again: nothing visited" v1 (visits ());
  Alcotest.(check int) "other cookies stay" ((cookies - 1) * per)
    (Frame.latent_n cache s)

(* The store keeps a cookie in 32 bits: a deferral whose cookie does
   not fit is refused before it emits or records anything, and the
   largest cookie that fits reads back whole. *)
let test_cookie_range () =
  let env, cache = make_cache () in
  let o = take_one env cache in
  let defers = ref 0 in
  Trace.Tap.subscribe env.fenv.Frame.tap (fun kind ~cpu:_ ~label:_ _ _ ->
      match kind with Defer -> incr defers | _ -> ());
  List.iter
    (fun cookie ->
      Alcotest.check_raises
        (Printf.sprintf "cookie %d refused" cookie)
        (Invalid_argument "Frame.stamp_deferred: cookie outside [0, 2^31 - 1]")
        (fun () -> Frame.stamp_deferred cache (cpu0 env) o ~cookie))
    [ 1 lsl 31; max_int; -1 ];
  Alcotest.(check int) "nothing emitted" 0 !defers;
  Alcotest.(check int) "still live" 1 (Frame.live_objects cache);
  Alcotest.(check int) "cookie untouched" 0 (Frame.cookie cache o);
  let top = (1 lsl 31) - 1 in
  Frame.stamp_deferred cache (cpu0 env) o ~cookie:top;
  Alcotest.(check int) "2^31 - 1 reads back" top (Frame.cookie cache o);
  Alcotest.(check int) "one Defer" 1 !defers

let suite =
  [
    Alcotest.test_case "cache geometry" `Quick test_cache_geometry;
    Alcotest.test_case "grow creates free slab" `Quick
      test_grow_creates_free_slab;
    Alcotest.test_case "destroy slab" `Quick test_destroy_slab;
    Alcotest.test_case "refill relocates" `Quick test_refill_and_relocate;
    Alcotest.test_case "refill to full" `Quick test_refill_exhausts_to_full;
    Alcotest.test_case "flush returns objects" `Quick test_flush_returns_objects;
    Alcotest.test_case "alloc event on the tap" `Quick
      test_hand_to_user_emits_alloc;
    Alcotest.test_case "latent cache fifo/ripeness" `Quick
      test_latent_cache_fifo_ripeness;
    Alcotest.test_case "latent slab harvest" `Quick test_latent_slab_harvest;
    Alcotest.test_case "pre-move full -> partial" `Quick
      test_premove_full_to_partial;
    Alcotest.test_case "pre-move all-deferred -> free" `Quick
      test_premove_all_deferred_to_free;
    Alcotest.test_case "shrink skips pre-moved slabs" `Quick
      test_shrink_skips_pre_moved_slabs;
    Alcotest.test_case "select_slub prefers partial" `Quick
      test_select_slub_prefers_partial;
    Alcotest.test_case "select_prudence avoids deferred (Fig. 5)" `Quick
      test_select_prudence_avoids_mostly_deferred;
    Alcotest.test_case "slab lists: link order by free objects" `Quick
      test_list_link_order;
    Alcotest.test_case "slab lists: walk survives relocation" `Quick
      test_list_walk_survives_relocation;
    Alcotest.test_case "latent-slab list: member exactly while latent"
      `Quick test_latent_list_membership;
    Alcotest.test_case "fragmentation formula" `Quick test_fragmentation_formula;
    QCheck_alcotest.to_alcotest prop_latent_list_matches_model;
    Alcotest.test_case "latent harvest merges cookies newest-first" `Quick
      test_latent_harvest_merge_order;
    Alcotest.test_case "latent harvest visits nothing unripe, at most length"
      `Quick test_latent_harvest_visits;
    Alcotest.test_case "a cookie outside 32 bits is refused" `Quick
      test_cookie_range;
  ]
