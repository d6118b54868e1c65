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
  match Frame.grow cache c with
  | None -> Alcotest.fail "grow failed"
  | Some slab ->
      Alcotest.(check bool) "on free list" true
        (slab.Frame.on_list = Frame.L_free);
      Alcotest.(check int) "fully free" slab.Frame.capacity slab.Frame.free_n;
      Alcotest.(check int) "one slab" 1 (Frame.total_slabs cache);
      Alcotest.(check bool) "pages charged" true
        (Mem.Buddy.used_pages env.buddy > 0);
      audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_destroy_slab () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  let slab = Option.get (Frame.grow cache c) in
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
  Alcotest.(check int) "two latent" 2 slab.Frame.latent_n;
  Alcotest.(check int) "harvest at 1" 1 (Frame.slab_harvest_ripe slab ~completed:1);
  Alcotest.(check int) "one left" 1 slab.Frame.latent_n;
  Alcotest.(check int) "harvest rest" 1
    (Frame.slab_harvest_ripe slab ~completed:5);
  Alcotest.(check int) "none left" 0 slab.Frame.latent_n;
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
  Alcotest.(check bool) "slab full" true (slab.Frame.on_list = Frame.L_full);
  let victim = List.hd objs in
  Frame.stamp_deferred cache (cpu0 env) victim ~cookie:1;
  Frame.obj_to_latent_slab cache victim;
  Alcotest.(check bool) "pre-moved" true (Frame.relocate cache slab);
  Alcotest.(check bool) "now partial" true
    (slab.Frame.on_list = Frame.L_partial);
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
    (slab.Frame.on_list = Frame.L_free);
  Alcotest.(check bool) "but not truly free" false (Frame.truly_free slab);
  (* Harvest at grace-period completion makes it reclaimable. *)
  ignore (Frame.slab_harvest_ripe slab ~completed:1);
  Alcotest.(check bool) "truly free after harvest" true (Frame.truly_free slab);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_shrink_skips_pre_moved_slabs () =
  let env, cache = make_cache ~latent_aware:true ~obj_size:4096 () in
  let c = cpu0 env in
  (* Build Size_class.min_free_slabs + 2 slabs on the free list where one is
     pre-moved (latent) and the rest truly free. *)
  let n = Slab.Size_class.min_free_slabs + 2 in
  let slabs = List.init n (fun _ -> Option.get (Frame.grow cache c)) in
  (* Make the first slab all-latent: take its objects and defer them. *)
  let first = List.hd slabs in
  while first.Frame.free_n > 0 do
    (* hand + stamp to latent *)
    let o = Frame.take_free_obj_exn first in
    Frame.hand_to_user cache c o;
    Frame.stamp_deferred cache (cpu0 env) o ~cookie:99;
    Frame.obj_to_latent_slab cache o
  done;
  ignore (Frame.relocate cache first);
  Alcotest.(check bool) "pre-moved slab on free list" true
    (first.Frame.on_list = Frame.L_free);
  let node = Frame.node_for cache c in
  let destroyed = Frame.shrink_node cache c node in
  Alcotest.(check bool) "destroyed some" true (destroyed > 0);
  Alcotest.(check bool) "pre-moved slab survived" true
    (first.Frame.on_list = Frame.L_free);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_select_slub_prefers_partial () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  ignore (Frame.grow cache c);
  ignore (Frame.grow cache c);
  (* Make the first slab partial. *)
  ignore (Frame.refill_from_node cache c ~want:3 ~select:Frame.select_slub);
  let node = Frame.node_for cache c in
  match Frame.select_slub node with
  | Some s ->
      Alcotest.(check bool) "picked the partial slab" true
        (s.Frame.on_list = Frame.L_partial)
  | None -> Alcotest.fail "selector found nothing"

let test_select_prudence_avoids_mostly_deferred () =
  let env, cache = make_cache ~latent_aware:true ~obj_size:4096 () in
  let c = cpu0 env in
  let node = Frame.node_for cache c in
  (* Slab A: 2 allocated, rest free. Slab B: like A, then its 2 allocated
     objects deferred (mostly-deferred). *)
  let setup deferred =
    let slab = Option.get (Frame.grow cache c) in
    let o1 = Frame.take_free_obj_exn slab in
    let o2 = Frame.take_free_obj_exn slab in
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
    (slab_a.Frame.on_list = Frame.L_partial
    && (slab_b.Frame.on_list = Frame.L_partial
       || slab_b.Frame.on_list = Frame.L_free));
  (match Frame.select_prudence ~scan_depth:10 node with
  | Some s ->
      Alcotest.(check int) "Fig. 5: picks slab A (no deferred)"
        slab_a.Frame.sid s.Frame.sid
  | None -> Alcotest.fail "selector found nothing");
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let sids l =
  let out = ref [] in
  Frame.iter_list (fun s -> out := s.Frame.sid :: !out) l;
  List.rev !out

let latent_sids node =
  let out = ref [] in
  Frame.iter_latent (fun s -> out := s.Frame.sid :: !out) node;
  List.rev !out

let test_list_link_order () =
  (* A slab with free objects links at the front of its list; a
     pre-moved slab with none queues at the back. *)
  let env, cache = make_cache ~latent_aware:true ~obj_size:4096 () in
  let c = cpu0 env in
  let node = Frame.node_for cache c in
  let partial_slab () =
    let s = Option.get (Frame.grow cache c) in
    Frame.hand_to_user cache c (Frame.take_free_obj_exn s);
    ignore (Frame.relocate cache s);
    s
  in
  let s1 = partial_slab () in
  let s2 = partial_slab () in
  let s3 = Option.get (Frame.grow cache c) in
  let objs =
    List.init s3.Frame.capacity (fun _ ->
        let o = Frame.take_free_obj_exn s3 in
        Frame.hand_to_user cache c o;
        o)
  in
  ignore (Frame.relocate cache s3);
  Alcotest.(check bool) "full" true (s3.Frame.on_list = Frame.L_full);
  let victim = List.hd objs in
  Frame.stamp_deferred cache c victim ~cookie:1;
  Frame.obj_to_latent_slab cache victim;
  Alcotest.(check bool) "pre-moved" true (Frame.relocate cache s3);
  Alcotest.(check (list int)) "newest free-bearing slab first, pre-moved last"
    [ s2.Frame.sid; s1.Frame.sid; s3.Frame.sid ]
    (sids node.Frame.partial);
  Alcotest.(check int) "length" 3 node.Frame.partial.Frame.len;
  Alcotest.(check (list int)) "full list empty" [] (sids node.Frame.full);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_list_walk_survives_relocation () =
  (* A walk may move the slab it visits to another list: it still visits
     every slab once, in the list's order. *)
  let env, cache = make_cache ~obj_size:4096 () in
  let c = cpu0 env in
  let node = Frame.node_for cache c in
  let held =
    List.init 3 (fun _ ->
        let s = Option.get (Frame.grow cache c) in
        let o = Frame.take_free_obj_exn s in
        ignore (Frame.relocate cache s);
        (s, o))
  in
  let before = sids node.Frame.partial in
  let visited = ref [] in
  Frame.iter_list
    (fun s ->
      visited := s.Frame.sid :: !visited;
      let _, o = List.find (fun (s', _) -> s' == s) held in
      Frame.put_free_obj s o;
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
    let o = Frame.take_free_obj_exn s in
    Frame.hand_to_user cache c o;
    Frame.stamp_deferred cache c o ~cookie;
    Frame.obj_to_latent_slab cache o;
    ignore (Frame.relocate cache s)
  in
  let s1 = Option.get (Frame.grow cache c) in
  let s2 = Option.get (Frame.grow cache c) in
  park s1 1;
  park s2 2;
  park s1 3;
  Alcotest.(check (list int)) "oldest first, once each"
    [ s1.Frame.sid; s2.Frame.sid ] (latent_sids node);
  ignore (Frame.slab_harvest_ripe s1 ~completed:1);
  Alcotest.(check (list int)) "still latent: stays"
    [ s1.Frame.sid; s2.Frame.sid ]
    (latent_sids node);
  ignore (Frame.slab_harvest_ripe s1 ~completed:3);
  ignore (Frame.relocate cache s1);
  Alcotest.(check (list int)) "emptied: leaves" [ s2.Frame.sid ]
    (latent_sids node);
  park s1 4;
  Alcotest.(check (list int)) "re-parked: back of the list"
    [ s2.Frame.sid; s1.Frame.sid ] (latent_sids node);
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

let test_color_cycles () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  let s1 = Option.get (Frame.grow cache c) in
  let s2 = Option.get (Frame.grow cache c) in
  Alcotest.(check bool) "colors differ across consecutive slabs" true
    (s1.Frame.color <> s2.Frame.color)

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
    Alcotest.test_case "slab colouring cycles" `Quick test_color_cycles;
  ]
