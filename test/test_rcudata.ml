open Test_util
module Frame = Slab.Frame

type setup = {
  env : Test_util.env;
  backend : Slab.Backend.t;
  readers : Rcu.Readers.t;
  cache : Frame.cache;
}

let make_setup ?(prudence = true) () =
  let env = make_env ~cpus:2 ~total_pages:16384 () in
  let readers = Rcu.Readers.create env.rcu in
  Rcu.Readers.check_allocs readers ~where:"alloc";
  let backend =
    if prudence then Prudence.backend (Prudence.create env.fenv env.rcu)
    else Slab.Slub.backend (Slab.Slub.create env.fenv env.rcu)
  in
  let cache = backend.Slab.Backend.create_cache ~name:"entries" ~obj_size:128 in
  { env; backend; readers; cache }

let make_list ?prudence () =
  let s = make_setup ?prudence () in
  let l =
    Rcudata.Rculist.create ~backend:s.backend ~readers:s.readers ~cache:s.cache
      ~name:"l"
  in
  (s, l)

let test_insert_lookup () =
  let s, l = make_list () in
  let c = cpu0 s.env in
  Alcotest.(check bool) "insert" true (Rcudata.Rculist.insert l c ~key:1 ~value:10);
  Alcotest.(check bool) "insert" true (Rcudata.Rculist.insert l c ~key:2 ~value:20);
  Alcotest.(check (option int)) "lookup 1" (Some 10)
    (Rcudata.Rculist.lookup l c ~key:1);
  Alcotest.(check (option int)) "lookup 2" (Some 20)
    (Rcudata.Rculist.lookup l c ~key:2);
  Alcotest.(check (option int)) "lookup missing" None
    (Rcudata.Rculist.lookup l c ~key:3);
  Alcotest.(check int) "length" 2 (Rcudata.Rculist.length l)

let test_update_copy_semantics () =
  let s, l = make_list () in
  let c = cpu0 s.env in
  ignore (Rcudata.Rculist.insert l c ~key:1 ~value:10);
  Alcotest.(check bool) "update ok" true
    (Rcudata.Rculist.update l c ~key:1 ~value:11 = `Updated);
  Alcotest.(check (option int)) "new value visible" (Some 11)
    (Rcudata.Rculist.lookup l c ~key:1);
  (* The old version's backing object was deferred, not freed: it is still
     outstanding in the allocator. *)
  Alcotest.(check int) "one deferred" 1
    (Slab.Slab_stats.snapshot s.cache.Frame.stats).Slab.Slab_stats.deferred_frees;
  Alcotest.(check bool) "absent update" true
    (Rcudata.Rculist.update l c ~key:9 ~value:0 = `Absent)

let test_delete () =
  let s, l = make_list () in
  let c = cpu0 s.env in
  ignore (Rcudata.Rculist.insert l c ~key:1 ~value:10);
  Alcotest.(check bool) "delete" true (Rcudata.Rculist.delete l c ~key:1);
  Alcotest.(check (option int)) "gone" None (Rcudata.Rculist.lookup l c ~key:1);
  Alcotest.(check bool) "delete missing" false (Rcudata.Rculist.delete l c ~key:1)

let test_reader_never_sees_reused_object () =
  (* The full stack together: concurrent readers + updaters over Prudence;
     the checker must stay silent. *)
  let s, l = make_list () in
  let c0 = cpu0 s.env and c1 = cpu s.env 1 in
  for k = 1 to 20 do
    ignore (Rcudata.Rculist.insert l c0 ~key:k ~value:k)
  done;
  let stop_at = Sim.(Clock.ms 50) in
  (* Updater on cpu0. *)
  Sim.Process.spawn s.env.eng (fun () ->
      let rng = Sim.Rng.create ~seed:5 in
      while Sim.Engine.now s.env.eng < stop_at do
        let k = 1 + Sim.Rng.int rng 20 in
        ignore (Rcudata.Rculist.update l c0 ~key:k ~value:(Sim.Rng.int rng 100));
        Sim.Process.sleep s.env.eng 10_000
      done);
  (* Reader on cpu1, holding references across some virtual time. *)
  Sim.Process.spawn s.env.eng (fun () ->
      let rng = Sim.Rng.create ~seed:6 in
      while Sim.Engine.now s.env.eng < stop_at do
        let k = 1 + Sim.Rng.int rng 20 in
        ignore (Rcudata.Rculist.lookup l c1 ~key:k);
        Sim.Process.sleep s.env.eng 3_000
      done);
  Sim.Engine.run ~until:(stop_at + Sim.(Clock.ms 20)) s.env.eng;
  Alcotest.(check (list string)) "no safety violations" []
    (Rcu.Readers.violations s.readers);
  audit_clean (Check.Audit.slab ~rcu:s.env.rcu s.cache)

let test_read_iter () =
  let s, l = make_list () in
  let c = cpu0 s.env in
  for k = 1 to 5 do
    ignore (Rcudata.Rculist.insert l c ~key:k ~value:(k * 2))
  done;
  let sum = ref 0 in
  Rcudata.Rculist.read_iter l c (fun ~key:_ ~value -> sum := !sum + value);
  Alcotest.(check int) "iterated all" 30 !sum;
  Alcotest.(check (list string)) "no violations" []
    (Rcu.Readers.violations s.readers)

let test_destroy_defers_everything () =
  let s, l = make_list () in
  let c = cpu0 s.env in
  for k = 1 to 10 do
    ignore (Rcudata.Rculist.insert l c ~key:k ~value:k)
  done;
  Rcudata.Rculist.destroy l c;
  Alcotest.(check int) "empty" 0 (Rcudata.Rculist.length l);
  Alcotest.(check int) "10 deferred" 10
    (Slab.Slab_stats.snapshot s.cache.Frame.stats).Slab.Slab_stats.deferred_frees

let test_hash_basics () =
  let s = make_setup () in
  let h =
    Rcudata.Rcuhash.create ~backend:s.backend ~readers:s.readers ~cache:s.cache
      ~buckets:16 ~name:"h"
  in
  let c = cpu0 s.env in
  for k = 1 to 100 do
    ignore (Rcudata.Rcuhash.insert h c ~key:k ~value:(k * k))
  done;
  Alcotest.(check int) "size" 100 (Rcudata.Rcuhash.size h);
  Alcotest.(check (option int)) "lookup" (Some 49)
    (Rcudata.Rcuhash.lookup h c ~key:7);
  Alcotest.(check bool) "update" true
    (Rcudata.Rcuhash.update h c ~key:7 ~value:0 = `Updated);
  Alcotest.(check (option int)) "updated" (Some 0)
    (Rcudata.Rcuhash.lookup h c ~key:7);
  Alcotest.(check bool) "delete" true (Rcudata.Rcuhash.delete h c ~key:7);
  Alcotest.(check (option int)) "deleted" None (Rcudata.Rcuhash.lookup h c ~key:7);
  Alcotest.(check int) "size after delete" 99 (Rcudata.Rcuhash.size h)

let test_hash_over_slub_backend () =
  let s = make_setup ~prudence:false () in
  let h =
    Rcudata.Rcuhash.create ~backend:s.backend ~readers:s.readers ~cache:s.cache
      ~buckets:8 ~name:"h"
  in
  let c = cpu0 s.env in
  for k = 1 to 50 do
    ignore (Rcudata.Rcuhash.insert h c ~key:k ~value:k)
  done;
  for k = 1 to 50 do
    ignore (Rcudata.Rcuhash.update h c ~key:k ~value:(-k))
  done;
  Alcotest.(check (option int)) "works over slub" (Some (-25))
    (Rcudata.Rcuhash.lookup h c ~key:25);
  (* The deferred old versions drain through RCU. *)
  Sim.Engine.run ~until:Sim.(Clock.ms 50) s.env.eng;
  Alcotest.(check int) "drained" 0 (Rcu.pending_callbacks s.env.rcu);
  Alcotest.(check (list string)) "no violations" []
    (Rcu.Readers.violations s.readers)

let test_hash_invalid_buckets () =
  let s = make_setup () in
  try
    ignore
      (Rcudata.Rcuhash.create ~backend:s.backend ~readers:s.readers
         ~cache:s.cache ~buckets:0 ~name:"h");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* A lookup ends its read-side section even when the read raises: here
   a tap subscriber fails on the reader's access. *)
let test_lookup_exception_safe () =
  let s, l = make_list () in
  let c = cpu0 s.env in
  ignore (Rcudata.Rculist.insert l c ~key:1 ~value:10);
  Trace.Tap.subscribe (Sim.Engine.tap s.env.eng)
    (fun kind ~cpu:_ ~label:_ _ _ ->
      match kind with Reader_access -> failwith "boom" | _ -> ());
  Alcotest.check_raises "the failure propagates" (Failure "boom") (fun () ->
      ignore (Rcudata.Rculist.lookup l c ~key:1));
  Alcotest.(check int) "nesting restored" 0 c.Sim.Machine.rcu_nesting

let suite =
  [
    Alcotest.test_case "list insert/lookup" `Quick test_insert_lookup;
    Alcotest.test_case "list lookup exception safe" `Quick
      test_lookup_exception_safe;
    Alcotest.test_case "list copy-update semantics" `Quick
      test_update_copy_semantics;
    Alcotest.test_case "list delete" `Quick test_delete;
    Alcotest.test_case "reader/updater race is safe" `Quick
      test_reader_never_sees_reused_object;
    Alcotest.test_case "list read_iter" `Quick test_read_iter;
    Alcotest.test_case "list destroy defers" `Quick
      test_destroy_defers_everything;
    Alcotest.test_case "hash basics" `Quick test_hash_basics;
    Alcotest.test_case "hash over slub backend" `Quick
      test_hash_over_slub_backend;
    Alcotest.test_case "hash invalid buckets" `Quick test_hash_invalid_buckets;
  ]
