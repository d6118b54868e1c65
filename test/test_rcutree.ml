open Test_util
module Frame = Slab.Frame

let make_tree ?(total_pages = 16_384) ?config () =
  let env = make_env ~cpus:2 ~total_pages () in
  let readers = Rcu.Readers.create env.rcu in
  Rcu.Readers.check_allocs readers ~where:"tree";
  let backend = Prudence.backend (Prudence.create ?config env.fenv env.rcu) in
  let cache = backend.Slab.Backend.create_cache ~name:"tnode" ~obj_size:64 in
  let tree =
    Rcudata.Rcutree.create ~backend ~readers ~cache ~name:"t"
  in
  (env, readers, cache, tree)

let test_insert_lookup () =
  let env, _, _, t = make_tree () in
  let c = cpu0 env in
  List.iter
    (fun k ->
      Alcotest.(check bool) "insert ok" true
        (Rcudata.Rcutree.insert t c ~key:k ~value:(k * 10)))
    [ 5; 3; 8; 1; 4; 7; 9 ];
  Alcotest.(check int) "size" 7 (Rcudata.Rcutree.size t);
  Alcotest.(check (option int)) "lookup 4" (Some 40)
    (Rcudata.Rcutree.lookup t c ~key:4);
  Alcotest.(check (option int)) "lookup missing" None
    (Rcudata.Rcutree.lookup t c ~key:6);
  Rcudata.Rcutree.check_bst_invariant t

let test_sorted_order () =
  let env, _, _, t = make_tree () in
  let c = cpu0 env in
  List.iter
    (fun k -> ignore (Rcudata.Rcutree.insert t c ~key:k ~value:k))
    [ 5; 3; 8; 1; 4 ];
  Alcotest.(check (list (pair int int)))
    "in-order"
    [ (1, 1); (3, 3); (4, 4); (5, 5); (8, 8) ]
    (Rcudata.Rcutree.to_sorted_list t)

let test_update_defers_path () =
  (* Re-inserting a deep key path-copies the whole root-to-node path:
     multiple deferred objects per update (§3.1). *)
  let env, _, cache, t = make_tree () in
  let c = cpu0 env in
  (* A right-leaning path 1..6. *)
  for k = 1 to 6 do
    ignore (Rcudata.Rcutree.insert t c ~key:k ~value:k)
  done;
  let before =
    (Slab.Slab_stats.snapshot cache.Frame.stats).Slab.Slab_stats.deferred_frees
  in
  ignore (Rcudata.Rcutree.insert t c ~key:6 ~value:60);
  let after =
    (Slab.Slab_stats.snapshot cache.Frame.stats).Slab.Slab_stats.deferred_frees
  in
  Alcotest.(check int) "whole path deferred" 6 (after - before);
  Alcotest.(check (option int)) "new value" (Some 60)
    (Rcudata.Rcutree.lookup t c ~key:6)

let test_delete () =
  let env, _, _, t = make_tree () in
  let c = cpu0 env in
  List.iter
    (fun k -> ignore (Rcudata.Rcutree.insert t c ~key:k ~value:k))
    [ 5; 3; 8; 1; 4; 7; 9; 6 ];
  Alcotest.(check bool) "delete leaf" true (Rcudata.Rcutree.delete t c ~key:1);
  Alcotest.(check bool) "delete two-child root" true
    (Rcudata.Rcutree.delete t c ~key:5);
  Alcotest.(check bool) "delete absent" false
    (Rcudata.Rcutree.delete t c ~key:42);
  Alcotest.(check int) "size" 6 (Rcudata.Rcutree.size t);
  Alcotest.(check (option int)) "gone" None (Rcudata.Rcutree.lookup t c ~key:5);
  Alcotest.(check (option int)) "others intact" (Some 6)
    (Rcudata.Rcutree.lookup t c ~key:6);
  Rcudata.Rcutree.check_bst_invariant t

let test_live_accounting_settles () =
  let env, _, cache, t = make_tree () in
  let c = cpu0 env in
  let finished =
    run_process env (fun () ->
        for k = 1 to 50 do
          ignore (Rcudata.Rcutree.insert t c ~key:(k * 7 mod 101) ~value:k)
        done;
        for k = 1 to 25 do
          ignore (Rcudata.Rcutree.delete t c ~key:(k * 7 mod 101))
        done;
        Rcu.synchronize env.rcu;
        Rcu.synchronize env.rcu)
  in
  check_completed "tree ops" finished;
  Rcudata.Rcutree.check_bst_invariant t;
  (* Every deferred path node eventually reclaims: live = tree size. *)
  Alcotest.(check int) "live = size" (Rcudata.Rcutree.size t)
    (Frame.live_objects cache);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_oom_rollback () =
  (* wait_on_oom off: exhaustion must fail cleanly outside process
     context. *)
  let config = { Prudence.default_config with Prudence.wait_on_oom = false } in
  let env, _, cache, t = make_tree ~total_pages:8 ~config () in
  let c = cpu0 env in
  (* Fill memory through tree inserts until one fails... *)
  let k = ref 0 in
  while Rcudata.Rcutree.insert t c ~key:!k ~value:!k do
    incr k
  done;
  Rcudata.Rcutree.check_bst_invariant t;
  (* ...the failed insert must not leak: live objects = tree nodes. *)
  Alcotest.(check int) "no leak on failed path copy"
    (Rcudata.Rcutree.size t) (Frame.live_objects cache);
  Alcotest.(check (option int)) "existing keys intact" (Some 0)
    (Rcudata.Rcutree.lookup t c ~key:0)

let test_concurrent_readers_safe () =
  let env, readers, cache, t = make_tree () in
  let c0 = cpu0 env and c1 = cpu env 1 in
  for k = 1 to 64 do
    ignore (Rcudata.Rcutree.insert t c0 ~key:k ~value:k)
  done;
  let horizon = Sim.Clock.ms 40 in
  Sim.Process.spawn env.eng (fun () ->
      let rng = Sim.Rng.create ~seed:3 in
      while Sim.Engine.now env.eng < horizon do
        let k = 1 + Sim.Rng.int rng 64 in
        if Sim.Rng.bool rng then
          ignore (Rcudata.Rcutree.insert t c0 ~key:k ~value:(Sim.Rng.int rng 100))
        else ignore (Rcudata.Rcutree.delete t c0 ~key:k);
        Sim.Process.sleep env.eng 5_000
      done);
  Sim.Process.spawn env.eng (fun () ->
      let rng = Sim.Rng.create ~seed:4 in
      while Sim.Engine.now env.eng < horizon do
        ignore (Rcudata.Rcutree.lookup t c1 ~key:(1 + Sim.Rng.int rng 64));
        Sim.Process.sleep env.eng 2_000
      done);
  Sim.Engine.run ~until:(horizon + Sim.Clock.ms 10) env.eng;
  Alcotest.(check (list string)) "no violations" []
    (Rcu.Readers.violations readers);
  Rcudata.Rcutree.check_bst_invariant t;
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let prop_tree_matches_model =
  QCheck.Test.make ~name:"rcutree behaves like a map" ~count:60
    QCheck.(list (pair (int_bound 40) bool))
    (fun ops ->
      let env, _, _, t = make_tree () in
      let c = cpu0 env in
      let model = Hashtbl.create 32 in
      List.iter
        (fun (k, ins) ->
          if ins then begin
            ignore (Rcudata.Rcutree.insert t c ~key:k ~value:(k * 2));
            Hashtbl.replace model k (k * 2)
          end
          else begin
            ignore (Rcudata.Rcutree.delete t c ~key:k);
            Hashtbl.remove model k
          end)
        ops;
      Rcudata.Rcutree.check_bst_invariant t;
      let expect =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
        |> List.sort compare
      in
      Rcudata.Rcutree.to_sorted_list t = expect
      && Rcudata.Rcutree.size t = List.length expect)

let suite =
  [
    Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
    Alcotest.test_case "sorted order" `Quick test_sorted_order;
    Alcotest.test_case "update defers whole path (§3.1)" `Quick
      test_update_defers_path;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "live accounting settles" `Quick
      test_live_accounting_settles;
    Alcotest.test_case "oom rollback does not leak" `Quick test_oom_rollback;
    Alcotest.test_case "concurrent readers safe" `Quick
      test_concurrent_readers_safe;
    QCheck_alcotest.to_alcotest prop_tree_matches_model;
  ]
