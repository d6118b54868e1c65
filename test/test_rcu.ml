open Test_util

let test_gp_requires_all_cpus () =
  let env = make_env ~cpus:4 () in
  (* Pin one CPU in a read-side critical section: the grace period must not
     complete until it exits. *)
  let c3 = cpu env 3 in
  Rcu.read_lock env.rcu c3;
  Rcu.request_gp env.rcu;
  Sim.Engine.run ~until:Sim.(Clock.ms 20) env.eng;
  Alcotest.(check int) "gp stalled by reader" 0 (Rcu.completed env.rcu);
  Rcu.read_unlock env.rcu c3;
  Sim.Engine.run ~until:Sim.(Clock.ms 40) env.eng;
  Alcotest.(check bool) "gp completes after reader exits" true
    (Rcu.completed env.rcu >= 1)

let test_call_rcu_invoked_after_gp () =
  let env = make_env ~cpus:2 () in
  let invoked_at = ref (-1) and got = ref (-1, -1) in
  Rcu.call_rcu env.rcu (cpu env 1)
    (fun (c : Sim.Machine.cpu) arg ->
      invoked_at := Sim.Engine.now env.eng;
      got := (c.id, arg))
    42;
  Sim.Engine.run ~until:Sim.(Clock.ms 50) env.eng;
  Alcotest.(check bool) "callback ran" true (!invoked_at > 0);
  Alcotest.(check (pair int int)) "on the enqueuing CPU, with its payload"
    (1, 42) !got;
  (* It must have run strictly after at least one full tick round. *)
  Alcotest.(check bool) "not before a grace period" true
    (!invoked_at >= Sim.Machine.tick_ns env.machine)

let test_callback_not_invoked_during_reader () =
  let env = make_env ~cpus:2 () in
  let invoked = ref false in
  let c1 = cpu env 1 in
  Rcu.read_lock env.rcu c1;
  Rcu.call_rcu env.rcu (cpu0 env) (fun _ _ -> invoked := true) 0;
  Sim.Engine.run ~until:Sim.(Clock.ms 30) env.eng;
  Alcotest.(check bool) "held back by reader" false !invoked;
  Rcu.read_unlock env.rcu c1;
  Sim.Engine.run ~until:Sim.(Clock.ms 60) env.eng;
  Alcotest.(check bool) "released after reader" true !invoked

let test_synchronize_blocks_a_full_gp () =
  let env = make_env ~cpus:4 () in
  let before = ref (-1) and after = ref (-1) in
  let finished =
    run_process env (fun () ->
        before := Rcu.completed env.rcu;
        Rcu.synchronize env.rcu;
        after := Rcu.completed env.rcu)
  in
  check_completed "synchronize" finished;
  Alcotest.(check bool) "at least one gp elapsed" true (!after > !before)

let test_throttling_limits_batch () =
  let config = { Rcu.default_config with blimit = 10; qhimark = 1_000_000; softirq_period_ns = 200_000 } in
  let env = make_env ~cpus:1 ~rcu_config:config () in
  let invoked = ref 0 in
  for _ = 1 to 100 do
    Rcu.call_rcu env.rcu (cpu0 env) (fun _ _ -> incr invoked) 0
  done;
  (* After the GP completes, callbacks drip out blimit per softirq pass
     (200us apart), so draining 100 takes ~10 passes. *)
  Sim.Engine.run ~until:Sim.(Clock.ms 3) env.eng;
  Alcotest.(check bool)
    (Printf.sprintf "partial drain (%d)" !invoked)
    true
    (!invoked > 0 && !invoked < 100);
  Sim.Engine.run ~until:Sim.(Clock.ms 50) env.eng;
  Alcotest.(check int) "eventually all invoked" 100 !invoked

let test_expedited_drains_faster () =
  let run expedite =
    let config =
      { Rcu.default_config with blimit = 10; expedited_blimit = 100;
        softirq_period_ns = 200_000 }
    in
    let env = make_env ~cpus:1 ~rcu_config:config () in
    Rcu.set_expedited env.rcu expedite;
    let invoked = ref 0 in
    for _ = 1 to 400 do
      Rcu.call_rcu env.rcu (cpu0 env) (fun _ _ -> incr invoked) 0
    done;
    Sim.Engine.run ~until:Sim.(Clock.ms 4) env.eng;
    !invoked
  in
  let normal = run false and fast = run true in
  Alcotest.(check bool)
    (Printf.sprintf "expedited (%d) > normal (%d)" fast normal)
    true (fast > normal)

let test_qhimark_auto_expedites () =
  let config =
    { Rcu.default_config with blimit = 1; expedited_blimit = 1_000; qhimark = 50;
      softirq_period_ns = 200_000 }
  in
  let env = make_env ~cpus:1 ~rcu_config:config () in
  let invoked = ref 0 in
  for _ = 1 to 500 do
    Rcu.call_rcu env.rcu (cpu0 env) (fun _ _ -> incr invoked) 0
  done;
  (* At blimit=1 this would need 500 passes x 200us = 100ms; the qhimark
     backlog trigger must finish far sooner. *)
  Sim.Engine.run ~until:Sim.(Clock.ms 10) env.eng;
  Alcotest.(check int) "backlog expedited" 500 !invoked

let test_snapshot_poll_semantics () =
  let env = make_env ~cpus:2 () in
  let cookie = Rcu.snapshot env.rcu in
  Alcotest.(check bool) "not completed yet" false (Rcu.poll env.rcu cookie);
  Rcu.request_gp env.rcu;
  Sim.Engine.run ~until:Sim.(Clock.ms 30) env.eng;
  Alcotest.(check bool) "completed after gp" true (Rcu.poll env.rcu cookie)

let test_snapshot_during_gp_is_conservative () =
  let env = make_env ~cpus:2 () in
  (* Start a GP, then snapshot mid-GP: the cookie must require a GP that
     starts after the snapshot. *)
  Rcu.request_gp env.rcu;
  let mid_cookie = Rcu.snapshot env.rcu in
  Alcotest.(check int) "needs the gp after the current one" 2 mid_cookie;
  Sim.Engine.run ~until:Sim.(Clock.ms 1) env.eng;
  ignore env

let test_gp_hook_and_stats () =
  let env = make_env ~cpus:2 () in
  let hook_calls = ref [] in
  Rcu.on_gp_complete env.rcu (fun c -> hook_calls := c :: !hook_calls);
  Rcu.call_rcu env.rcu (cpu0 env) (fun _ _ -> ()) 0;
  Sim.Engine.run ~until:Sim.(Clock.ms 30) env.eng;
  Alcotest.(check bool) "hook fired" true (List.length !hook_calls >= 1);
  let s = Rcu.stats env.rcu in
  Alcotest.(check bool) "gps counted" true (s.Rcu.gps_completed >= 1);
  Alcotest.(check int) "queued" 1 s.Rcu.cbs_queued;
  Alcotest.(check int) "invoked" 1 s.Rcu.cbs_invoked;
  Alcotest.(check int) "pending zero" 0 (Rcu.pending_callbacks env.rcu)

let test_barrier_drain () =
  let config = { Rcu.default_config with softirq_period_ns = 200_000 } in
  let env = make_env ~cpus:2 ~rcu_config:config () in
  let invoked = ref 0 in
  for _ = 1 to 300 do
    Rcu.call_rcu env.rcu (cpu0 env) (fun _ _ -> incr invoked) 0
  done;
  (* The first callback rides GP 1; the rest (enqueued while GP 1 was in
     flight) conservatively wait for GP 2. Run until both completed but
     before the 200us-throttled softirq passes could invoke all 30, then
     drain. *)
  Sim.Engine.run ~until:Sim.(Clock.ms 3) env.eng;
  Alcotest.(check bool) "both gps done" true (Rcu.completed env.rcu >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "throttle still holding some back (%d)" !invoked)
    true
    (!invoked < 300);
  Rcu.barrier_drain env.rcu;
  Alcotest.(check int) "drained everything ripe" 300 !invoked

let test_callbacks_fifo_per_cpu () =
  let env = make_env ~cpus:1 () in
  let log = ref [] in
  for i = 1 to 5 do
    Rcu.call_rcu env.rcu (cpu0 env) (fun _ i -> log := i :: !log) i
  done;
  Sim.Engine.run ~until:Sim.(Clock.ms 20) env.eng;
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_grace_periods_keep_running_while_demand () =
  let env = make_env ~cpus:2 () in
  (* Callbacks enqueued from inside callbacks: each needs a later GP. *)
  let depth = ref 0 in
  let rec requeue _ _ =
    incr depth;
    if !depth < 5 then Rcu.call_rcu env.rcu (cpu0 env) requeue 0
  in
  Rcu.call_rcu env.rcu (cpu0 env) requeue 0;
  Sim.Engine.run ~until:Sim.(Clock.ms 100) env.eng;
  Alcotest.(check int) "chain of grace periods" 5 !depth;
  Alcotest.(check bool) "several gps" true (Rcu.completed env.rcu >= 5)

let suite =
  [
    Alcotest.test_case "gp waits for every cpu" `Quick test_gp_requires_all_cpus;
    Alcotest.test_case "call_rcu after gp" `Quick test_call_rcu_invoked_after_gp;
    Alcotest.test_case "reader blocks callback" `Quick
      test_callback_not_invoked_during_reader;
    Alcotest.test_case "synchronize blocks a full gp" `Quick
      test_synchronize_blocks_a_full_gp;
    Alcotest.test_case "throttling limits batch" `Quick
      test_throttling_limits_batch;
    Alcotest.test_case "expedited drains faster" `Quick
      test_expedited_drains_faster;
    Alcotest.test_case "qhimark auto-expedites" `Quick
      test_qhimark_auto_expedites;
    Alcotest.test_case "snapshot/poll" `Quick test_snapshot_poll_semantics;
    Alcotest.test_case "snapshot mid-gp conservative" `Quick
      test_snapshot_during_gp_is_conservative;
    Alcotest.test_case "gp hooks and stats" `Quick test_gp_hook_and_stats;
    Alcotest.test_case "barrier drain" `Quick test_barrier_drain;
    Alcotest.test_case "callbacks fifo per cpu" `Quick
      test_callbacks_fifo_per_cpu;
    Alcotest.test_case "gp chain under demand" `Quick
      test_grace_periods_keep_running_while_demand;
  ]
