open Test_util

(* Fault-injection layer: each Plan spec must perturb exactly the layer it
   targets, deterministically, and the detectors must see it. *)

let install env plan =
  Faults.Injector.install ~pressure:env.pressure plan ~machine:env.machine
    ~buddy:env.buddy ~rcu:env.rcu

let test_cpu_stall_suppresses_ticks () =
  let env = make_env ~cpus:2 () in
  let plan =
    Faults.Plan.make ~seed:1
      [
        Faults.Plan.Cpu_stall
          { cpu = 1; at_ns = Sim.Clock.ms 2; duration_ns = Sim.Clock.ms 10 };
      ]
  in
  let inj = install env plan in
  Sim.Engine.run ~until:Sim.(Clock.ms 30) env.eng;
  let c1 = cpu env 1 in
  Alcotest.(check bool) "ticks were suppressed" true
    (c1.Sim.Machine.suppressed_ticks > 0);
  Alcotest.(check bool) "stall cleared after window" false
    c1.Sim.Machine.stalled;
  let s = Faults.Injector.stats inj in
  Alcotest.(check int) "one stall window" 1 s.Faults.Injector.stall_windows

let test_cpu_stall_pins_gp () =
  let config =
    { Rcu.default_config with stall_timeout_ns = Some (Sim.Clock.ms 3) }
  in
  let env = make_env ~cpus:2 ~rcu_config:config () in
  let plan =
    Faults.Plan.make ~seed:1
      [
        Faults.Plan.Cpu_stall
          { cpu = 1; at_ns = Sim.Clock.ms 1; duration_ns = Sim.Clock.ms 20 };
      ]
  in
  ignore (install env plan);
  Sim.Engine.schedule_at ~daemon:true env.eng ~time:(Sim.Clock.ms 2)
    (fun () -> Rcu.request_gp env.rcu);
  Sim.Engine.run ~until:Sim.(Clock.ms 15) env.eng;
  Alcotest.(check int) "gp pinned by the stalled cpu" 0
    (Rcu.completed env.rcu);
  let warnings = Rcu.stall_warnings env.rcu in
  Alcotest.(check bool) "stall warning emitted" true (warnings <> []);
  List.iter
    (fun (w : Rcu.stall_warning) ->
      Alcotest.(check (list int)) "holdout names the stalled cpu" [ 1 ]
        w.Rcu.holdouts)
    warnings;
  Sim.Engine.run ~until:Sim.(Clock.ms 40) env.eng;
  Alcotest.(check bool) "gp completes once the stall ends" true
    (Rcu.completed env.rcu >= 1)

let test_stalled_reader_holdout_named () =
  let config =
    { Rcu.default_config with stall_timeout_ns = Some (Sim.Clock.ms 2) }
  in
  let env = make_env ~cpus:4 ~rcu_config:config () in
  let plan =
    Faults.Plan.make ~seed:1
      [
        Faults.Plan.Stalled_reader
          {
            cpu = 2;
            at_ns = Sim.Clock.ms 1;
            hold_ns = Some (Sim.Clock.ms 10);
          };
      ]
  in
  let inj = install env plan in
  Sim.Engine.schedule_at ~daemon:true env.eng ~time:(Sim.Clock.ms 2)
    (fun () -> Rcu.request_gp env.rcu);
  Sim.Engine.run ~until:Sim.(Clock.ms 30) env.eng;
  let s = Rcu.stats env.rcu in
  Alcotest.(check bool) "warnings recorded" true (s.Rcu.stall_warnings >= 1);
  let holdouts =
    List.concat_map
      (fun (w : Rcu.stall_warning) -> w.Rcu.holdouts)
      (Rcu.stall_warnings env.rcu)
  in
  Alcotest.(check bool) "cpu 2 named as holdout" true (List.mem 2 holdouts);
  Alcotest.(check bool) "other cpus not blamed" false (List.mem 0 holdouts);
  Alcotest.(check int) "one reader stalled" 1
    (Faults.Injector.stats inj).Faults.Injector.readers_stalled;
  Alcotest.(check bool) "gp completes after release" true
    (Rcu.completed env.rcu >= 1)

let test_no_warnings_without_faults () =
  let config =
    { Rcu.default_config with stall_timeout_ns = Some (Sim.Clock.ms 5) }
  in
  let env = make_env ~cpus:4 ~rcu_config:config () in
  for _ = 1 to 50 do
    Rcu.call_rcu env.rcu (cpu0 env) (fun () -> ())
  done;
  Sim.Engine.run ~until:Sim.(Clock.ms 100) env.eng;
  Alcotest.(check int) "no stall warnings on a healthy run" 0
    (Rcu.stats env.rcu).Rcu.stall_warnings

let test_alloc_fault_window () =
  let env = make_env ~cpus:2 ~total_pages:1024 () in
  let plan =
    Faults.Plan.make ~seed:7
      [
        Faults.Plan.Alloc_fault
          {
            at_ns = Sim.Clock.ms 1;
            duration_ns = Sim.Clock.ms 2;
            fail_prob = 1.0;
          };
      ]
  in
  ignore (install env plan);
  let inside = ref None and after = ref None in
  Sim.Engine.schedule_at ~daemon:true env.eng ~time:(Sim.Clock.ms 2)
    (fun () -> inside := Some (Mem.Buddy.alloc env.buddy ~order:0));
  Sim.Engine.schedule_at ~daemon:true env.eng ~time:(Sim.Clock.ms 5)
    (fun () -> after := Some (Mem.Buddy.alloc env.buddy ~order:0));
  Sim.Engine.run ~until:Sim.(Clock.ms 10) env.eng;
  Alcotest.(check (option int)) "refused inside the window" (Some (-1))
    !inside;
  Alcotest.(check bool) "succeeds after the window" true
    (match !after with Some page -> page >= 0 | None -> false);
  Alcotest.(check int) "refusal counted as injected" 1
    (Mem.Buddy.injected_failures env.buddy);
  Alcotest.(check int) "not counted as genuine exhaustion" 0
    (Mem.Buddy.failed_allocs env.buddy)

let test_pressure_spike_level_roundtrip () =
  let env = make_env ~cpus:2 ~total_pages:256 () in
  let log = ref [] in
  Mem.Pressure.on_level_change env.pressure (fun l -> log := l :: !log);
  let plan =
    Faults.Plan.make ~seed:3
      [
        Faults.Plan.Pressure_spike
          {
            at_ns = Sim.Clock.ms 1;
            duration_ns = Sim.Clock.ms 5;
            pages = 250;
          };
      ]
  in
  let inj = install env plan in
  Sim.Engine.run ~until:Sim.(Clock.ms 20) env.eng;
  Alcotest.(check bool) "reached critical during the spike" true
    (List.mem Mem.Pressure.Critical !log);
  Alcotest.(check bool) "back to normal after release" true
    (List.hd !log = Mem.Pressure.Normal);
  Alcotest.(check int) "all pages released" 0 (Mem.Buddy.used_pages env.buddy);
  let s = Faults.Injector.stats inj in
  Alcotest.(check bool) "seizure recorded" true
    (s.Faults.Injector.peak_pages_seized >= 250)

let test_cb_flood_enqueues () =
  let env = make_env ~cpus:2 () in
  let plan =
    Faults.Plan.make ~seed:5
      [
        Faults.Plan.Cb_flood
          {
            cpu = 0;
            at_ns = Sim.Clock.ms 1;
            duration_ns = Sim.Clock.ms 5;
            per_ms = 10;
          };
      ]
  in
  let inj = install env plan in
  Sim.Engine.run ~until:Sim.(Clock.ms 50) env.eng;
  let s = Faults.Injector.stats inj in
  Alcotest.(check bool) "flood enqueued callbacks" true
    (s.Faults.Injector.flood_cbs >= 50);
  Alcotest.(check bool) "rcu saw them" true
    ((Rcu.stats env.rcu).Rcu.cbs_queued >= s.Faults.Injector.flood_cbs)

let test_injection_deterministic () =
  let run () =
    let env = make_env ~cpus:2 ~total_pages:512 () in
    let plan =
      Faults.Plan.make ~seed:11
        [
          Faults.Plan.Alloc_fault
            {
              at_ns = Sim.Clock.ms 1;
              duration_ns = Sim.Clock.ms 10;
              fail_prob = 0.5;
            };
        ]
    in
    ignore (install env plan);
    let refused = ref 0 in
    for i = 1 to 10 do
      Sim.Engine.schedule_at ~daemon:true env.eng
        ~time:(Sim.Clock.ms 1 + (i * Sim.Clock.us 500))
        (fun () ->
          let page = Mem.Buddy.alloc env.buddy ~order:0 in
          if page < 0 then incr refused
          else Mem.Buddy.free env.buddy ~page ~order:0)
    done;
    Sim.Engine.run ~until:Sim.(Clock.ms 20) env.eng;
    (!refused, Mem.Buddy.injected_failures env.buddy)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same refusals" true (a = b);
  Alcotest.(check bool) "some but not all refused" true
    (fst a > 0 && fst a < 10)

(* A stalled reader (injected) still holds the object when a broken
   allocator (unsafe_skip_gp) recycles it: the safety checker must flag
   the premature reuse. *)
let test_stalled_reader_catches_unsafe_skip_gp () =
  let config = { Prudence.default_config with unsafe_skip_gp = true } in
  let env = make_env ~cpus:2 () in
  let pr = Prudence.create ~config env.fenv env.rcu in
  let cache = Prudence.create_cache pr ~name:"t" ~obj_size:128 in
  let readers = Rcu.Readers.create env.rcu in
  Rcu.Readers.check_allocs readers ~where:"chaos";
  let plan =
    Faults.Plan.make ~seed:1
      [
        Faults.Plan.Stalled_reader
          { cpu = 1; at_ns = Sim.Clock.ms 1; hold_ns = None };
      ]
  in
  ignore (install env plan);
  Sim.Engine.run ~until:Sim.(Clock.ms 2) env.eng;
  let c0 = cpu0 env and c1 = cpu env 1 in
  Alcotest.(check bool) "reader section open on cpu 1" true
    (c1.Sim.Machine.rcu_nesting > 0);
  let obj = Prudence.alloc pr cache c0 in
  (* Drain the per-cpu object cache so the deferred object is the only
     source for the next allocation. *)
  let pc = Slab.Frame.pcpu_for cache c0 in
  let rec drain () =
    match Slab.Frame.pop_ocache pc with
    | Some o ->
        Slab.Frame.hand_to_user cache c0 o;
        drain ()
    | None -> ()
  in
  drain ();
  (* The stalled reader still references the object... *)
  Rcu.Readers.hold readers c1 ~oid:obj.Slab.Frame.oid;
  (* ...while the writer defers it and unsafe_skip_gp recycles it without
     waiting for the (pinned) grace period. *)
  Prudence.free_deferred pr cache c0 obj;
  let next = Prudence.alloc pr cache c0 in
  Alcotest.(check int) "object recycled under the reader" obj.Slab.Frame.oid
    next.Slab.Frame.oid;
  Alcotest.(check bool) "premature reuse flagged" true
    (List.length (Rcu.Readers.violations readers) >= 1)

let suite =
  [
    Alcotest.test_case "cpu stall suppresses ticks" `Quick
      test_cpu_stall_suppresses_ticks;
    Alcotest.test_case "cpu stall pins gp + warning" `Quick
      test_cpu_stall_pins_gp;
    Alcotest.test_case "stalled reader named as holdout" `Quick
      test_stalled_reader_holdout_named;
    Alcotest.test_case "no warnings without faults" `Quick
      test_no_warnings_without_faults;
    Alcotest.test_case "alloc fault window" `Quick test_alloc_fault_window;
    Alcotest.test_case "pressure spike level roundtrip" `Quick
      test_pressure_spike_level_roundtrip;
    Alcotest.test_case "cb flood enqueues" `Quick test_cb_flood_enqueues;
    Alcotest.test_case "injection deterministic" `Quick
      test_injection_deterministic;
    Alcotest.test_case "stalled reader catches unsafe_skip_gp" `Quick
      test_stalled_reader_catches_unsafe_skip_gp;
  ]
