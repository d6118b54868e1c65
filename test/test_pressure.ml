let make () =
  let b = Mem.Buddy.create ~total_pages:100 () in
  let p = Mem.Pressure.create b in
  (b, p)

let test_levels () =
  let b, p = make () in
  Alcotest.(check bool) "normal initially" true (Mem.Pressure.level p = Mem.Pressure.Normal);
  (* Use 76 pages -> 24 free <= 25 low watermark *)
  let blocks = List.init 76 (fun _ -> Mem.Buddy.alloc_exn b ~order:0) in
  Alcotest.(check bool) "low" true (Mem.Pressure.level p = Mem.Pressure.Low);
  let more = List.init 15 (fun _ -> Mem.Buddy.alloc_exn b ~order:0) in
  Alcotest.(check bool) "critical" true
    (Mem.Pressure.level p = Mem.Pressure.Critical);
  List.iter (Mem.Buddy.free b) (blocks @ more);
  Alcotest.(check bool) "normal again" true
    (Mem.Pressure.level p = Mem.Pressure.Normal)

let test_notifier_on_transition () =
  let b, p = make () in
  let log = ref [] in
  Mem.Pressure.on_level_change p (fun l -> log := l :: !log);
  let blocks = List.init 80 (fun _ -> Mem.Buddy.alloc_exn b ~order:0) in
  Mem.Pressure.poll p;
  Mem.Pressure.poll p;
  (* second poll: no change, no duplicate notification *)
  Alcotest.(check int) "one transition" 1 (List.length !log);
  List.iter (Mem.Buddy.free b) blocks;
  Mem.Pressure.poll p;
  Alcotest.(check int) "back transition" 2 (List.length !log);
  Alcotest.(check bool) "last is normal" true
    (List.hd !log = Mem.Pressure.Normal)

let test_transitions_bidirectional () =
  (* Walk the full ladder up and back down, polling at each boundary:
     every crossing must notify exactly once, in order. *)
  let b, p = make () in
  let log = ref [] in
  Mem.Pressure.on_level_change p (fun l -> log := l :: !log);
  let take n = List.init n (fun _ -> Mem.Buddy.alloc_exn b ~order:0) in
  let up_low = take 76 in
  (* 24 free <= 25 *)
  Mem.Pressure.poll p;
  let up_crit = take 15 in
  (* 9 free <= 10 *)
  Mem.Pressure.poll p;
  List.iter (Mem.Buddy.free b) up_crit;
  Mem.Pressure.poll p;
  List.iter (Mem.Buddy.free b) up_low;
  Mem.Pressure.poll p;
  Mem.Pressure.poll p;
  (* no change: no extra notification *)
  Alcotest.(check (list string)) "both directions, one event per crossing"
    [ "low"; "critical"; "low"; "normal" ]
    (List.rev_map (Format.asprintf "%a" Mem.Pressure.pp_level) !log)

let test_oom_chain () =
  let _b, p = make () in
  let calls = ref [] in
  Mem.Pressure.on_oom p (fun () ->
      calls := 1 :: !calls;
      false);
  Mem.Pressure.on_oom p (fun () ->
      calls := 2 :: !calls;
      true);
  Alcotest.(check bool) "retry requested" true
    (Mem.Pressure.handle_alloc_failure p);
  Alcotest.(check (list int)) "handlers in order" [ 1; 2 ] (List.rev !calls)

let test_oom_chain_runs_all_handlers () =
  (* An early success must not short-circuit later handlers: direct
     reclaim gives every registered reclaimer a chance to make progress. *)
  let _b, p = make () in
  let calls = ref [] in
  Mem.Pressure.on_oom p (fun () ->
      calls := 1 :: !calls;
      true);
  Mem.Pressure.on_oom p (fun () ->
      calls := 2 :: !calls;
      false);
  Mem.Pressure.on_oom p (fun () ->
      calls := 3 :: !calls;
      true);
  Alcotest.(check bool) "retry requested" true
    (Mem.Pressure.handle_alloc_failure p);
  Alcotest.(check (list int)) "all handlers ran, in order" [ 1; 2; 3 ]
    (List.rev !calls)

let test_oom_chain_all_fail () =
  let _b, p = make () in
  Mem.Pressure.on_oom p (fun () -> false);
  Alcotest.(check bool) "no retry" false (Mem.Pressure.handle_alloc_failure p)

let test_declare_oom_first_wins () =
  let _b, p = make () in
  Alcotest.(check bool) "no oom yet" false (Mem.Pressure.oom_hit p);
  Mem.Pressure.declare_oom p ~now:123;
  Mem.Pressure.declare_oom p ~now:456;
  Alcotest.(check (option int)) "first wins" (Some 123) (Mem.Pressure.oom_time p);
  Alcotest.(check bool) "oom hit" true (Mem.Pressure.oom_hit p)

let suite =
  [
    Alcotest.test_case "watermark levels" `Quick test_levels;
    Alcotest.test_case "notifier on transition only" `Quick
      test_notifier_on_transition;
    Alcotest.test_case "transitions both directions" `Quick
      test_transitions_bidirectional;
    Alcotest.test_case "oom handler chain" `Quick test_oom_chain;
    Alcotest.test_case "oom chain runs all handlers" `Quick
      test_oom_chain_runs_all_handlers;
    Alcotest.test_case "oom chain all fail" `Quick test_oom_chain_all_fail;
    Alcotest.test_case "declare_oom first wins" `Quick
      test_declare_oom_first_wins;
  ]
