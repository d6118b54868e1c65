let test_schedule_order () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  Sim.Engine.schedule eng ~after:30 (note "c");
  Sim.Engine.schedule eng ~after:10 (note "a");
  Sim.Engine.schedule eng ~after:20 (note "b");
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let test_fifo_same_time () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.Engine.schedule eng ~after:100 (fun () -> log := i :: !log)
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "FIFO at same instant" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_now_advances () =
  let eng = Sim.Engine.create () in
  let seen = ref (-1) in
  Sim.Engine.schedule eng ~after:500 (fun () -> seen := Sim.Engine.now eng);
  Sim.Engine.run eng;
  Alcotest.(check int) "now at event time" 500 !seen;
  Alcotest.(check int) "now after run" 500 (Sim.Engine.now eng)

let test_until_horizon () =
  let eng = Sim.Engine.create () in
  let ran = ref false in
  Sim.Engine.schedule eng ~after:1_000 (fun () -> ran := true);
  Sim.Engine.run ~until:999 eng;
  Alcotest.(check bool) "event beyond horizon not run" false !ran;
  Alcotest.(check int) "clock advanced to horizon" 999 (Sim.Engine.now eng);
  Sim.Engine.run ~until:1_001 eng;
  Alcotest.(check bool) "event runs later" true !ran

let test_stop () =
  let eng = Sim.Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Sim.Engine.schedule eng ~after:10 (fun () ->
        incr count;
        if !count = 3 then Sim.Engine.stop eng)
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "stopped after third event" 3 !count;
  Alcotest.(check bool) "stopped flag" true (Sim.Engine.stopped eng)

let test_nested_scheduling () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule eng ~after:10 (fun () ->
      log := "outer" :: !log;
      Sim.Engine.schedule eng ~after:5 (fun () -> log := "inner" :: !log));
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check int) "final time" 15 (Sim.Engine.now eng)

let test_negative_delay_rejected () =
  let eng = Sim.Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Sim.Engine.schedule eng ~after:(-1) ignore)

let test_schedule_at_past_rejected () =
  let eng = Sim.Engine.create () in
  Sim.Engine.schedule eng ~after:100 ignore;
  Sim.Engine.run eng;
  (try
     Sim.Engine.schedule_at eng ~time:50 ignore;
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_every_periodic () =
  let eng = Sim.Engine.create () in
  let times = ref [] in
  Sim.Engine.every eng ~period:100 (fun () ->
      times := Sim.Engine.now eng :: !times;
      List.length !times < 4);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "periodic firings" [ 100; 200; 300; 400 ]
    (List.rev !times)

let test_every_phase () =
  let eng = Sim.Engine.create () in
  let times = ref [] in
  Sim.Engine.every eng ~period:100 ~phase:7 (fun () ->
      times := Sim.Engine.now eng :: !times;
      List.length !times < 3);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "phased firings" [ 7; 107; 207 ] (List.rev !times)

let test_executed_counter () =
  let eng = Sim.Engine.create () in
  for _ = 1 to 7 do
    Sim.Engine.schedule eng ~after:1 ignore
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "executed" 7 (Sim.Engine.executed eng)

(* [pending] counts every queued event, including the rest of the
   running instant. The first handler adds a same-instant child, which
   runs before the next instant. *)
let test_pending_counts_batch () =
  let eng = Sim.Engine.create () in
  let seen = ref [] in
  let probe () = seen := Sim.Engine.pending eng :: !seen in
  Sim.Engine.schedule eng ~after:10 (fun () ->
      probe ();
      Sim.Engine.schedule eng ~after:0 probe;
      probe ());
  Sim.Engine.schedule eng ~after:10 probe;
  Sim.Engine.schedule eng ~after:20 probe;
  Alcotest.(check int) "three pending" 3 (Sim.Engine.pending eng);
  Sim.Engine.run eng;
  Alcotest.(check (list int))
    "the running instant counted in pending" [ 2; 3; 2; 1; 0 ]
    (List.rev !seen);
  Alcotest.(check int) "drained" 0 (Sim.Engine.pending eng)

(* A same-instant batch runs one event at a time, then the engine
   moves on to the next instant; [run ~until] stops between the two. *)
let test_step_through_batch () =
  let eng = Sim.Engine.create () in
  let ran = ref 0 in
  let trace = ref [] in
  let event () =
    incr ran;
    trace := (!ran, Sim.Engine.now eng, Sim.Engine.pending eng) :: !trace
  in
  for _ = 1 to 3 do
    Sim.Engine.schedule eng ~after:10 event
  done;
  Sim.Engine.schedule eng ~after:20 event;
  Sim.Engine.run ~until:10 eng;
  Alcotest.(check (pair int int)) "(ran, pending) at the first instant"
    (3, 1)
    (!ran, Sim.Engine.pending eng);
  Sim.Engine.run eng;
  Alcotest.(check (list (triple int int int)))
    "(ran, now, pending) after each event"
    [ (1, 10, 3); (2, 10, 2); (3, 10, 1); (4, 20, 0) ]
    (List.rev !trace);
  Alcotest.(check int) "executed" 4 (Sim.Engine.executed eng)

(* Record the order in which [n] same-instant events fire under a
   tie-break policy. *)
let same_time_order ?tiebreak n =
  let eng = Sim.Engine.create ?tiebreak () in
  let order = ref [] in
  for i = 0 to n - 1 do
    Sim.Engine.schedule eng ~after:5 (fun () -> order := i :: !order)
  done;
  Sim.Engine.run eng;
  List.rev !order

let test_shuffle_tiebreak () =
  let fifo = same_time_order 12 in
  Alcotest.(check (list int)) "fifo = submission order"
    (List.init 12 Fun.id) fifo;
  (* Shuffling is deterministic in the seed... *)
  let s1 = same_time_order ~tiebreak:(Sim.Engine.Shuffle 1) 12 in
  let s1' = same_time_order ~tiebreak:(Sim.Engine.Shuffle 1) 12 in
  Alcotest.(check (list int)) "same seed, same order" s1 s1';
  (* ...still a permutation... *)
  Alcotest.(check (list int)) "a permutation"
    (List.init 12 Fun.id)
    (List.sort compare s1);
  (* ...and some seed actually perturbs the order. *)
  let perturbed = ref false in
  for seed = 1 to 10 do
    if same_time_order ~tiebreak:(Sim.Engine.Shuffle seed) 12 <> fifo then
      perturbed := true
  done;
  Alcotest.(check bool) "some seed perturbs same-instant order" true
    !perturbed

let test_tie_key () =
  let key tb seq = Sim.Engine.tie_key tb ~time:100 ~seq in
  let seqs = List.init 64 Fun.id in
  Alcotest.(check bool) "fifo: 0, seq decides" true
    (List.for_all (fun s -> key Sim.Engine.Fifo s = 0) seqs);
  let keys seed = List.map (key (Sim.Engine.Shuffle seed)) seqs in
  Alcotest.(check bool) "shuffle: non-negative" true
    (List.for_all (fun k -> k >= 0) (keys 1));
  Alcotest.(check (list int)) "shuffle: deterministic" (keys 1) (keys 1);
  Alcotest.(check bool) "shuffle: seed-dependent" true (keys 1 <> keys 2)

let test_shuffle_preserves_time_order () =
  let eng = Sim.Engine.create ~tiebreak:(Sim.Engine.Shuffle 3) () in
  let times = ref [] in
  for i = 0 to 19 do
    Sim.Engine.schedule eng ~after:(100 - (5 * (i mod 4))) (fun () ->
        times := Sim.Engine.now eng :: !times)
  done;
  Sim.Engine.run eng;
  let times = List.rev !times in
  Alcotest.(check bool) "virtual time still monotone" true
    (List.sort compare times = times)

(* The daemon flag is kept per pool slot, and a dispatched event's slot
   goes to the next event scheduled, here from its own handler: the
   daemon at 5 passes its slot to the live event at 15, which passes it
   to the daemon at 20. Each must count as what it is, or the run
   stops at 20 with the live event at 30 pending, or ticks on to the
   horizon. *)
let test_daemon_flag_on_reused_slot () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Sim.Engine.now eng) :: !log in
  Sim.Engine.every eng ~period:7 (fun () -> true);
  Sim.Engine.schedule ~daemon:true eng ~after:5 (fun () ->
      note "daemon" ();
      Sim.Engine.schedule eng ~after:10 (fun () ->
          note "live" ();
          Sim.Engine.schedule ~daemon:true eng ~after:5 (note "daemon2")));
  Sim.Engine.schedule eng ~after:30 (note "last");
  Sim.Engine.run_until_quiet ~horizon:10_000 eng;
  Alcotest.(check (list (pair string int)))
    "every event ran"
    [ ("daemon", 5); ("live", 15); ("daemon2", 20); ("last", 30) ]
    (List.rev !log);
  Alcotest.(check int) "quiet after the last live event" 30
    (Sim.Engine.now eng)

(* A run nested in a handler stops at its own horizon and leaves the
   later events queued for the outer run. *)
let test_nested_run () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Sim.Engine.now eng) :: !log in
  Sim.Engine.schedule eng ~after:10 (fun () ->
      note "outer" ();
      Sim.Engine.run ~until:25 eng;
      note "back" ());
  Sim.Engine.schedule eng ~after:30 (note "later");
  Sim.Engine.schedule eng ~after:20 (note "inner");
  Sim.Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "inner run stops at its horizon"
    [ ("outer", 10); ("inner", 20); ("back", 25); ("later", 30) ]
    (List.rev !log)

let suite =
  [
    Alcotest.test_case "events run in time order" `Quick test_schedule_order;
    Alcotest.test_case "FIFO at equal times" `Quick test_fifo_same_time;
    Alcotest.test_case "clock advances" `Quick test_now_advances;
    Alcotest.test_case "run ~until horizon" `Quick test_until_horizon;
    Alcotest.test_case "stop" `Quick test_stop;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "negative delay rejected" `Quick
      test_negative_delay_rejected;
    Alcotest.test_case "schedule_at past rejected" `Quick
      test_schedule_at_past_rejected;
    Alcotest.test_case "every: periodic" `Quick test_every_periodic;
    Alcotest.test_case "every: phase" `Quick test_every_phase;
    Alcotest.test_case "executed counter" `Quick test_executed_counter;
    Alcotest.test_case "pending counts the batch" `Quick
      test_pending_counts_batch;
    Alcotest.test_case "step through a batch" `Quick test_step_through_batch;
    Alcotest.test_case "shuffle tie-break" `Quick test_shuffle_tiebreak;
    Alcotest.test_case "tie_key" `Quick test_tie_key;
    Alcotest.test_case "shuffle keeps time order" `Quick
      test_shuffle_preserves_time_order;
    Alcotest.test_case "daemon flag follows the event, not the slot" `Quick
      test_daemon_flag_on_reused_slot;
    Alcotest.test_case "nested run stops at its own horizon" `Quick
      test_nested_run;
  ]
