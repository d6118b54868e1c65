let test_uncontended () =
  let l = Sim.Simlock.create ~name:"t" (Trace.Tap.create ()) in
  let d = Sim.Simlock.acquire l ~cpu:0 ~now:1000 ~hold:50 in
  Alcotest.(check int) "uncontended delay = hold" 50 d;
  Alcotest.(check int) "acquisitions" 1 (Sim.Simlock.acquisitions l);
  Alcotest.(check int) "no contention" 0 (Sim.Simlock.contended l);
  Alcotest.(check int) "no wait" 0 (Sim.Simlock.total_wait_ns l)

let test_contended_serializes () =
  let l = Sim.Simlock.create ~name:"t" (Trace.Tap.create ()) in
  (* Two CPUs hit the lock at the same virtual instant. *)
  let d1 = Sim.Simlock.acquire l ~cpu:0 ~now:0 ~hold:100 in
  let d2 = Sim.Simlock.acquire l ~cpu:0 ~now:0 ~hold:100 in
  let d3 = Sim.Simlock.acquire l ~cpu:0 ~now:0 ~hold:100 in
  Alcotest.(check int) "first goes through" 100 d1;
  Alcotest.(check int) "second queues" 200 d2;
  Alcotest.(check int) "third queues more" 300 d3;
  Alcotest.(check int) "contended count" 2 (Sim.Simlock.contended l);
  Alcotest.(check int) "total wait" 300 (Sim.Simlock.total_wait_ns l)

let test_free_after_release () =
  let l = Sim.Simlock.create ~name:"t" (Trace.Tap.create ()) in
  ignore (Sim.Simlock.acquire l ~cpu:0 ~now:0 ~hold:100);
  let d = Sim.Simlock.acquire l ~cpu:0 ~now:100 ~hold:10 in
  Alcotest.(check int) "arriving at release time: no wait" 10 d;
  let d2 = Sim.Simlock.acquire l ~cpu:0 ~now:1_000 ~hold:10 in
  Alcotest.(check int) "later arrival free" 10 d2

let test_negative_hold_rejected () =
  let l = Sim.Simlock.create ~name:"t" (Trace.Tap.create ()) in
  Alcotest.check_raises "negative hold"
    (Invalid_argument "Simlock.acquire: negative hold") (fun () ->
      ignore (Sim.Simlock.acquire l ~cpu:0 ~now:0 ~hold:(-5)))

let test_emits_on_tap () =
  let tap = Trace.Tap.create () in
  let seen = ref [] in
  Trace.Tap.subscribe tap (fun kind ~cpu ~label a _ ->
      seen := (Trace.Event.kind_name kind, cpu, label, a) :: !seen);
  let l = Sim.Simlock.create ~name:"node0" tap in
  ignore (Sim.Simlock.acquire l ~cpu:1 ~now:0 ~hold:100);
  ignore (Sim.Simlock.acquire l ~cpu:2 ~now:40 ~hold:10);
  Alcotest.(check (list (pair string (pair int (pair string int)))))
    "acquire each time, contended with its wait"
    [
      ("lock-acquire", (1, ("node0", 0)));
      ("lock-acquire", (2, ("node0", 0)));
      ("lock-contended", (2, ("node0", 60)));
    ]
    (List.rev_map (fun (k, c, l, a) -> (k, (c, (l, a)))) !seen)

let prop_waits_are_work_conserving =
  QCheck.Test.make ~name:"lock is work-conserving and FIFO by arrival"
    ~count:100
    QCheck.(list (pair (int_bound 1000) (int_bound 50)))
    (fun arrivals ->
      (* Arrivals sorted by time (simulation delivers them in order). *)
      let arrivals = List.sort compare arrivals in
      let l = Sim.Simlock.create ~name:"p" (Trace.Tap.create ()) in
      let busy_until = ref 0 in
      List.for_all
        (fun (now, hold) ->
          let d = Sim.Simlock.acquire l ~cpu:0 ~now ~hold in
          let start = max now !busy_until in
          let expect = start + hold - now in
          busy_until := start + hold;
          d = expect)
        arrivals)

let suite =
  [
    Alcotest.test_case "uncontended" `Quick test_uncontended;
    Alcotest.test_case "contended serializes" `Quick test_contended_serializes;
    Alcotest.test_case "free after release" `Quick test_free_after_release;
    Alcotest.test_case "negative hold rejected" `Quick
      test_negative_hold_rejected;
    Alcotest.test_case "acquisitions emit lock events on the tap" `Quick
      test_emits_on_tap;
    QCheck_alcotest.to_alcotest prop_waits_are_work_conserving;
  ]
