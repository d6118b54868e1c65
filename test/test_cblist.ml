let test_enqueue_advance_take () =
  let cbl = Rcu.Cblist.create () in
  let log = ref [] in
  (* One callback for every entry: the payload tells them apart, and the
     drainer's context reaches each. *)
  let cb ctx arg = log := Printf.sprintf "%s%d" ctx arg :: !log in
  Rcu.Cblist.enqueue cbl ~cookie:1 cb 1;
  Rcu.Cblist.enqueue cbl ~cookie:1 cb 2;
  Rcu.Cblist.enqueue cbl ~cookie:2 cb 3;
  Alcotest.(check int) "waiting" 3 (Rcu.Cblist.waiting cbl);
  Alcotest.(check int) "none ready" 0 (Rcu.Cblist.ready cbl);
  Alcotest.(check int) "advance to 1 moves 2" 2
    (Rcu.Cblist.advance cbl ~completed:1);
  Alcotest.(check int) "ready" 2 (Rcu.Cblist.ready cbl);
  Alcotest.(check int) "still waiting" 1 (Rcu.Cblist.waiting cbl);
  ignore (Rcu.Cblist.drain cbl ~max:10 "cpu");
  Alcotest.(check (list string)) "fifo invocation, with payloads"
    [ "cpu1"; "cpu2" ] (List.rev !log)

let test_throttled_take () =
  let cbl = Rcu.Cblist.create () in
  for i = 1 to 25 do
    Rcu.Cblist.enqueue cbl ~cookie:1 (fun () _ -> ignore i) 0
  done;
  ignore (Rcu.Cblist.advance cbl ~completed:1);
  Alcotest.(check int) "first batch" 10
    (Rcu.Cblist.drain cbl ~max:10 ());
  Alcotest.(check int) "remaining ready" 15 (Rcu.Cblist.ready cbl);
  Alcotest.(check int) "second batch" 10 (Rcu.Cblist.drain cbl ~max:10 ());
  Alcotest.(check int) "tail batch" 5 (Rcu.Cblist.drain cbl ~max:10 ());
  Alcotest.(check int) "drained" 0 (Rcu.Cblist.total cbl)

let test_advance_partial () =
  let cbl = Rcu.Cblist.create () in
  let noop () _ = () in
  Rcu.Cblist.enqueue cbl ~cookie:5 noop 0;
  Rcu.Cblist.enqueue cbl ~cookie:7 noop 0;
  Alcotest.(check int) "nothing ripe at 4" 0 (Rcu.Cblist.advance cbl ~completed:4);
  Alcotest.(check (option int)) "next cookie" (Some 5) (Rcu.Cblist.next_cookie cbl);
  Alcotest.(check int) "one ripe at 5" 1 (Rcu.Cblist.advance cbl ~completed:5);
  Alcotest.(check (option int)) "next cookie now 7" (Some 7)
    (Rcu.Cblist.next_cookie cbl);
  Alcotest.(check int) "rest at 9" 1 (Rcu.Cblist.advance cbl ~completed:9);
  Alcotest.(check (option int)) "no waiters" None (Rcu.Cblist.next_cookie cbl)

let test_empty () =
  let cbl = Rcu.Cblist.create () in
  Alcotest.(check int) "total" 0 (Rcu.Cblist.total cbl);
  Alcotest.(check int) "advance noop" 0 (Rcu.Cblist.advance cbl ~completed:100);
  Alcotest.(check int) "take noop" 0 (Rcu.Cblist.drain cbl ~max:5 ())

let suite =
  [
    Alcotest.test_case "enqueue/advance/take" `Quick test_enqueue_advance_take;
    Alcotest.test_case "throttled take" `Quick test_throttled_take;
    Alcotest.test_case "partial advance by cookie" `Quick test_advance_partial;
    Alcotest.test_case "empty list" `Quick test_empty;
  ]
