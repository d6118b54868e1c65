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
  Alcotest.(check int) "one ripe at 5" 1 (Rcu.Cblist.advance cbl ~completed:5);
  Alcotest.(check int) "rest at 9" 1 (Rcu.Cblist.advance cbl ~completed:9)

(* Drain everything ready and return the invocations, oldest first. *)
let drain_log cbl log =
  log := [];
  ignore (Rcu.Cblist.drain cbl ~max:max_int ());
  List.rev !log

(* Two callbacks alternate within one cookie, so no run of one callback
   is longer than two entries: each switch starts a segment, and the
   drain still follows enqueue order. *)
let test_split_run () =
  let cbl = Rcu.Cblist.create () in
  let log = ref [] in
  let a () arg = log := ("a", arg) :: !log
  and b () arg = log := ("b", arg) :: !log in
  List.iter
    (fun (fn, arg) -> Rcu.Cblist.enqueue cbl ~cookie:3 fn arg)
    [ (a, 1); (a, 2); (b, 3); (a, 4); (b, 5); (b, 6) ];
  Alcotest.(check int) "all six move at 3" 6
    (Rcu.Cblist.advance cbl ~completed:3);
  Alcotest.(check (list (pair string int)))
    "enqueue order"
    [ ("a", 1); ("a", 2); ("b", 3); ("a", 4); ("b", 5); ("b", 6) ]
    (drain_log cbl log)

(* An entry whose cookie is already complete waits for the next advance,
   and does not join the done segment of the same cookie and callback
   that is ahead of it. *)
let test_enqueue_behind_frontier () =
  let cbl = Rcu.Cblist.create () in
  let log = ref [] in
  let cb () arg = log := arg :: !log in
  Rcu.Cblist.enqueue cbl ~cookie:2 cb 1;
  Rcu.Cblist.enqueue cbl ~cookie:2 cb 2;
  Alcotest.(check int) "two move at 4" 2 (Rcu.Cblist.advance cbl ~completed:4);
  Rcu.Cblist.enqueue cbl ~cookie:2 cb 3;
  Rcu.Cblist.enqueue cbl ~cookie:4 cb 4;
  Alcotest.(check int) "still two ready" 2 (Rcu.Cblist.ready cbl);
  Alcotest.(check int) "two waiting" 2 (Rcu.Cblist.waiting cbl);
  Alcotest.(check (list int)) "the drain stops at the frontier" [ 1; 2 ]
    (drain_log cbl log);
  Alcotest.(check int) "the next advance moves both" 2
    (Rcu.Cblist.advance cbl ~completed:4);
  Alcotest.(check (list int)) "then they run" [ 3; 4 ] (drain_log cbl log)

(* A head segment drained halfway, with a later segment advanced behind
   it: the rest of the head runs first. *)
let test_half_drained_head () =
  let cbl = Rcu.Cblist.create () in
  let log = ref [] in
  let cb () arg = log := arg :: !log in
  for i = 1 to 6 do
    Rcu.Cblist.enqueue cbl ~cookie:1 cb i
  done;
  for i = 7 to 9 do
    Rcu.Cblist.enqueue cbl ~cookie:2 cb i
  done;
  Alcotest.(check int) "the first segment moves" 6
    (Rcu.Cblist.advance cbl ~completed:1);
  Alcotest.(check int) "half of it drains" 3 (Rcu.Cblist.drain cbl ~max:3 ());
  Alcotest.(check int) "the second moves behind it" 3
    (Rcu.Cblist.advance cbl ~completed:2);
  Alcotest.(check int) "six ready" 6 (Rcu.Cblist.ready cbl);
  log := [];
  Alcotest.(check int) "four drain" 4 (Rcu.Cblist.drain cbl ~max:4 ());
  Alcotest.(check (list int)) "the head's rest first" [ 4; 5; 6; 7 ]
    (List.rev !log);
  Alcotest.(check (list int)) "then the rest" [ 8; 9 ] (drain_log cbl log);
  Alcotest.(check int) "empty" 0 (Rcu.Cblist.total cbl)

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
    Alcotest.test_case "a run split by a second callback" `Quick
      test_split_run;
    Alcotest.test_case "an entry behind the frontier waits" `Quick
      test_enqueue_behind_frontier;
    Alcotest.test_case "a half-drained head segment stays first" `Quick
      test_half_drained_head;
  ]
