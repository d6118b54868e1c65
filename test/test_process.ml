let test_sleep_advances_time () =
  let eng = Sim.Engine.create () in
  let t1 = ref 0 and t2 = ref 0 in
  Sim.Process.spawn eng (fun () ->
      Sim.Process.sleep eng 100;
      t1 := Sim.Engine.now eng;
      Sim.Process.sleep eng 250;
      t2 := Sim.Engine.now eng);
  Sim.Engine.run eng;
  Alcotest.(check int) "first sleep" 100 !t1;
  Alcotest.(check int) "second sleep" 350 !t2

let test_interleaving () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  let proc tag delay =
    Sim.Process.spawn eng (fun () ->
        for i = 1 to 3 do
          Sim.Process.sleep eng delay;
          log := Printf.sprintf "%s%d" tag i :: !log
        done)
  in
  proc "a" 100;
  proc "b" 150;
  Sim.Engine.run eng;
  (* a fires at 100/200/300, b at 150/300/450; at t=300 b2 was scheduled
     (at t=150) before a3 (at t=200), so FIFO puts b2 first. *)
  Alcotest.(check (list string))
    "deterministic interleave"
    [ "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ]
    (List.rev !log)

let test_yield_runs_peer () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Process.spawn eng (fun () ->
      log := "p1-start" :: !log;
      Sim.Process.yield eng;
      log := "p1-end" :: !log);
  Sim.Process.spawn eng (fun () -> log := "p2" :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list string))
    "yield lets same-time peer run" [ "p1-start"; "p2"; "p1-end" ]
    (List.rev !log)

let test_cond_broadcast () =
  let eng = Sim.Engine.create () in
  let cond = Sim.Process.Cond.create eng in
  let woken = ref 0 in
  let order = ref [] in
  (* Spawned at staggered times, so they wait in the order 3, 1, 2. *)
  List.iter
    (fun (id, delay) ->
      Sim.Process.spawn eng (fun () ->
          Sim.Process.sleep eng delay;
          Sim.Process.Cond.wait cond;
          order := id :: !order;
          incr woken))
    [ (1, 20); (2, 30); (3, 10) ];
  ignore
    (Sim.Engine.schedule eng ~after:500 (fun () ->
         Sim.Process.Cond.broadcast cond));
  Sim.Engine.run ~until:400 eng;
  Alcotest.(check int) "no early wake" 0 !woken;
  Alcotest.(check int) "waiters queued" 3 (Sim.Process.Cond.waiters cond);
  Sim.Engine.run eng;
  Alcotest.(check int) "all woken" 3 !woken;
  Alcotest.(check (list int)) "woken in waiting order" [ 3; 1; 2 ]
    (List.rev !order);
  Alcotest.(check int) "queue empty" 0 (Sim.Process.Cond.waiters cond)

let test_wait_until () =
  let eng = Sim.Engine.create () in
  let cond = Sim.Process.Cond.create eng in
  let flag = ref false in
  let finished_at = ref (-1) in
  Sim.Process.spawn eng (fun () ->
      Sim.Process.wait_until cond (fun () -> !flag);
      finished_at := Sim.Engine.now eng);
  (* Spurious broadcast with predicate still false. *)
  ignore (Sim.Engine.schedule eng ~after:100 (fun () -> Sim.Process.Cond.broadcast cond));
  ignore
    (Sim.Engine.schedule eng ~after:200 (fun () ->
         flag := true;
         Sim.Process.Cond.broadcast cond));
  Sim.Engine.run eng;
  Alcotest.(check int) "woken only when predicate holds" 200 !finished_at

let test_wait_until_immediate () =
  let eng = Sim.Engine.create () in
  let cond = Sim.Process.Cond.create eng in
  let ran = ref false in
  Sim.Process.spawn eng (fun () ->
      Sim.Process.wait_until cond (fun () -> true);
      ran := true);
  Sim.Engine.run eng;
  Alcotest.(check bool) "no block when predicate already true" true !ran

let test_many_processes () =
  let eng = Sim.Engine.create () in
  let done_count = ref 0 in
  for i = 1 to 500 do
    Sim.Process.spawn eng (fun () ->
        Sim.Process.sleep eng (i mod 17);
        Sim.Process.sleep eng (i mod 5);
        incr done_count)
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "all processes completed" 500 !done_count

(* A sleep allocates the runtime's continuation and the effect value
   only: the process's resume closure and handler reply are made once,
   at spawn. *)
let test_sleep_allocation () =
  let eng = Sim.Engine.create () in
  let n = 10_000 in
  let words = ref nan in
  Sim.Process.spawn eng (fun () ->
      for _ = 1 to 1_000 do
        Sim.Process.sleep eng 5
      done;
      let before = Gc.minor_words () in
      for _ = 1 to n do
        Sim.Process.sleep eng 5
      done;
      words := Gc.minor_words () -. before);
  Sim.Engine.run eng;
  let per_sleep = !words /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per sleep <= 6" per_sleep)
    true (per_sleep <= 6.)

let suite =
  [
    Alcotest.test_case "sleep advances virtual time" `Quick
      test_sleep_advances_time;
    Alcotest.test_case "two processes interleave" `Quick test_interleaving;
    Alcotest.test_case "yield runs same-time peer" `Quick test_yield_runs_peer;
    Alcotest.test_case "condition broadcast" `Quick test_cond_broadcast;
    Alcotest.test_case "wait_until re-checks predicate" `Quick test_wait_until;
    Alcotest.test_case "wait_until immediate" `Quick test_wait_until_immediate;
    Alcotest.test_case "500 processes" `Quick test_many_processes;
    Alcotest.test_case "sleep allocation" `Quick test_sleep_allocation;
  ]
