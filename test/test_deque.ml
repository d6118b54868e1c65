let test_fifo () =
  let d = Sim.Deque.create () in
  Sim.Deque.push_back d 1;
  Sim.Deque.push_back d 2;
  Sim.Deque.push_back d 3;
  Alcotest.(check int) "front" 1 (Sim.Deque.pop_front_exn d);
  Alcotest.(check int) "front" 2 (Sim.Deque.pop_front_exn d);
  Alcotest.(check int) "front" 3 (Sim.Deque.pop_front_exn d);
  Alcotest.(check bool) "empty" true (Sim.Deque.is_empty d)

let test_both_ends () =
  let d = Sim.Deque.create () in
  Sim.Deque.push_back d 1;
  Sim.Deque.push_back d 2;
  Sim.Deque.push_back d 3;
  Alcotest.(check int) "pop_back" 3 (Sim.Deque.pop_back_exn d);
  Alcotest.(check int) "pop_front" 1 (Sim.Deque.pop_front_exn d);
  Alcotest.(check int) "last" 2 (Sim.Deque.pop_back_exn d);
  Alcotest.(check bool) "empty" true (Sim.Deque.is_empty d)

(* Once the ring has grown to its working size, pushes and pops at both
   ends allocate nothing. *)
let test_no_alloc_once_grown () =
  let d = Sim.Deque.create () in
  for i = 1 to 64 do
    Sim.Deque.push_back d i
  done;
  for _ = 1 to 64 do
    ignore (Sim.Deque.pop_front_exn d)
  done;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Sim.Deque.push_back d i;
    Sim.Deque.push_back d i;
    Sim.Deque.push_back d i;
    ignore (Sim.Deque.pop_front_exn d);
    ignore (Sim.Deque.pop_back_exn d);
    ignore (Sim.Deque.pop_back_exn d)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "10k cycles, 0 minor words" 0. words;
  Alcotest.(check bool) "empty again" true (Sim.Deque.is_empty d)

let test_exn_on_empty () =
  let d = Sim.Deque.create () in
  Alcotest.check_raises "pop_front_exn"
    (Invalid_argument "Deque.pop_front_exn: empty") (fun () ->
      ignore (Sim.Deque.pop_front_exn d));
  Sim.Deque.push_back d 1;
  ignore (Sim.Deque.pop_back_exn d);
  Alcotest.check_raises "pop_back_exn"
    (Invalid_argument "Deque.pop_back_exn: empty") (fun () ->
      ignore (Sim.Deque.pop_back_exn d))

(* Pushes outnumber pops 3:2, so runs of a few hundred ops grow the ring
   past its initial 16 slots more than once, and front pops move the
   live part across the ring's end. *)
let prop_deque_model =
  QCheck.Test.make ~name:"deque matches a list model" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 300) (pair (int_bound 9) small_int))
    (fun ops ->
      let d = Sim.Deque.create () in
      let model = ref [] in
      let take_front () =
        match !model with [] -> None | x :: rest -> model := rest; Some x
      in
      let take_back () =
        match List.rev !model with
        | [] -> None
        | x :: rest ->
            model := List.rev rest;
            Some x
      in
      let exn pop =
        match pop d with x -> Some x | exception Invalid_argument _ -> None
      in
      List.for_all
        (fun (op, v) ->
          (match op with
          | 0 | 1 | 2 | 3 | 4 | 5 ->
              Sim.Deque.push_back d v;
              model := !model @ [ v ];
              true
          | 6 | 7 -> exn Sim.Deque.pop_front_exn = take_front ()
          | _ -> exn Sim.Deque.pop_back_exn = take_back ())
          && Sim.Deque.is_empty d = (!model = []))
        ops
      && List.for_all (fun v -> Sim.Deque.pop_front_exn d = v) !model
      && Sim.Deque.is_empty d)

let suite =
  [
    Alcotest.test_case "fifo" `Quick test_fifo;
    Alcotest.test_case "both ends" `Quick test_both_ends;
    Alcotest.test_case "no allocation once grown" `Quick
      test_no_alloc_once_grown;
    Alcotest.test_case "_exn pops on empty" `Quick test_exn_on_empty;
    QCheck_alcotest.to_alcotest prop_deque_model;
  ]
