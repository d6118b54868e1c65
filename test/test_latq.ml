(* Per-CPU latent caches ([Slab.Latq.Fifo]): a cookie-monotone ring
   with a run-length cookie index must match a plain list model. The
   slab latent list's tests are in test_frame.ml. *)

module Fifo = Slab.Latq.Fifo

let prop_fifo_matches_model =
  QCheck.Test.make ~name:"latq fifo matches list model" ~count:300
    QCheck.(list (pair (int_bound 3) (int_bound 4)))
    (fun ops ->
      let q = Fifo.create () in
      let model = ref [] in
      (* oldest first: (cookie, v) *)
      let cookie = ref 0 in
      let next = ref 0 in
      List.for_all
        (fun (op, k) ->
          match op with
          | 0 ->
              cookie := !cookie + k;
              let v = !next in
              incr next;
              Fifo.push_back q ~cookie:!cookie v;
              model := !model @ [ (!cookie, v) ];
              true
          | 1 -> (
              let completed = !cookie - k in
              match (!model, Fifo.oldest_ripe q ~completed) with
              | (c, v) :: rest, true when c <= completed ->
                  model := rest;
                  v = Fifo.pop_front q
              | (c, _) :: _, false -> c > completed
              | [], false -> true
              | _ -> false)
          | 2 -> (
              match List.rev !model with
              | (_, v) :: rest_rev ->
                  model := List.rev rest_rev;
                  v = Fifo.pop_back q
              | [] -> Fifo.length q = 0)
          | _ ->
              let completed = !cookie - k in
              let expect =
                List.length (List.filter (fun (c, _) -> c <= completed) !model)
              in
              Fifo.ripe_count q ~completed = expect
              && Fifo.length q = List.length !model)
        ops)

let test_fifo_merge_ripe_batches () =
  let q = Fifo.create () in
  for v = 0 to 9 do
    Fifo.push_back q ~cookie:(v / 3) v
  done;
  (* cookies 0,0,0,1,1,1,2,2,2,3: completed=1 makes six ripe. *)
  let got = ref [] in
  let push got () v = got := v :: !got in
  let n = Fifo.merge_ripe q ~completed:1 ~limit:4 ~f:push got () in
  Alcotest.(check int) "limit respected" 4 n;
  Alcotest.(check (list int)) "oldest first" [ 0; 1; 2; 3 ] (List.rev !got);
  got := [];
  let n2 = Fifo.merge_ripe q ~completed:1 ~limit:10 ~f:push got () in
  Alcotest.(check int) "rest of the ripe run" 2 n2;
  Alcotest.(check (list int)) "continues in order" [ 4; 5 ] (List.rev !got);
  Alcotest.(check int) "unripe stay" 4 (Fifo.length q)

let test_fifo_wraparound () =
  (* Interleaved push/pop keeps the ring small while the head laps the
     capacity many times. *)
  let q = Fifo.create () in
  for i = 0 to 99 do
    Fifo.push_back q ~cookie:i i;
    if i >= 2 then begin
      if not (Fifo.oldest_ripe q ~completed:i) then
        Alcotest.fail "expected a ripe element";
      Alcotest.(check int) "fifo order" (i - 2) (Fifo.pop_front q)
    end
  done;
  Alcotest.(check int) "two left" 2 (Fifo.length q)

let test_fifo_growth () =
  (* 100 elements over 100 distinct cookies grows both the payload ring
     and the run-length index past their initial capacities. *)
  let q = Fifo.create () in
  for i = 0 to 99 do
    Fifo.push_back q ~cookie:i i
  done;
  Alcotest.(check int) "ripe prefix" 50 (Fifo.ripe_count q ~completed:49);
  for i = 0 to 99 do
    if not (Fifo.oldest_ripe q ~completed:100) then
      Alcotest.fail "element lost in growth";
    Alcotest.(check int) "order preserved across growth" i (Fifo.pop_front q)
  done;
  Alcotest.(check int) "empty" 0 (Fifo.length q)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fifo_matches_model;
    Alcotest.test_case "fifo merge_ripe batches with limit" `Quick
      test_fifo_merge_ripe_batches;
    Alcotest.test_case "fifo ring wraparound" `Quick test_fifo_wraparound;
    Alcotest.test_case "fifo ring growth" `Quick test_fifo_growth;
  ]
