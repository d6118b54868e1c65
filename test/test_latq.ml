(* Latent-queue data structures: the slab latent store must be
   observationally equivalent to the naive single-list bookkeeping it
   replaced (same elements, same newest-first harvest order, the same
   iteration order), and a harvest with nothing ripe must touch
   nothing. *)

let harvest_list q ~completed =
  let out = ref [] in
  let n = Slab.Latq.harvest q ~completed ~f:(fun v -> out := v :: !out) in
  (n, List.rev !out)

let iter_list q =
  let out = ref [] in
  Slab.Latq.iter (fun v -> out := v :: !out) q;
  List.rev !out

(* Reference model: one newest-first list, [List.partition]ed on
   harvest — exactly the bookkeeping Latq replaced. Iteration visits
   cookies in ascending order, newest first within a cookie: a stable
   sort of the newest-first list by cookie. A small capacity makes the
   store grow past its first allocation. *)
let prop_bucketed_matches_naive =
  QCheck.Test.make ~name:"latq matches naive partition bookkeeping"
    ~count:300
    QCheck.(list (pair (int_bound 1) (int_bound 8)))
    (fun ops ->
      let q = Slab.Latq.create ~capacity:2 in
      let model = ref [] in
      let next = ref 0 in
      let iter_ok () =
        iter_list q
        = List.map snd
            (List.stable_sort (fun (a, _) (b, _) -> compare a b) !model)
      in
      List.for_all
        (fun (op, k) ->
          if op = 0 then begin
            let v = !next in
            incr next;
            Slab.Latq.push q ~cookie:k v;
            model := (k, v) :: !model;
            Slab.Latq.length q = List.length !model && iter_ok ()
          end
          else begin
            let ripe, rest = List.partition (fun (c, _) -> c <= k) !model in
            model := rest;
            let n, got = harvest_list q ~completed:k in
            n = List.length ripe
            && got = List.map snd ripe
            && Slab.Latq.length q = List.length rest
            && iter_ok ()
          end)
        ops)

let test_harvest_visits_bound () =
  (* 10k latent objects spread over 100 cookies. [work] counts every
     element a harvest visits: a harvest below the oldest cookie visits
     nothing, and one that ripens a cookie visits each element at most
     once. *)
  let q = Slab.Latq.create ~capacity:16 in
  let cookies = 100 and per = 100 in
  for c = 1 to cookies do
    for i = 0 to per - 1 do
      Slab.Latq.push q ~cookie:c ((c * 1000) + i)
    done
  done;
  Alcotest.(check int) "populated" (cookies * per) (Slab.Latq.length q);
  let w0 = Slab.Latq.work q in
  let n, _ = harvest_list q ~completed:0 in
  Alcotest.(check int) "nothing ripe" 0 n;
  Alcotest.(check int) "nothing visited" w0 (Slab.Latq.work q);
  let len = Slab.Latq.length q in
  let n, _ = harvest_list q ~completed:1 in
  Alcotest.(check int) "one cookie ripe" per n;
  Alcotest.(check bool) "at most length visited" true
    (Slab.Latq.work q - w0 <= len);
  let w1 = Slab.Latq.work q in
  ignore (harvest_list q ~completed:1);
  Alcotest.(check int) "same horizon again: nothing visited" w1
    (Slab.Latq.work q);
  Alcotest.(check int)
    "other cookies stay"
    ((cookies - 1) * per)
    (Slab.Latq.length q)

let test_harvest_merge_order () =
  (* Interleaved pushes across two cookies: harvest must emit globally
     newest-first across cookies, as the old single list's partition
     did. *)
  let q = Slab.Latq.create ~capacity:8 in
  Slab.Latq.push q ~cookie:1 10;
  Slab.Latq.push q ~cookie:2 20;
  Slab.Latq.push q ~cookie:1 11;
  Slab.Latq.push q ~cookie:2 21;
  Slab.Latq.push q ~cookie:1 12;
  let n, got = harvest_list q ~completed:2 in
  Alcotest.(check int) "all ripe" 5 n;
  Alcotest.(check (list int)) "newest first" [ 12; 21; 11; 20; 10 ] got

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
  let push got v = got := v :: !got in
  let n = Fifo.merge_ripe q ~completed:1 ~limit:4 ~f:push got in
  Alcotest.(check int) "limit respected" 4 n;
  Alcotest.(check (list int)) "oldest first" [ 0; 1; 2; 3 ] (List.rev !got);
  got := [];
  let n2 = Fifo.merge_ripe q ~completed:1 ~limit:10 ~f:push got in
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
    QCheck_alcotest.to_alcotest prop_bucketed_matches_naive;
    Alcotest.test_case "harvest visits nothing unripe, at most length"
      `Quick test_harvest_visits_bound;
    Alcotest.test_case "harvest merges buckets newest-first" `Quick
      test_harvest_merge_order;
    QCheck_alcotest.to_alcotest prop_fifo_matches_model;
    Alcotest.test_case "fifo merge_ripe batches with limit" `Quick
      test_fifo_merge_ripe_batches;
    Alcotest.test_case "fifo ring wraparound" `Quick test_fifo_wraparound;
    Alcotest.test_case "fifo ring growth" `Quick test_fifo_growth;
  ]
