(* The reclamation event tap: allocation-free when nothing listens, and
   in-order delivery to every subscriber when several do. *)

module Tap = Trace.Tap

let test_unsubscribed_is_free () =
  let tap = Tap.create () in
  Alcotest.(check bool) "nothing armed" false (Tap.armed tap);
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Tap.emit tap Tap.Defer i (i + 1)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "10k emits, 0 minor words" 0. words

let test_registration_order () =
  let tap = Tap.create () in
  let seen = ref [] in
  let subscriber id kind a b = seen := (id, kind, a, b) :: !seen in
  Tap.subscribe tap (subscriber 1);
  Tap.subscribe tap (subscriber 2);
  Alcotest.(check bool) "armed" true (Tap.armed tap);
  Tap.emit tap Tap.Defer 7 3;
  Tap.emit tap Tap.Gp_qs 1 0;
  Tap.emit tap Tap.Alloc 7 0;
  let expected =
    [
      (1, Tap.Defer, 7, 3);
      (2, Tap.Defer, 7, 3);
      (1, Tap.Gp_qs, 1, 0);
      (2, Tap.Gp_qs, 1, 0);
      (1, Tap.Alloc, 7, 0);
      (2, Tap.Alloc, 7, 0);
    ]
  in
  Alcotest.(check bool) "every event, subscribers in order" true
    (List.rev !seen = expected)

let suite =
  [
    Alcotest.test_case "no subscriber: nothing delivered, no allocation"
      `Quick test_unsubscribed_is_free;
    Alcotest.test_case "two subscribers: every event, registration order"
      `Quick test_registration_order;
  ]
