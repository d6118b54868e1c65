(* The event tap: allocation-free when nothing listens (and at the
   emission sites even when something does), and in-order delivery to
   every subscriber when several do. *)

open Test_util
module Tap = Trace.Tap

let test_unsubscribed_is_free () =
  let tap = Tap.create () in
  Alcotest.(check bool) "nothing armed" false (Tap.armed tap);
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Tap.emit tap Defer ~cpu:0 ~label:"" i (i + 1)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "10k emits, 0 minor words" 0. words

let test_registration_order () =
  let tap = Tap.create () in
  let seen = ref [] in
  let subscriber id kind ~cpu ~label a b =
    seen := (id, kind, cpu, label, a, b) :: !seen
  in
  Tap.subscribe tap (subscriber 1);
  Tap.subscribe tap (subscriber 2);
  Alcotest.(check bool) "armed" true (Tap.armed tap);
  Tap.emit tap Defer ~cpu:0 ~label:"c" 7 3;
  Tap.emit tap Gp_qs ~cpu:1 ~label:"" 1 0;
  Tap.emit tap Alloc ~cpu:0 ~label:"c" 7 0;
  let expected =
    [
      (1, Trace.Event.Defer, 0, "c", 7, 3);
      (2, Trace.Event.Defer, 0, "c", 7, 3);
      (1, Trace.Event.Gp_qs, 1, "", 1, 0);
      (2, Trace.Event.Gp_qs, 1, "", 1, 0);
      (1, Trace.Event.Alloc, 0, "c", 7, 0);
      (2, Trace.Event.Alloc, 0, "c", 7, 0);
    ]
  in
  Alcotest.(check bool) "every event, subscribers in order" true
    (List.rev !seen = expected)

(* The instrumented sites themselves: a node-lock acquisition (which
   emits Lock_acquire, and Lock_contended when it queues) and a frame
   timeline event allocate nothing per call, with no subscriber and with
   a no-op one. *)
let test_sites_allocate_nothing () =
  let env = make_env ~cpus:2 () in
  let cache =
    Slab.Frame.create_cache env.fenv ~name:"tap-test" ~obj_size:64 ()
  in
  let c = cpu0 env in
  let lock = cache.Slab.Frame.nodes.(0).Slab.Frame.lock in
  let words () =
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      ignore (Sim.Simlock.acquire lock ~cpu:0 ~now:0 ~hold:10);
      Slab.Frame.event cache c Alloc_hit 0
    done;
    Gc.minor_words () -. before
  in
  Alcotest.(check (float 0.)) "no subscriber" 0. (words ());
  Tap.subscribe env.fenv.Slab.Frame.tap (fun _ ~cpu:_ ~label:_ _ _ -> ());
  Alcotest.(check (float 0.)) "one subscriber" 0. (words ())

let suite =
  [
    Alcotest.test_case "no subscriber: nothing delivered, no allocation"
      `Quick test_unsubscribed_is_free;
    Alcotest.test_case "two subscribers: every event, registration order"
      `Quick test_registration_order;
    Alcotest.test_case "lock and frame emission sites allocate nothing"
      `Quick test_sites_allocate_nothing;
  ]
