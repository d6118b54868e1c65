(* Event-scheduler tests: a QCheck model suite proving the engine
   dispatches exactly the order of a naive sorted-list scheduler, plus
   targeted engine-level cases that random programs rarely hit
   squarely: far-future events, one far instant scheduled from two
   times, a schedule into the gap after [run ~until], daemon-only
   quiescence, and slot reuse. The last group holds the heap's own
   laws at depths the model programs never reach: hundreds to
   thousands of pending events, across the pool's growth. *)

module E = Sim.Engine

(* ---------------- sorted-list reference model ----------------

   The model keeps every pending event in one list sorted by
   (time, tie key, seq) and always dispatches the head. Tie keys come
   from [E.tie_key], so the model and the engine agree on what Shuffle
   means and differ only in how they find the next event. *)

(* What a random program drives; both the engine and the model
   provide it. *)
module type SCHED = sig
  type t

  val create : E.tiebreak -> t
  val now : t -> int
  val schedule : t -> after:int -> (unit -> unit) -> unit
  val run : ?until:int -> t -> unit
  val executed : t -> int
  val pending : t -> int
end

module Engine_sched : SCHED = struct
  include E

  let create tiebreak = E.create ~tiebreak ()
  let schedule t ~after fn = E.schedule t ~after fn
end

module Model : SCHED = struct
  type event = { time : int; key : int; seq : int; fn : unit -> unit }

  type t = {
    tiebreak : E.tiebreak;
    mutable now : int;
    mutable next_seq : int;
    mutable queue : event list;
    mutable executed : int;
  }

  let create tiebreak =
    { tiebreak; now = 0; next_seq = 0; queue = []; executed = 0 }

  let now m = m.now
  let executed m = m.executed
  let key e = (e.time, e.key, e.seq)

  let schedule m ~after fn =
    let time = m.now + after and seq = m.next_seq in
    m.next_seq <- seq + 1;
    let ev = { time; key = E.tie_key m.tiebreak ~time ~seq; seq; fn } in
    let rec insert = function
      | e :: rest when key e < key ev -> e :: insert rest
      | l -> ev :: l
    in
    m.queue <- insert m.queue

  (* Run the earliest event due by [until]; false if there is none. *)
  let pop m ~until =
    match m.queue with
    | e :: rest when e.time <= until ->
        m.queue <- rest;
        m.now <- e.time;
        m.executed <- m.executed + 1;
        e.fn ();
        true
    | _ -> false

  let run ?(until = max_int) m =
    while pop m ~until do () done;
    if until <> max_int && until > m.now then m.now <- until

  let pending m = List.length m.queue
end

(* ---------------- random programs ----------------

   A program is a sequence of scheduler operations interpreted
   identically against the engine and the model. Every executed event
   appends (virtual time, event id) to a log; the two logs (plus
   executed counts, final clocks and pending counts) must match
   exactly. Ids are handed out in execution order for nested events, so
   any dispatch-order divergence shows up as differing logs even when
   the time streams agree. *)

type op =
  | Sched of int  (* schedule at now + delay, log on fire *)
  | Sched_nested of int * int
      (* schedule at now + d1 an event that schedules a child at + d2
         when it fires; d2 = 0 exercises mid-batch insertion *)
  | Run_until of int  (* run ~until:(now + u) *)

let run_program (module S : SCHED) ~tiebreak ops =
  let s = S.create tiebreak in
  let log = ref [] in
  let next_id = ref 0 in
  let fire id () = log := (S.now s, id) :: !log in
  let sched_logged ~after k =
    let id = !next_id in
    incr next_id;
    S.schedule s ~after (fun () -> fire id (); k ())
  in
  List.iter
    (fun op ->
      match op with
      | Sched d -> sched_logged ~after:d (fun () -> ())
      | Sched_nested (d1, d2) ->
          sched_logged ~after:d1 (fun () ->
              (* child id assigned at fire time: equal streams imply
                 equal dispatch order, not just equal times *)
              sched_logged ~after:d2 (fun () -> ()))
      | Run_until u -> S.run ~until:(S.now s + u) s)
    ops;
  S.run s;
  (List.rev !log, S.executed s, S.now s, S.pending s)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (* dense near-term work: same-instant batches via repeated deltas *)
        (6, map (fun d -> Sched d) (oneofl [ 0; 1; 7; 64; 64; 1_000; 20_000 ]));
        (3, map (fun d -> Sched d) (int_bound 200_000));
        (* nested, often same-instant (d2 = 0 hits batch insertion) *)
        ( 3,
          map2
            (fun d1 d2 -> Sched_nested (d1, d2))
            (int_bound 70_000)
            (oneofl [ 0; 0; 1; 70_000 ]) );
        (* far-future deltas *)
        ( 2,
          map (fun d -> Sched d)
            (oneofl
               [
                 (1 lsl 16) - 1;
                 1 lsl 16;
                 (1 lsl 16) + 1;
                 (1 lsl 17) + 13;
                 1 lsl 32;
                 (1 lsl 32) + 3;
                 (1 lsl 48) + 5;
               ]) );
        (2, map (fun u -> Run_until u) (oneofl [ 0; 1; 999; 65_535; 65_536 ]));
      ])

let program_gen = QCheck.Gen.(list_size (1 -- 40) op_gen)

let program_arb =
  (* No shrinker beyond QCheck's structural list shrinking; ops print
     via Stdlib-ish constructors for failure triage. *)
  QCheck.make program_gen
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Sched d -> Printf.sprintf "S%d" d
             | Sched_nested (a, b) -> Printf.sprintf "N(%d,%d)" a b
             | Run_until u -> Printf.sprintf "R%d" u)
           ops))

let equivalent ~tiebreak ops =
  run_program (module Engine_sched) ~tiebreak ops
  = run_program (module Model) ~tiebreak ops

let prop_equiv_fifo =
  QCheck.Test.make ~name:"engine = sorted-list model: (time, id) streams (Fifo)"
    ~count:300 program_arb (equivalent ~tiebreak:E.Fifo)

let prop_equiv_shuffle =
  QCheck.Test.make
    ~name:"engine = sorted-list model: (time, id) streams (Shuffle)"
    ~count:300 program_arb
    (fun ops ->
      equivalent ~tiebreak:(E.Shuffle 7) ops
      && equivalent ~tiebreak:(E.Shuffle 12345) ops)

(* The model must have teeth: re-introduce an ordering bug (a heap
   that ignores the tie key, so Shuffle instants run in seq order) and
   require the equivalence check to catch it on a trivially small
   program. *)
let test_detects_injected_ordering_bug () =
  let ops = List.init 12 (fun _ -> Sched 50) in
  Fun.protect
    ~finally:(fun () -> E.debug_drop_tie_key := false)
    (fun () ->
      E.debug_drop_tie_key := true;
      Alcotest.(check bool)
        "equivalence check catches the dropped tie key" false
        (equivalent ~tiebreak:(E.Shuffle 1) ops);
      (* The bug is exactly Fifo order: equal keys fall back to seqs. *)
      Alcotest.(check bool)
        "Shuffle runs in Fifo order under the injected bug" true
        (run_program (module Engine_sched) ~tiebreak:(E.Shuffle 1) ops
        = run_program (module Engine_sched) ~tiebreak:E.Fifo ops);
      (* The hook acts only under Shuffle: it must leave Fifo
         untouched, or the bug injection itself would be unsound. *)
      Alcotest.(check bool)
        "Fifo unaffected by the injected bug" true
        (equivalent ~tiebreak:E.Fifo ops))

(* ---------------- engine-level unit tests ---------------- *)

let test_far_future_order () =
  let eng = E.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  E.schedule eng ~after:((1 lsl 48) + 9) (note "2^48");
  E.schedule eng ~after:(1 lsl 32) (note "2^32");
  E.schedule eng ~after:3 (note "near");
  E.schedule eng ~after:(1 lsl 16) (note "2^16");
  E.run eng;
  Alcotest.(check (list string))
    "far-future events dispatch in time order"
    [ "near"; "2^16"; "2^32"; "2^48" ]
    (List.rev !log);
  Alcotest.(check int) "clock at the farthest event" ((1 lsl 48) + 9) (E.now eng)

let test_far_instant_from_two_times () =
  (* Events scheduled from different times at the same far instant
     dispatch in seq order. *)
  let eng = E.create () in
  let target = (1 lsl 17) + 42 in
  let log = ref [] in
  E.schedule_at eng ~time:target (fun () -> log := 0 :: !log);
  E.schedule eng ~after:5 (fun () ->
      E.schedule_at eng ~time:target (fun () -> log := 1 :: !log));
  E.schedule_at eng ~time:target (fun () -> log := 2 :: !log);
  E.run eng;
  Alcotest.(check (list int)) "seq order at the far instant" [ 0; 2; 1 ]
    (List.rev !log)

let test_schedule_into_gap () =
  (* run ~until returns at a horizon short of the pending event;
     events scheduled into that gap still dispatch first, in order. *)
  let eng = E.create () in
  let log = ref [] in
  E.schedule eng ~after:1_000 (fun () -> log := "far" :: !log);
  E.run ~until:500 eng;
  Alcotest.(check int) "clock at horizon" 500 (E.now eng);
  E.schedule eng ~after:100 (fun () -> log := "gap" :: !log);
  E.schedule eng ~after:100 (fun () -> log := "gap2" :: !log);
  E.run eng;
  Alcotest.(check (list string))
    "gap events run first, in order" [ "gap"; "gap2"; "far" ]
    (List.rev !log)

let test_daemon_quiet () =
  let eng = E.create () in
  let ticks = ref 0 in
  E.every eng ~period:100 (fun () -> incr ticks; true);
  E.schedule eng ~after:450 ignore;
  E.run_until_quiet eng;
  Alcotest.(check int) "stopped once only daemons remain" 450 (E.now eng);
  Alcotest.(check int) "daemon ticks up to the last live event" 4 !ticks

(* A dispatched event's slot is reused: churning events one at a time
   through the pool's first 1,024 slots many times over, or holding
   1,024 at once, allocates no major words, and the 1,025th pending
   event doubles the pool. The closure of a dispatched event is
   dropped, so its environment can be collected. A minor collection
   first empties the minor heap, so the first reading's own allocation
   cannot start one that would promote words into the measurement. *)
let[@inline never] schedule_holding eng kept =
  let env = ref 0 in
  Weak.set kept 0 (Some env);
  E.schedule eng ~after:1 (fun () -> incr env)

let test_slot_reuse () =
  let eng = E.create () in
  let fn () = () in
  let hold n =
    for _ = 1 to n do
      E.schedule eng ~after:1 fn
    done;
    E.run eng
  in
  let grown f =
    Gc.minor ();
    let before = Test_util.major_words () in
    f ();
    Test_util.major_words () -. before
  in
  Alcotest.(check (float 0.)) "4,096 events one at a time" 0.
    (grown (fun () ->
         for _ = 1 to 4_096 do
           hold 1
         done));
  Alcotest.(check (float 0.)) "1,024 pending at once" 0.
    (grown (fun () -> hold 1_024));
  Alcotest.(check bool) "1,025 pending double the pool" true
    (grown (fun () -> hold 1_025) > 0.);
  Alcotest.(check (float 0.)) "2,048 pending in the doubled pool" 0.
    (grown (fun () -> hold 2_048));
  let kept = Weak.create 1 in
  schedule_holding eng kept;
  E.run eng;
  Gc.full_major ();
  Alcotest.(check bool) "closure dropped" true (Weak.get kept 0 = None);
  (* The engine stays live across the collection, so the closure was
     dropped from its pool, not collected with it. *)
  Alcotest.(check int) "nothing pending" 0 (E.pending eng)

(* ---------------- the heap at depth ----------------

   The model programs above hold a few dozen events at most, so the
   4-ary heap stays two or three levels deep and the pool never grows.
   These hold hundreds to thousands. *)

(* Delays with many exact ties, some far-future ones, and 0 (an event
   scheduled into the running instant). *)
let delay_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return 0);
        (6, int_bound 300);
        (2, int_bound 100_000);
        (1, oneofl [ 1 lsl 32; (1 lsl 48) + 5 ]);
      ])

let prop_drains_sorted =
  QCheck.Test.make ~name:"engine drains any delay list in (time, seq) order"
    ~count:100
    QCheck.(
      make
        ~print:Print.(list int)
        Gen.(list_size (0 -- 3_000) delay_gen))
    (fun delays ->
      (* Up to 3,000 events scheduled at once: the pool doubles twice
         on the way, with the heap full of unsorted times. *)
      let eng = E.create () in
      let log = ref [] in
      List.iteri
        (fun i d ->
          E.schedule eng ~after:d (fun () -> log := (E.now eng, i) :: !log))
        delays;
      E.run eng;
      List.rev !log = List.sort compare (List.mapi (fun i d -> (d, i)) delays))

module Pending = Set.Make (struct
  type t = int * int * int (* time, tie key, seq *)

  let compare = compare
end)

(* [initial] delays are scheduled at time 0; then the k-th dispatched
   event schedules the delays of [spawns]' k-th entry, until [spawns]
   runs out. A set of the pending (time, tie key, seq) triples, kept
   beside the engine, must hold each dispatched event as its least
   element. *)
let pops_least ~tiebreak (initial, spawns) =
  let eng = E.create ~tiebreak () in
  let pending = ref Pending.empty and spawns = ref spawns in
  let next_seq = ref 0 and ok = ref true in
  let rec sched after =
    let time = E.now eng + after and seq = !next_seq in
    incr next_seq;
    let ev = (time, E.tie_key tiebreak ~time ~seq, seq) in
    pending := Pending.add ev !pending;
    E.schedule eng ~after (fun () -> fire ev)
  and fire ((time, _, _) as ev) =
    if E.now eng <> time || Pending.min_elt !pending <> ev then ok := false;
    pending := Pending.remove ev !pending;
    match !spawns with
    | [] -> ()
    | children :: rest ->
        spawns := rest;
        List.iter sched children
  in
  List.iter sched initial;
  E.run eng;
  !ok && Pending.is_empty !pending && E.pending eng = 0

let interleaved_arb =
  QCheck.(
    make
      ~print:Print.(pair (list int) (list (list int)))
      Gen.(
        pair
          (list_size (0 -- 600) delay_gen)
          (list_size (0 -- 600) (list_size (0 -- 3) delay_gen))))

let prop_pops_least_fifo =
  QCheck.Test.make ~name:"every pop is the least pending event (Fifo)"
    ~count:200 interleaved_arb (pops_least ~tiebreak:E.Fifo)

let prop_pops_least_shuffle =
  QCheck.Test.make ~name:"every pop is the least pending event (Shuffle)"
    ~count:200 interleaved_arb (fun prog ->
      pops_least ~tiebreak:(E.Shuffle 7) prog
      && pops_least ~tiebreak:(E.Shuffle 12345) prog)

(* 300 same-instant events under Shuffle run in ascending tie key, the
   heap five levels deep. *)
let test_shuffle_deep_instant () =
  let tiebreak = E.Shuffle 99 in
  let eng = E.create ~tiebreak () in
  let order = ref [] in
  for seq = 0 to 299 do
    E.schedule eng ~after:40 (fun () -> order := seq :: !order)
  done;
  E.run eng;
  let by_key =
    List.init 300 (fun seq -> (E.tie_key tiebreak ~time:40 ~seq, seq))
    |> List.sort compare |> List.map snd
  in
  Alcotest.(check (list int)) "ascending tie key" by_key (List.rev !order)

(* The first event dispatches with the other 1,023 of a full pool
   pending and schedules 600 more, interleaved with them: the pool
   doubles inside the dispatch, and every event still runs in
   (time, seq) order. *)
let test_grow_mid_dispatch () =
  let eng = E.create () in
  let log = ref [] and next = ref 0 in
  let sched ~time fn =
    let id = !next in
    incr next;
    E.schedule_at eng ~time (fun () ->
        log := (E.now eng, id) :: !log;
        fn ())
  in
  sched ~time:1 (fun () ->
      Alcotest.(check int) "the rest of the pool pending" 1_023
        (E.pending eng);
      for i = 0 to 599 do
        sched ~time:(2 + (i * 389 mod 2_000)) ignore
      done);
  for i = 0 to 1_022 do
    sched ~time:(2 + (i * 7_919 mod 3_000)) ignore
  done;
  Alcotest.(check int) "a full pool" 1_024 (E.pending eng);
  E.run eng;
  let log = List.rev !log in
  Alcotest.(check int) "every event ran" 1_624 (List.length log);
  Alcotest.(check bool) "in (time, seq) order" true
    (log = List.sort compare log)

let prop_until_steps =
  QCheck.Test.make
    ~name:"run ~until in steps dispatches exactly the events due" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 400) (int_bound 10_000))
        (list_of_size Gen.(1 -- 20) (int_bound 1_500)))
    (fun (delays, steps) ->
      (* Each horizon check reads the heap's top and must leave it in
         place: the events past the horizon stay pending, intact. *)
      let eng = E.create () in
      List.iter (fun d -> E.schedule eng ~after:d ignore) delays;
      let due u = List.length (List.filter (fun d -> d <= u) delays) in
      List.for_all
        (fun step ->
          let u = E.now eng + step in
          E.run ~until:u eng;
          E.now eng = u
          && E.executed eng = due u
          && E.pending eng = List.length delays - due u)
        steps)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_equiv_fifo;
    QCheck_alcotest.to_alcotest prop_equiv_shuffle;
    Alcotest.test_case "model detects injected ordering bug" `Quick
      test_detects_injected_ordering_bug;
    Alcotest.test_case "far-future events in time order" `Quick
      test_far_future_order;
    Alcotest.test_case "one far instant scheduled from two times" `Quick
      test_far_instant_from_two_times;
    Alcotest.test_case "schedule into the gap after run ~until" `Quick
      test_schedule_into_gap;
    Alcotest.test_case "run_until_quiet with daemons" `Quick
      test_daemon_quiet;
    Alcotest.test_case "dispatched slots are reused" `Quick test_slot_reuse;
    QCheck_alcotest.to_alcotest prop_drains_sorted;
    QCheck_alcotest.to_alcotest prop_pops_least_fifo;
    QCheck_alcotest.to_alcotest prop_pops_least_shuffle;
    Alcotest.test_case "Shuffle orders a deep instant by tie key" `Quick
      test_shuffle_deep_instant;
    Alcotest.test_case "the pool grows inside a dispatch" `Quick
      test_grow_mid_dispatch;
    QCheck_alcotest.to_alcotest prop_until_steps;
  ]
