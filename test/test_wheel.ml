(* Timer-wheel scheduler tests: a QCheck model suite proving the engine
   dispatches exactly the order of a naive sorted-list scheduler, plus
   targeted unit tests for the wheel's horizon machinery (cascade
   boundaries, overflow spills, the below-cursor front heap) that random
   programs rarely hit squarely, and for its slot pool and bucket
   extraction driven directly. *)

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
        (* level-1/2 cascade crossings and out-of-horizon spills *)
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

(* The model must have teeth: re-introduce the ordering bug the batch
   sort prevents (Shuffle batches dispatched in seq order) and require
   the equivalence check to catch it on a trivially small program. *)
let test_detects_injected_ordering_bug () =
  let ops = List.init 12 (fun _ -> Sched 50) in
  Fun.protect
    ~finally:(fun () -> E.debug_no_batch_sort := false)
    (fun () ->
      E.debug_no_batch_sort := true;
      Alcotest.(check bool)
        "equivalence check catches the unsorted-batch bug" false
        (equivalent ~tiebreak:(E.Shuffle 1) ops);
      (* Fifo batches are seq-ordered either way: the hook must leave
         them untouched, or the bug injection itself would be unsound. *)
      Alcotest.(check bool)
        "Fifo unaffected by the injected bug" true
        (equivalent ~tiebreak:E.Fifo ops))

(* ---------------- wheel-horizon unit tests ---------------- *)

let test_cascade_boundaries () =
  let eng = E.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  (* One event per wheel level plus an out-of-horizon spill. *)
  E.schedule eng ~after:3 (note "near");
  E.schedule eng ~after:(1 lsl 16) (note "l1");
  E.schedule eng ~after:(1 lsl 32) (note "l2");
  E.schedule eng ~after:((1 lsl 48) + 9) (note "overflow");
  Alcotest.(check int) "spill counted" 1 (E.spills eng);
  E.run eng;
  Alcotest.(check (list string))
    "levels dispatch in time order"
    [ "near"; "l1"; "l2"; "overflow" ]
    (List.rev !log);
  Alcotest.(check bool) "cascades happened" true (E.cascades eng > 0);
  Alcotest.(check int) "clock at overflow event" ((1 lsl 48) + 9) (E.now eng)

let test_same_instant_across_cascade () =
  (* Events scheduled from different times at the same far instant must
     still dispatch FIFO after cascading down. *)
  let eng = E.create () in
  let target = (1 lsl 17) + 42 in
  let log = ref [] in
  E.schedule_at eng ~time:target (fun () -> log := 0 :: !log);
  E.schedule eng ~after:5 (fun () ->
      E.schedule_at eng ~time:target (fun () -> log := 1 :: !log));
  E.schedule_at eng ~time:target (fun () -> log := 2 :: !log);
  E.run eng;
  Alcotest.(check (list int))
    "seq order preserved through cascade" [ 0; 2; 1 ] (List.rev !log)

let test_front_heap_after_horizon_peek () =
  (* run ~until peeks past the pending event, advancing the wheel
     cursor beyond the horizon; scheduling into that gap must still
     dispatch in time order (via the front heap). *)
  let eng = E.create () in
  let log = ref [] in
  E.schedule eng ~after:1_000 (fun () -> log := "far" :: !log);
  E.run ~until:500 eng;
  Alcotest.(check int) "clock at horizon" 500 (E.now eng);
  E.schedule eng ~after:100 (fun () -> log := "front" :: !log);
  E.schedule eng ~after:100 (fun () -> log := "front2" :: !log);
  E.run eng;
  Alcotest.(check (list string))
    "front events run first, in order"
    [ "front"; "front2"; "far" ]
    (List.rev !log)

let test_daemon_quiet_wheel () =
  let eng = E.create () in
  let ticks = ref 0 in
  E.every eng ~period:100 (fun () -> incr ticks; true);
  E.schedule eng ~after:450 ignore;
  E.run_until_quiet eng;
  Alcotest.(check int) "stopped once only daemons remain" 450 (E.now eng);
  Alcotest.(check int) "daemon ticks up to the last live event" 4 !ticks

(* ---------------- pool and bucket unit tests ---------------- *)

(* A freed slot drops its closure and is the next one handed out, so a
   schedule/dispatch cycle reuses slots instead of growing the pool;
   the pool doubles only once every slot is held. *)
let test_pool_slot_reuse () =
  let p = Sim.Wheel.create_pool () in
  let a = Sim.Wheel.alloc_slot p in
  let b = Sim.Wheel.alloc_slot p in
  Alcotest.(check bool) "distinct slots" true (a <> b);
  let fn () = () in
  p.fns.(a) <- fn;
  Sim.Wheel.free_slot p a;
  Alcotest.(check bool) "closure dropped" true (p.fns.(a) != fn);
  Alcotest.(check int) "freed slot handed out next" a (Sim.Wheel.alloc_slot p);
  let cap = p.cap in
  for _ = 1 to 4 * cap do
    Sim.Wheel.free_slot p (Sim.Wheel.alloc_slot p)
  done;
  Alcotest.(check int) "churn keeps the pool's size" cap p.cap;
  let held = a :: b :: List.init (cap - 1) (fun _ -> Sim.Wheel.alloc_slot p) in
  Alcotest.(check int) "all held slots distinct" (cap + 1)
    (List.length (List.sort_uniq compare held));
  Alcotest.(check int) "pool doubled" (2 * cap) p.cap

(* [pop_bucket] detaches one instant at a time, linked in ascending
   sequence order; a level-1 event cascades down before it comes out. *)
let test_pop_bucket_batches () =
  let p = Sim.Wheel.create_pool () in
  let w = Sim.Wheel.create p in
  let seq = ref 0 in
  let add time =
    let s = Sim.Wheel.alloc_slot p in
    p.times.(s) <- time;
    p.seqs.(s) <- !seq;
    incr seq;
    Sim.Wheel.add w s
  in
  List.iter add [ 9; 7; 70_000; 7; 7 ];
  let rec chain s =
    if s < 0 then [] else (p.times.(s), p.seqs.(s)) :: chain p.nexts.(s)
  in
  let pop () =
    let t = Sim.Wheel.peek_time w in
    let batch = chain (Sim.Wheel.pop_bucket w) in
    (t, batch, Sim.Wheel.occupancy w)
  in
  Alcotest.(check int) "all held" 5 (Sim.Wheel.occupancy w);
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list (triple int (list (pair int int)) int)))
    "(peek, batch, occupancy) per pop"
    [
      (7, [ (7, 1); (7, 3); (7, 4) ], 2);
      (9, [ (9, 0) ], 1);
      (70_000, [ (70_000, 2) ], 0);
    ]
    [ first; second; third ];
  Alcotest.(check bool) "level-1 event cascaded" true
    (Sim.Wheel.cascades w > 0);
  Alcotest.(check int) "empty" (-1) (Sim.Wheel.pop_bucket w);
  Alcotest.(check int) "nothing to peek" max_int (Sim.Wheel.peek_time w)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_equiv_fifo;
    QCheck_alcotest.to_alcotest prop_equiv_shuffle;
    Alcotest.test_case "model detects injected ordering bug" `Quick
      test_detects_injected_ordering_bug;
    Alcotest.test_case "cascade and overflow boundaries" `Quick
      test_cascade_boundaries;
    Alcotest.test_case "same instant across cascade" `Quick
      test_same_instant_across_cascade;
    Alcotest.test_case "front heap after horizon peek" `Quick
      test_front_heap_after_horizon_peek;
    Alcotest.test_case "run_until_quiet with daemons" `Quick
      test_daemon_quiet_wheel;
    Alcotest.test_case "pool reuses freed slots" `Quick test_pool_slot_reuse;
    Alcotest.test_case "pop_bucket batches" `Quick test_pop_bucket_batches;
  ]
