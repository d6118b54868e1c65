type tiebreak = Fifo | Shuffle of int

(* Events live in the flat structure-of-arrays pool owned by [Wheel].
   Scheduling and dispatching shuffle integers between the pool, the
   timer wheel and the batch array — zero words allocated in steady
   state (closures aside, which the caller allocates anyway). *)
type t = {
  pool : Wheel.pool;
  mutable now : int;
  mutable next_seq : int;
  mutable stop_requested : bool;
  mutable executed : int;
  mutable busy : int; (* queued non-daemon events *)
  mutable waiters : int; (* suspended processes (condition waits) *)
  tiebreak : tiebreak;
  queue : Wheel.t;
  rng : Rng.t;
  mutable prof : Prof.t;
  mutable observer : (time:int -> unit) option;
  tap : Trace.Tap.t;
  (* Wheel dispatch batch: the same-instant event list currently being
     executed, as slot indices. [batch_pos < batch_len] means active;
     entries before [batch_pos] are already dispatched (stale). *)
  mutable batch : int array;
  mutable scratch : int array; (* merge-sort spare, grown with batch *)
  mutable batch_len : int;
  mutable batch_pos : int;
  mutable batch_time : int;
}

(* Test hook: skip the Shuffle batch sort, re-introducing the ordering
   bug the QCheck model suite must catch. Never set outside that test. *)
let debug_no_batch_sort = ref false

(* splitmix64 finalizer: good avalanche, so (seed, time, seq) triples map to
   effectively independent tie keys. Inlined so the Int64 stays unboxed:
   a call would box its argument and result on every Shuffle schedule. *)
let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* With [Fifo] every event gets the same key, so comparison falls through to
   [seq]: exact scheduling order, the historical behaviour. With [Shuffle]
   same-instant events get pseudo-random relative order, deterministic in
   (shuffle seed, time, seq) — a perturbed but replayable serialization of
   logically concurrent events. *)
let tie_key policy ~time ~seq =
  match policy with
  | Fifo -> 0
  | Shuffle seed ->
      let h =
        let open Int64 in
        mix64
          (add
             (mul (of_int time) 0x9e3779b97f4a7c15L)
             (add (mul (of_int seq) 0xd1b54a32d192ed03L) (of_int seed)))
      in
      Int64.to_int h land max_int

let create ?(seed = 42) ?(tiebreak = Fifo) () =
  let pool = Wheel.create_pool () in
  {
    pool;
    now = 0;
    next_seq = 0;
    stop_requested = false;
    executed = 0;
    busy = 0;
    waiters = 0;
    tiebreak;
    queue = Wheel.create pool;
    rng = Rng.create ~seed;
    prof = Prof.null;
    observer = None;
    tap = Trace.Tap.create ();
    batch = [||];
    scratch = [||];
    batch_len = 0;
    batch_pos = 0;
    batch_time = 0;
  }

let now t = t.now
let rng t = t.rng
let tiebreak t = t.tiebreak
let set_prof t prof = t.prof <- prof
let set_observer t obs = t.observer <- obs
let tap t = t.tap

let batch_active t = t.batch_pos < t.batch_len

let grow_batch t n =
  let cap = max n (max 64 (2 * Array.length t.batch)) in
  let b = Array.make cap 0 in
  Array.blit t.batch 0 b 0 t.batch_len;
  t.batch <- b

(* "a dispatches before b" among same-instant events: (tie, seq)
   ascending. Total because seqs are unique. *)
let slot_before p a b =
  let ka = p.Wheel.ties.(a) and kb = p.Wheel.ties.(b) in
  if ka <> kb then ka < kb else p.Wheel.seqs.(a) < p.Wheel.seqs.(b)

(* Bottom-up merge sort of batch.(0..n-1) by (tie, seq), allocation-free
   once [scratch] has grown to match the batch array. The extracted
   bucket list is already seq-sorted, so Fifo batches skip this. *)
let sort_batch t n =
  let p = t.pool in
  if Array.length t.scratch < n then t.scratch <- Array.make (Array.length t.batch) 0;
  let src = ref t.batch and dst = ref t.scratch in
  let width = ref 1 in
  while !width < n do
    let i = ref 0 in
    while !i < n do
      let lo = !i in
      let mid = min (lo + !width) n in
      let hi = min (lo + (2 * !width)) n in
      let a = ref lo and b = ref mid and k = ref lo in
      while !a < mid && !b < hi do
        if slot_before p !src.(!a) !src.(!b) then begin
          !dst.(!k) <- !src.(!a);
          incr a
        end
        else begin
          !dst.(!k) <- !src.(!b);
          incr b
        end;
        incr k
      done;
      while !a < mid do
        !dst.(!k) <- !src.(!a);
        incr a;
        incr k
      done;
      while !b < hi do
        !dst.(!k) <- !src.(!b);
        incr b;
        incr k
      done;
      i := hi
    done;
    let tmp = !src in
    src := !dst;
    dst := tmp;
    width := 2 * !width
  done;
  if !src != t.batch then Array.blit !src 0 t.batch 0 n

(* A schedule landing on the instant currently being dispatched must
   join the active batch in global (time, tie, seq) order: after every
   already-run event, ordered by (tie, seq) among the rest.
   Under Fifo the new event has the highest seq, so that is the end;
   under Shuffle its random tie key places it anywhere in the
   undispatched suffix — binary search + shift. *)
let batch_insert t s =
  if t.batch_len >= Array.length t.batch then grow_batch t (t.batch_len + 1);
  (match t.tiebreak with
  | Shuffle _ when not !debug_no_batch_sort ->
      let lo = ref t.batch_pos and hi = ref t.batch_len in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if slot_before t.pool t.batch.(mid) s then lo := mid + 1 else hi := mid
      done;
      Array.blit t.batch !lo t.batch (!lo + 1) (t.batch_len - !lo);
      t.batch.(!lo) <- s
  | _ -> t.batch.(t.batch_len) <- s);
  t.batch_len <- t.batch_len + 1

let schedule_at ?(daemon = false) t ~time fn =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is in the past (now %d)"
         time t.now);
  Prof.enter t.prof ~cpu:(-1) Prof.Span.Engine_schedule;
  let p = t.pool in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let s = Wheel.alloc_slot p in
  p.Wheel.times.(s) <- time;
  p.Wheel.ties.(s) <- tie_key t.tiebreak ~time ~seq;
  p.Wheel.seqs.(s) <- seq;
  p.Wheel.daemons.(s) <- daemon;
  p.Wheel.fns.(s) <- fn;
  if not daemon then t.busy <- t.busy + 1;
  if batch_active t && time = t.batch_time then batch_insert t s
  else Wheel.add t.queue s;
  Prof.exit t.prof Prof.Span.Engine_schedule

let schedule ?daemon t ~after fn =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at ?daemon t ~time:(t.now + after) fn

let incr_waiters t = t.waiters <- t.waiters + 1
let decr_waiters t = t.waiters <- t.waiters - 1

let stop t = t.stop_requested <- true
let stopped t = t.stop_requested
let executed t = t.executed

let wheel_occupancy t = Wheel.occupancy t.queue
let pending t = Wheel.occupancy t.queue + (t.batch_len - t.batch_pos)
let cascades t = Wheel.cascades t.queue
let spills t = Wheel.spills t.queue

let exec_slot t s =
  let p = t.pool in
  let time = p.Wheel.times.(s) in
  let daemon = p.Wheel.daemons.(s) in
  let fn = p.Wheel.fns.(s) in
  (* Free before running: the handler often re-schedules (ticks,
     reschedule loops) and can then recycle this very slot. *)
  Wheel.free_slot p s;
  t.now <- time;
  if not daemon then t.busy <- t.busy - 1;
  t.executed <- t.executed + 1;
  Prof.enter t.prof ~cpu:(-1) Prof.Span.Engine_dispatch;
  fn ();
  Prof.exit t.prof Prof.Span.Engine_dispatch;
  (* Observation only, after the event ran: the observer consumes no
     seq numbers and schedules nothing, so a run with one installed is
     event-for-event identical to a run without. *)
  match t.observer with None -> () | Some f -> f ~time

(* Run the next slot of the active batch. *)
let exec_next t =
  let s = t.batch.(t.batch_pos) in
  t.batch_pos <- t.batch_pos + 1;
  exec_slot t s

(* Extract the next same-instant bucket into the batch array and apply
   the Shuffle tie-break sort. Returns false when nothing is pending at
   or before [horizon]. A false return leaves the queue untouched: the
   horizon peek happens before any extraction, so a bucket is never
   half-dispatched across [run] boundaries with different horizons. *)
let load_batch t ~horizon =
  let w = t.queue in
  Prof.enter t.prof ~cpu:(-1) Prof.Span.Engine_wheel_advance;
  let tnext = Wheel.peek_time w in
  Prof.exit t.prof Prof.Span.Engine_wheel_advance;
  (* [tnext = max_int] is the empty queue; the explicit test matters
     when [horizon] is itself max_int. *)
  if tnext = max_int || tnext > horizon then false
  else begin
    Prof.enter t.prof ~cpu:(-1) Prof.Span.Engine_bucket_drain;
    let p = t.pool in
    t.batch_pos <- 0;
    t.batch_len <- 0;
    t.batch_time <- tnext;
    let cur = ref (Wheel.pop_bucket w) in
    while !cur >= 0 do
      if t.batch_len >= Array.length t.batch then grow_batch t (t.batch_len + 1);
      t.batch.(t.batch_len) <- !cur;
      t.batch_len <- t.batch_len + 1;
      cur := p.Wheel.nexts.(!cur)
    done;
    (match t.tiebreak with
    | Shuffle _ when t.batch_len > 1 && not !debug_no_batch_sort ->
        sort_batch t t.batch_len
    | _ -> ());
    Prof.exit t.prof Prof.Span.Engine_bucket_drain;
    true
  end

(* Dispatch loop. [quiet] is the run_until_quiet condition: stop once
   no non-daemon work remains. A batch still active on entry (a run
   nested in an event) resumes first; its instant may postdate a
   shorter new horizon, in which case it stays queued untouched. *)
let dispatch t ~horizon ~quiet =
  let running = ref true in
  while !running do
    if t.stop_requested || (quiet && t.busy + t.waiters = 0) then
      running := false
    else if batch_active t then begin
      if t.batch_time > horizon then running := false else exec_next t
    end
    else if not (load_batch t ~horizon) then running := false
  done

let run ?until t =
  let horizon = match until with None -> max_int | Some u -> u in
  dispatch t ~horizon ~quiet:false;
  match until with
  | Some u when (not t.stop_requested) && u > t.now -> t.now <- u
  | _ -> ()

let run_until_quiet ?(horizon = max_int) t = dispatch t ~horizon ~quiet:true

let every t ~period ?phase fn =
  if period <= 0 then invalid_arg "Engine.every: period must be positive";
  let first = match phase with None -> period | Some p -> p in
  let rec tick () =
    if (not (stopped t)) && fn () then schedule ~daemon:true t ~after:period tick
  in
  schedule ~daemon:true t ~after:first tick
