type tiebreak = Fifo | Shuffle of int

(* Events are int slots of a flat pool holding, per slot, the event's
   sequence number, daemon flag and closure. A 4-ary min-heap orders
   the pending events, and holds, per heap position, the event's time,
   its order key and its slot. The key is the seq under Fifo and the
   tie key under Shuffle, where the slots' seqs break the (rare) equal
   keys, so the heap pops in (time, tie, seq) order under both, and a
   comparison reads only the heap's arrays until times and keys tie.
   [slots] holds every slot once: positions below [size] are the heap,
   the rest the free slots. A schedule takes the free slot at
   [slots.(size)]; a pop leaves its slot at the new [slots.(size)], so
   the next schedule reuses it. Nothing is allocated in steady state
   (closures aside, which the caller allocates anyway). *)
type t = {
  mutable seqs : int array;
  mutable daemons : bool array;
      (* housekeeping events that do not keep the engine busy *)
  mutable fns : (unit -> unit) array;
  mutable times : int array;  (* by heap position *)
  mutable keys : int array;  (* by heap position *)
  mutable slots : int array;  (* by heap position, then the free slots *)
  mutable size : int;  (* pending events *)
  mutable now : int;
  mutable next_seq : int;
  mutable stop_requested : bool;
  mutable executed : int;
  mutable busy : int; (* queued non-daemon events *)
  mutable waiters : int; (* suspended processes (condition waits) *)
  tiebreak : tiebreak;
  rng : Rng.t;
  mutable prof : Prof.t;
  mutable observer : (time:int -> unit) option;
  tap : Trace.Tap.t;
}

(* Test hook: under Shuffle, give every event the key 0, so the heap
   orders same-instant events by seq alone and Shuffle runs them in
   Fifo order: the ordering bug the QCheck model suite must catch.
   Never set outside that test. *)
let debug_drop_tie_key = ref false

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

(* The pool's and the heap's first size. The measured workloads hold a
   few dozen to a few hundred pending events (225 at most), so they
   never grow it. *)
let first_slots = 1024

let create ?(seed = 42) ?(tiebreak = Fifo) () =
  {
    seqs = Array.make first_slots 0;
    daemons = Array.make first_slots false;
    fns = Array.make first_slots ignore;
    times = Array.make first_slots 0;
    keys = Array.make first_slots 0;
    slots = Array.init first_slots Fun.id;
    size = 0;
    now = 0;
    next_seq = 0;
    stop_requested = false;
    executed = 0;
    busy = 0;
    waiters = 0;
    tiebreak;
    rng = Rng.create ~seed;
    prof = Prof.null;
    observer = None;
    tap = Trace.Tap.create ();
  }

let now t = t.now
let rng t = t.rng
let tiebreak t = t.tiebreak
let set_prof t prof = t.prof <- prof
let set_observer t obs = t.observer <- obs
let tap t = t.tap

(* Double every array; the new slots join the free side of [slots].
   Called only when every slot is pending. *)
let grow t =
  let cap = Array.length t.slots in
  let extend a fill =
    let a' = Array.make (2 * cap) fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.seqs <- extend t.seqs 0;
  t.daemons <- extend t.daemons false;
  t.fns <- extend t.fns ignore;
  t.times <- extend t.times 0;
  t.keys <- extend t.keys 0;
  let slots = extend t.slots 0 in
  for s = cap to (2 * cap) - 1 do
    slots.(s) <- s
  done;
  t.slots <- slots

(* Unchecked accesses for the heap's hot path: heap positions are below
   [size], and slots and positions below the arrays' common length,
   which only [grow] changes. The annotations keep every access and
   comparison an int one. *)
let[@inline] get (a : int array) i = Array.unsafe_get a i
let[@inline] set (a : int array) i (v : int) = Array.unsafe_set a i v

(* Event (ta, ka, sa) pops before event (tb, kb, sb). Total because
   seqs are unique. *)
let[@inline] before t (ta : int) (ka : int) sa (tb : int) (kb : int) sb =
  if ta <> tb then ta < tb
  else if ka <> kb then ka < kb
  else get t.seqs sa < get t.seqs sb

let[@inline] put t i time key s =
  set t.times i time;
  set t.keys i key;
  set t.slots i s

(* Hot-path functions below use top-level recursion: an inner
   [let rec] closure would cost a minor-heap block per event. *)

(* Move the hole at heap position [i] up until event (time, key, s)
   fits there. *)
let rec sift_up t i time key s =
  if i = 0 then put t 0 time key s
  else
    let p = (i - 1) lsr 2 in
    let pt = get t.times p and pk = get t.keys p and ps = get t.slots p in
    if before t time key s pt pk ps then begin
      put t i pt pk ps;
      sift_up t p time key s
    end
    else put t i time key s

(* Move the hole at heap position [i] of a heap of [n] down along the
   earliest children to a leaf, then fill it with event (time, key, s)
   sifted up from there. A pop fills it with the heap's last event,
   which is late, so it seldom moves up again: this saves the
   comparison per level against it that a plain sift-down makes. *)
let rec sift_down t i n time key s =
  let first = (4 * i) + 1 in
  if first >= n then sift_up t i time key s
  else begin
    let m = ref first in
    for j = first + 1 to if first + 3 < n then first + 3 else n - 1 do
      let b = !m in
      if
        before t (get t.times j) (get t.keys j) (get t.slots j)
          (get t.times b) (get t.keys b) (get t.slots b)
      then m := j
    done;
    let m = !m in
    put t i (get t.times m) (get t.keys m) (get t.slots m);
    sift_down t m n time key s
  end

let schedule_at ?(daemon = false) t ~time fn =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is in the past (now %d)"
         time t.now);
  Prof.enter t.prof ~cpu:(-1) Prof.Span.Engine_schedule;
  if t.size = Array.length t.slots then grow t;
  let i = t.size in
  let s = get t.slots i in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let key =
    match t.tiebreak with
    | Fifo -> seq
    | Shuffle _ when !debug_drop_tie_key -> 0
    | Shuffle _ -> tie_key t.tiebreak ~time ~seq
  in
  set t.seqs s seq;
  t.daemons.(s) <- daemon;
  t.fns.(s) <- fn;
  if not daemon then t.busy <- t.busy + 1;
  t.size <- i + 1;
  sift_up t i time key s;
  Prof.exit t.prof Prof.Span.Engine_schedule

let schedule ?daemon t ~after fn =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at ?daemon t ~time:(t.now + after) fn

let incr_waiters t = t.waiters <- t.waiters + 1
let decr_waiters t = t.waiters <- t.waiters - 1

let stop t = t.stop_requested <- true
let stopped t = t.stop_requested
let executed t = t.executed
let pending t = t.size
let cascades _ = 0

(* Pop the earliest event and run it. Its slot goes to the free side
   before the handler runs, so a schedule from the handler reuses it. *)
let exec_next t =
  Prof.enter t.prof ~cpu:(-1) Prof.Span.Engine_pop;
  let s = get t.slots 0 and time = get t.times 0 in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let last_time = get t.times n and last_key = get t.keys n in
    let last = get t.slots n in
    set t.slots n s;
    sift_down t 0 n last_time last_key last
  end;
  Prof.exit t.prof Prof.Span.Engine_pop;
  let fn = t.fns.(s) in
  (* Drop the closure so the GC can reclaim its environment. *)
  t.fns.(s) <- ignore;
  t.now <- time;
  if not t.daemons.(s) then t.busy <- t.busy - 1;
  t.executed <- t.executed + 1;
  Prof.enter t.prof ~cpu:(-1) Prof.Span.Engine_dispatch;
  fn ();
  Prof.exit t.prof Prof.Span.Engine_dispatch;
  (* Observation only, after the event ran: the observer consumes no
     seq numbers and schedules nothing, so a run with one installed is
     event-for-event identical to a run without. *)
  match t.observer with None -> () | Some f -> f ~time

(* Dispatch loop. [quiet] is the run_until_quiet condition: stop once
   no non-daemon work remains. An event past [horizon] stays queued
   untouched, so a run nested in an event with a shorter horizon
   leaves the outer run's events in place. *)
let dispatch t ~horizon ~quiet =
  while
    not
      (t.stop_requested
      || (quiet && t.busy + t.waiters = 0)
      || t.size = 0
      || get t.times 0 > horizon)
  do
    exec_next t
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
