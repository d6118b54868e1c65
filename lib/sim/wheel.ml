(* Hierarchical timer wheel (Varghese-Lauck) over flat event slots.

   The engine's hot-path event representation is a structure-of-arrays
   pool: every event is an integer slot indexing parallel int arrays
   (time, tie key, sequence number, intrusive next link) plus a daemon
   flag array and one closure array. Scheduling and dispatching move
   integers between singly-linked bucket lists — zero words allocated
   in steady state.

   Geometry: three levels of 2^16 one-nanosecond-grained buckets.
   Level 0 spans 65 us of virtual time at single-instant resolution
   (one bucket = one nanosecond = one dispatch batch); level 1 buckets
   span 65 us each (4.3 s total); level 2 buckets span 4.3 s each
   (78 h total). Level 2 holds only events whose time differs from the
   cursor above bit 32, so its head array is allocated by the first
   [add] that reaches it: a run that never schedules across a 2^32 ns
   (4.3 s) boundary pays for two levels. Events beyond the 2^48 ns
   horizon spill into a small (time, tie, seq)-ordered heap that
   refills the wheel as the cursor approaches. An event placed at
   level l+1 cascades one level down when the cursor reaches its
   bucket's start — at most [levels - 1] extra touches per event, and
   none at all for the dominant sub-65 us scheduling distances of the
   simulated workloads.

   Placement uses the classic xor rule: an event at absolute time T
   goes to the level of the highest 16-bit chunk in which T differs
   from the cursor [wnow]. This guarantees that, at every level, any
   occupied bucket index is >= the cursor's index at that level (a
   smaller index would imply a carry into a higher chunk, which the
   rule would have sent one level up), so the per-level occupancy
   bitmaps only ever need scanning from the cursor towards the end.

   Ordering invariant: bucket lists are stored in prepend order.
   Direct schedules carry monotonically increasing sequence numbers,
   and a cascade re-places a bucket's events in ascending-seq order
   before any later (higher-seq) schedule can reach the same target
   window — so reversing a list at extraction always yields ascending
   seq, which is exactly FIFO dispatch order for same-instant events.
   The Shuffle tie-break re-sorts the extracted batch by (tie, seq)
   in the engine, so list order only has to be correct for Fifo.

   Events scheduled below the cursor ("front" events) exist only in
   one situation: [run ~until] peeked past the last dispatched batch
   (advancing [wnow] to the next event's instant), returned at the
   horizon, and the caller then scheduled into the gap. Those go to a
   small (time, tie, seq) heap consulted before the wheel; its
   entries are strictly earlier than every wheel event, so the two
   never interleave within an instant. *)

type pool = {
  mutable times : int array;
  mutable ties : int array;
  mutable seqs : int array;
  mutable nexts : int array;  (* free list and bucket chains share this *)
  mutable daemons : bool array;
  mutable fns : (unit -> unit) array;
  mutable free : int;  (* free-list head; -1 = exhausted *)
  mutable cap : int;
}

let dummy_fn = ignore

let create_pool () =
  {
    times = [||];
    ties = [||];
    seqs = [||];
    nexts = [||];
    daemons = [||];
    fns = [||];
    free = -1;
    cap = 0;
  }

let grow_pool p =
  let cap' = if p.cap = 0 then 1024 else p.cap * 2 in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 p.cap;
    a'
  in
  p.times <- extend p.times 0;
  p.ties <- extend p.ties 0;
  p.seqs <- extend p.seqs 0;
  p.nexts <- extend p.nexts (-1);
  p.daemons <- extend p.daemons false;
  p.fns <- extend p.fns dummy_fn;
  (* Chain the new slots so the free list pops ascending indices. *)
  for i = cap' - 1 downto p.cap do
    p.nexts.(i) <- p.free;
    p.free <- i
  done;
  p.cap <- cap'

let alloc_slot p =
  if p.free < 0 then grow_pool p;
  let s = p.free in
  p.free <- p.nexts.(s);
  s

(* Drop the closure so the GC can reclaim its environment. *)
let free_slot p s =
  p.fns.(s) <- dummy_fn;
  p.nexts.(s) <- p.free;
  p.free <- s

(* ------------------------------------------------------------------ *)

let bits = 16
let size = 1 lsl bits
let mask = size - 1
let levels = 3
let horizon_bits = bits * levels (* beyond this xor distance: overflow *)

(* Occupancy bitmaps use 32-bit words (OCaml ints are 63-bit; 32 keeps
   the de Bruijn ctz trick exact) with a second summary level so a scan
   over an empty wheel touches ~2x64 words, not 2048. *)
let words = size lsr 5
let sum_words = words lsr 5

let debruijn32 = 0x077CB531

let ctz_table =
  let t = Array.make 32 0 in
  for i = 0 to 31 do
    t.(((debruijn32 lsl i) land 0xFFFFFFFF) lsr 27) <- i
  done;
  t

(* Index of the lowest set bit of a non-zero 32-bit value. *)
let ctz v = ctz_table.((((v land -v) * debruijn32) land 0xFFFFFFFF) lsr 27)

type t = {
  pool : pool;
  heads : int array array;
      (* [levels][size] bucket list heads, -1 empty; level 2's is [||]
         until the first event placed there *)
  bitmaps : int array array;  (* [levels][words] 32-bit occupancy words *)
  summaries : int array array;  (* [levels][sum_words] word-occupancy *)
  mutable wnow : int;
      (* Cursor: <= every event in the wheel and overflow; > every event
         in the front heap. Advances to each extracted instant. *)
  overflow : int Heap.t;  (* out-of-horizon spills, (time,tie,seq) order *)
  front : int Heap.t;  (* below-cursor events, (time,tie,seq) order *)
  mutable occupancy : int;  (* events held (wheel + overflow + front) *)
  mutable cascades : int;  (* buckets cascaded down a level *)
  mutable spills : int;  (* events that ever hit the overflow heap *)
}

let slot_cmp pool a b =
  let ta = pool.times.(a) and tb = pool.times.(b) in
  if ta <> tb then if ta < tb then -1 else 1
  else
    let ka = pool.ties.(a) and kb = pool.ties.(b) in
    if ka <> kb then if ka < kb then -1 else 1
    else if pool.seqs.(a) < pool.seqs.(b) then -1
    else 1 (* seqs are unique: never equal *)

let create pool =
  {
    pool;
    heads =
      Array.init levels (fun l -> if l < 2 then Array.make size (-1) else [||]);
    bitmaps = Array.init levels (fun _ -> Array.make words 0);
    summaries = Array.init levels (fun _ -> Array.make sum_words 0);
    wnow = 0;
    overflow = Heap.create ~cmp:(slot_cmp pool) ();
    front = Heap.create ~cmp:(slot_cmp pool) ();
    occupancy = 0;
    cascades = 0;
    spills = 0;
  }

let occupancy w = w.occupancy
let cascades w = w.cascades
let spills w = w.spills

let set_bit w l idx =
  let wi = idx lsr 5 in
  w.bitmaps.(l).(wi) <- w.bitmaps.(l).(wi) lor (1 lsl (idx land 31));
  let si = wi lsr 5 in
  w.summaries.(l).(si) <- w.summaries.(l).(si) lor (1 lsl (wi land 31))

let clear_bit w l idx =
  let bm = w.bitmaps.(l) in
  let wi = idx lsr 5 in
  let v = bm.(wi) land lnot (1 lsl (idx land 31)) in
  bm.(wi) <- v;
  if v = 0 then begin
    let sm = w.summaries.(l) in
    let si = wi lsr 5 in
    sm.(si) <- sm.(si) land lnot (1 lsl (wi land 31))
  end

(* Hot-path functions below are written with top-level recursion and no
   tuple/variant returns: the steady-state schedule/dispatch cycle must
   allocate zero words, and inner [let rec] closures or constructed
   results would each cost a minor-heap block per event. *)

(* Scan summary words of [bm]/[sm] from word index [si*32 + bit]; -1 or
   the smallest set bucket index. *)
let rec scan_summary bm sm si bit =
  if si >= sum_words then -1
  else
    let sv = sm.(si) land (-1 lsl bit) land 0xFFFFFFFF in
    if sv = 0 then scan_summary bm sm (si + 1) 0
    else
      let wj = (si lsl 5) lor ctz sv in
      (* summaries are exact: bm.(wj) <> 0 here *)
      (wj lsl 5) lor ctz bm.(wj)

(* Smallest occupied bucket index >= [from] at level [l], or -1. The
   placement rule guarantees nothing lives below the cursor's index, so
   a forward scan is complete. *)
let find_next w l from =
  if from >= size then -1
  else begin
    let bm = w.bitmaps.(l) and sm = w.summaries.(l) in
    let wi = from lsr 5 in
    let m = bm.(wi) land (-1 lsl (from land 31)) in
    if m <> 0 then (wi lsl 5) lor ctz (m land 0xFFFFFFFF)
    else scan_summary bm sm ((wi + 1) lsr 5) ((wi + 1) land 31)
  end

let insert w l idx slot =
  let h = w.heads.(l) in
  w.pool.nexts.(slot) <- h.(idx);
  h.(idx) <- slot;
  if w.pool.nexts.(slot) < 0 then set_bit w l idx

(* Place [slot] by its absolute time. Requires the engine invariant
   time >= engine now; times below the cursor go to the front heap. *)
let add w slot =
  let time = w.pool.times.(slot) in
  if time < w.wnow then Heap.push w.front slot
  else begin
    let d = time lxor w.wnow in
    if d < 1 lsl bits then insert w 0 (time land mask) slot
    else if d < 1 lsl (2 * bits) then
      insert w 1 ((time lsr bits) land mask) slot
    else if d < 1 lsl horizon_bits then begin
      if Array.length w.heads.(2) = 0 then w.heads.(2) <- Array.make size (-1);
      insert w 2 ((time lsr (2 * bits)) land mask) slot
    end
    else begin
      Heap.push w.overflow slot;
      w.spills <- w.spills + 1
    end
  end;
  w.occupancy <- w.occupancy + 1

let take_bucket w l idx =
  let h = w.heads.(l).(idx) in
  w.heads.(l).(idx) <- -1;
  clear_bit w l idx;
  h

(* In-place reversal: prepend-order list -> ascending-seq list. Counts
   the detached nodes out of [occupancy] as it goes (every caller is
   removing them from the wheel). *)
let reverse_list w head =
  let pool = w.pool in
  let prev = ref (-1) in
  let cur = ref head in
  while !cur >= 0 do
    let nx = pool.nexts.(!cur) in
    pool.nexts.(!cur) <- !prev;
    prev := !cur;
    cur := nx;
    w.occupancy <- w.occupancy - 1
  done;
  !prev

(* Pull overflow events that now fit under the wheel horizon. Uses the
   same xor criterion as [add] so a pulled event can never bounce back. *)
let rec drain_overflow w =
  if not (Heap.is_empty w.overflow) then begin
    let s = Heap.peek_exn w.overflow in
    if w.pool.times.(s) lxor w.wnow < 1 lsl horizon_bits then begin
      ignore (Heap.pop_exn w.overflow);
      w.occupancy <- w.occupancy - 1;
      add w s;
      drain_overflow w
    end
  end

(* Move bucket (l, idx) starting at absolute time [base] down one level.
   Advancing the cursor to [base] first is safe — the bucket was chosen
   as the earliest occupied position, so no event lives before [base] —
   and makes the xor re-placement land each event at the right lower
   level. Re-adding in ascending-seq order keeps every target bucket in
   prepend order. *)
let cascade w l idx base =
  w.wnow <- base;
  let head = reverse_list w (take_bucket w l idx) in
  let cur = ref head in
  while !cur >= 0 do
    let nx = w.pool.nexts.(!cur) in
    add w !cur;
    cur := nx
  done;
  w.cascades <- w.cascades + 1

(* Resolve the earliest pending instant, cascading upper-level buckets
   and refilling from overflow as needed. Int-coded result (the variant
   a clean API would return is a minor-heap block per dispatch):
   [front_code] = front heap non-empty (its events predate everything
   in the wheel), [max_int] = nothing pending, any other value = the
   instant, with the cursor advanced to it and its bucket at level 0. *)
let front_code = -1

let rec settle w =
  if not (Heap.is_empty w.front) then front_code
  else begin
    drain_overflow w;
    let i0 = find_next w 0 (w.wnow land mask) in
    if i0 >= 0 then begin
      let instant = w.wnow land lnot mask lor i0 in
      w.wnow <- instant;
      instant
    end
    else begin
      let i1 = find_next w 1 ((w.wnow lsr bits) land mask) in
      if i1 >= 0 then begin
        let base = w.wnow land lnot ((1 lsl (2 * bits)) - 1) lor (i1 lsl bits) in
        cascade w 1 i1 base;
        settle w
      end
      else begin
        let i2 = find_next w 2 ((w.wnow lsr (2 * bits)) land mask) in
        if i2 >= 0 then begin
          let base =
            w.wnow land lnot ((1 lsl horizon_bits) - 1) lor (i2 lsl (2 * bits))
          in
          cascade w 2 i2 base;
          settle w
        end
        else if not (Heap.is_empty w.overflow) then begin
          (* Wheel empty: jump the cursor to the overflow minimum (no
             event precedes it) and let the horizon check pull it in. *)
          w.wnow <- w.pool.times.(Heap.peek_exn w.overflow);
          drain_overflow w;
          settle w
        end
        else max_int
      end
    end
  end

(* Earliest pending event time, or max_int. May cascade and advance the
   cursor (observably pure: placement and dispatch order are unchanged). *)
let peek_time w =
  let r = settle w in
  if r = front_code then w.pool.times.(Heap.peek_exn w.front) else r

(* Detach the earliest same-instant event list, ascending-seq-linked via
   [nexts]; -1 when nothing is pending. Advances the cursor to the
   extracted instant (wheel case). *)
let pop_bucket w =
  let r = settle w in
  if r = max_int then -1
  else if r <> front_code then reverse_list w (take_bucket w 0 (r land mask))
  else begin
      (* Pops come out in (time, tie, seq) order; collect the equal-time
         prefix. For Fifo (all ties 0) that is ascending seq; Shuffle
         batches are re-sorted by the engine anyway. *)
      let t0 = w.pool.times.(Heap.peek_exn w.front) in
      let head = Heap.pop_exn w.front in
      w.occupancy <- w.occupancy - 1;
      let tail = ref head in
      let continue = ref true in
      while !continue do
        if Heap.is_empty w.front then continue := false
        else begin
          let s = Heap.peek_exn w.front in
          if w.pool.times.(s) <> t0 then continue := false
          else begin
            ignore (Heap.pop_exn w.front);
            w.occupancy <- w.occupancy - 1;
            w.pool.nexts.(!tail) <- s;
            tail := s
          end
        end
      done;
      w.pool.nexts.(!tail) <- -1;
      head
  end
