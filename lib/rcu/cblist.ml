(* Two rings, oldest first. The entry ring holds each callback's int
   payload, oldest at [head]. The segment ring holds runs of consecutive
   entries enqueued with the same cookie and the same ([==]) callback,
   oldest at [seg_head]: each segment's cookie and length sit at
   [2 * i] and [2 * i + 1] in [segs], its callback at [i] in [fns]. The
   first [seg_done] segments are invocable, and hold the first [done_n]
   entries from [head]; the rest wait for their grace period. So
   [advance] moves whole segments across the boundary, [drain] takes
   entries off the head segment and pops it when it empties, and
   [enqueue] lengthens the newest segment while it still waits. Each
   capacity is zero or a power of two and doubles when a push finds its
   ring full; nothing else allocates. *)

type 'c t = {
  mutable args : int array;
  mutable head : int;
  mutable count : int;
  mutable done_n : int;
  mutable segs : int array;
  mutable fns : ('c -> int -> unit) array;
  mutable seg_head : int;
  mutable seg_count : int;
  mutable seg_done : int;
  mutable last_cookie : int;
}

(* A popped segment's slot is overwritten with this, so the ring does not
   keep a callback's closure (and what it captures) alive. *)
let noop _ _ = ()

let create () =
  {
    args = [||];
    head = 0;
    count = 0;
    done_n = 0;
    segs = [||];
    fns = [||];
    seg_head = 0;
    seg_count = 0;
    seg_done = 0;
    last_cookie = min_int;
  }

(* The first entry ring holds 16 payloads. The first segment ring holds
   256 segments: its 512-int [segs] array is made in the major heap, and
   a backlog of a few hundred grace periods (SLUB's under Fig. 3's
   throttled invocation) does not grow it through the minor heap, as a
   4-segment first ring did, at more minor words per op than the flat
   ring cost. *)
let first_entries = 16
let first_segments = 256

(* Lay the entries out again from index 0 in a ring twice the size. *)
let grow_entries t =
  let cap = Array.length t.args in
  let args = Array.make (if cap = 0 then first_entries else 2 * cap) 0 in
  for k = 0 to t.count - 1 do
    args.(k) <- t.args.((t.head + k) land (cap - 1))
  done;
  t.args <- args;
  t.head <- 0

(* The same for the segments. *)
let grow_segments t =
  let cap = Array.length t.fns in
  let cap' = if cap = 0 then first_segments else 2 * cap in
  let segs = Array.make (2 * cap') 0 and fns = Array.make cap' noop in
  for k = 0 to t.seg_count - 1 do
    let i = (t.seg_head + k) land (cap - 1) in
    segs.(2 * k) <- t.segs.(2 * i);
    segs.((2 * k) + 1) <- t.segs.((2 * i) + 1);
    fns.(k) <- t.fns.(i)
  done;
  t.segs <- segs;
  t.fns <- fns;
  t.seg_head <- 0

let enqueue t ~cookie fn arg =
  assert (cookie >= t.last_cookie);
  t.last_cookie <- cookie;
  if t.count = Array.length t.args then grow_entries t;
  t.args.((t.head + t.count) land (Array.length t.args - 1)) <- arg;
  t.count <- t.count + 1;
  let last = (t.seg_head + t.seg_count - 1) land (Array.length t.fns - 1) in
  if
    t.seg_count > t.seg_done
    && t.segs.(2 * last) = cookie
    && t.fns.(last) == fn
  then t.segs.((2 * last) + 1) <- t.segs.((2 * last) + 1) + 1
  else begin
    if t.seg_count = Array.length t.fns then grow_segments t;
    let i = (t.seg_head + t.seg_count) land (Array.length t.fns - 1) in
    t.segs.(2 * i) <- cookie;
    t.segs.((2 * i) + 1) <- 1;
    t.fns.(i) <- fn;
    t.seg_count <- t.seg_count + 1
  end

let advance t ~completed =
  let mask = Array.length t.fns - 1 in
  let before = t.done_n in
  while
    t.seg_done < t.seg_count
    && t.segs.(2 * ((t.seg_head + t.seg_done) land mask)) <= completed
  do
    let i = (t.seg_head + t.seg_done) land mask in
    t.done_n <- t.done_n + t.segs.((2 * i) + 1);
    t.seg_done <- t.seg_done + 1
  done;
  t.done_n - before

let drain t ~max x =
  (* Fix the batch upfront: callbacks that become ready while the batch
     runs wait for the next pass. Each entry, and its segment once empty,
     is released before its callback runs, because the callback may
     enqueue and so grow (re-lay) either ring. *)
  let n = if max < t.done_n then max else t.done_n in
  for _ = 1 to n do
    let s = t.seg_head in
    let fn = t.fns.(s) and arg = t.args.(t.head) in
    t.head <- (t.head + 1) land (Array.length t.args - 1);
    t.count <- t.count - 1;
    t.done_n <- t.done_n - 1;
    let left = t.segs.((2 * s) + 1) - 1 in
    if left > 0 then t.segs.((2 * s) + 1) <- left
    else begin
      t.fns.(s) <- noop;
      t.seg_head <- (s + 1) land (Array.length t.fns - 1);
      t.seg_count <- t.seg_count - 1;
      t.seg_done <- t.seg_done - 1
    end;
    fn x arg
  done;
  n

let waiting t = t.count - t.done_n
let ready t = t.done_n
let total t = t.count
