(* One flat ring: the callbacks and their cookies sit in two parallel
   arrays, oldest at [head]. The first [done_n] entries from [head] are
   invocable, the rest of the [count] wait for their grace period, so
   [advance] only moves the boundary and [drain] only moves [head]. The
   capacity is zero or a power of two and doubles when a push finds the
   ring full; nothing else allocates. *)

type t = {
  mutable cookies : int array;
  mutable fns : (unit -> unit) array;
  mutable head : int;
  mutable count : int;
  mutable done_n : int;
  mutable last_cookie : int;
}

(* Drained slots are overwritten with this, so the ring does not keep a
   callback's closure (and what it captures) alive. *)
let noop () = ()

let create () =
  {
    cookies = [||];
    fns = [||];
    head = 0;
    count = 0;
    done_n = 0;
    last_cookie = min_int;
  }

(* Lay the entries out again from index 0 in a ring twice the size. *)
let grow t =
  let cap = Array.length t.fns in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let cookies = Array.make cap' 0 and fns = Array.make cap' noop in
  for k = 0 to t.count - 1 do
    let i = (t.head + k) land (cap - 1) in
    cookies.(k) <- t.cookies.(i);
    fns.(k) <- t.fns.(i)
  done;
  t.cookies <- cookies;
  t.fns <- fns;
  t.head <- 0

let enqueue t ~cookie fn =
  assert (cookie >= t.last_cookie);
  t.last_cookie <- cookie;
  if t.count = Array.length t.fns then grow t;
  let i = (t.head + t.count) land (Array.length t.fns - 1) in
  t.cookies.(i) <- cookie;
  t.fns.(i) <- fn;
  t.count <- t.count + 1

let advance t ~completed =
  let mask = Array.length t.cookies - 1 in
  let before = t.done_n in
  while
    t.done_n < t.count && t.cookies.((t.head + t.done_n) land mask) <= completed
  do
    t.done_n <- t.done_n + 1
  done;
  t.done_n - before

let drain t ~max ~f =
  (* Fix the batch upfront: callbacks that become ready while the batch
     runs wait for the next pass. Each slot is released before [f] runs,
     because [f] may enqueue and so grow (re-lay) the ring. *)
  let n = if max < t.done_n then max else t.done_n in
  for _ = 1 to n do
    let i = t.head in
    let fn = t.fns.(i) in
    t.fns.(i) <- noop;
    t.head <- (i + 1) land (Array.length t.fns - 1);
    t.count <- t.count - 1;
    t.done_n <- t.done_n - 1;
    f fn
  done;
  n

let waiting t = t.count - t.done_n
let ready t = t.done_n
let total t = t.count

let next_cookie t =
  if t.count = t.done_n then None
  else
    Some t.cookies.((t.head + t.done_n) land (Array.length t.cookies - 1))
