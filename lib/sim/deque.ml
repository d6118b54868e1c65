(* A power-of-two ring: pushes at the back and pops at either end are
   index arithmetic, allocation-free once the ring has grown. A popped
   slot keeps its old element until a later push overwrites it. *)
type 'a t = {
  mutable arr : 'a array; (* capacity a power of two; [||] until used *)
  mutable head : int; (* index of the front element *)
  mutable n : int;
}

let create () = { arr = [||]; head = 0; n = 0 }

let is_empty d = d.n = 0

(* Make room for one more element; [x] fills the fresh slots. *)
let reserve d x =
  let cap = Array.length d.arr in
  if cap = 0 then d.arr <- Array.make 16 x
  else if d.n = cap then begin
    let b = Array.make (2 * cap) x in
    for i = 0 to d.n - 1 do
      b.(i) <- d.arr.((d.head + i) land (cap - 1))
    done;
    d.arr <- b;
    d.head <- 0
  end

let push_back d x =
  reserve d x;
  d.arr.((d.head + d.n) land (Array.length d.arr - 1)) <- x;
  d.n <- d.n + 1

let pop_front_exn d =
  if d.n = 0 then invalid_arg "Deque.pop_front_exn: empty";
  let x = d.arr.(d.head) in
  d.head <- (d.head + 1) land (Array.length d.arr - 1);
  d.n <- d.n - 1;
  x

let pop_back_exn d =
  if d.n = 0 then invalid_arg "Deque.pop_back_exn: empty";
  d.n <- d.n - 1;
  d.arr.((d.head + d.n) land (Array.length d.arr - 1))
