type 'a t = {
  buf : 'a option array;
  capacity : int;
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { buf = Array.make capacity None; capacity; head = 0; len = 0; dropped = 0 }

let length t = t.len
let dropped t = t.dropped

let push t x =
  if t.len < t.capacity then begin
    t.buf.((t.head + t.len) mod t.capacity) <- Some x;
    t.len <- t.len + 1
  end
  else begin
    (* Full: overwrite the oldest element. *)
    t.buf.(t.head) <- Some x;
    t.head <- (t.head + 1) mod t.capacity;
    t.dropped <- t.dropped + 1
  end

let iter t f =
  for i = 0 to t.len - 1 do
    match t.buf.((t.head + i) mod t.capacity) with
    | Some x -> f x
    | None -> assert false
  done

let iter_rev t f =
  for i = t.len - 1 downto 0 do
    match t.buf.((t.head + i) mod t.capacity) with
    | Some x -> f x
    | None -> assert false
  done

let to_list t =
  let acc = ref [] in
  iter t (fun x -> acc := x :: !acc);
  List.rev !acc

let recent t n =
  let n = min (max n 0) t.len in
  let acc = ref [] in
  for i = t.len - 1 downto t.len - n do
    match t.buf.((t.head + i) mod t.capacity) with
    | Some x -> acc := x :: !acc
    | None -> assert false
  done;
  !acc

let clear t =
  Array.fill t.buf 0 t.capacity None;
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0
