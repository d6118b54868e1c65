type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp () = { cmp; data = [||]; size = 0 }

let is_empty h = h.size = 0

let grow h x =
  let capacity = Array.length h.data in
  if h.size = capacity then begin
    let cap' = if capacity = 0 then 16 else capacity * 2 in
    let data' = Array.make cap' x in
    Array.blit h.data 0 data' 0 h.size;
    h.data <- data'
  end

(* 4-ary: half the levels of a binary heap, and the four children sit in
   adjacent slots, so a sift touches fewer cache lines. Pop order is
   unaffected — any d-ary heap pops elements in [cmp] order. *)
let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 4 in
    if h.cmp h.data.(i) h.data.(parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let first = (4 * i) + 1 in
  if first < h.size then begin
    let last = min (first + 3) (h.size - 1) in
    let smallest = ref i in
    for j = first to last do
      if h.cmp h.data.(j) h.data.(!smallest) < 0 then smallest := j
    done;
    if !smallest <> i then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(!smallest);
      h.data.(!smallest) <- tmp;
      sift_down h !smallest
    end
  end

let push h x =
  grow h x;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek_exn h =
  if h.size = 0 then invalid_arg "Heap.peek_exn: empty heap"
  else h.data.(0)

(* The engine pops one event per simulated step; keep this path free of
   an option box. *)
let pop_exn h =
  if h.size = 0 then invalid_arg "Heap.pop_exn: empty heap"
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    (* Drop the stale slot so the GC can reclaim the element. *)
    h.data.(h.size) <- top;
    top
  end
