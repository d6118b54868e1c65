(* Log-bucketed (HDR-style) histogram of non-negative integers: 16
   sub-buckets per power-of-two octave, so any recorded value lands in a
   bucket whose width is at most 1/16 of its lower bound (values < 32 are
   exact). Memory is a fixed small array; record is O(1). *)

let sub_bits = 4
let sub_count = 1 lsl sub_bits (* 16 *)

(* msb positions 4..62 each contribute [sub_count] buckets on top of the 32
   exact buckets for values < 32. *)
let nbuckets = sub_count * 60

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  {
    buckets = Array.make nbuckets 0;
    count = 0;
    sum = 0;
    min_v = max_int;
    max_v = 0;
  }

let msb v =
  (* Position of the most significant set bit; v > 0. *)
  let rec go v acc = if v = 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let index_of v =
  if v < 2 * sub_count then v
  else
    let g = msb v in
    let sub = v lsr (g - sub_bits) in
    min (nbuckets - 1) ((sub_count * (g - sub_bits + 1)) + sub - sub_count)

(* Lower bound of bucket [i]; the bucket covers [low, high). *)
let bounds_of_index i =
  if i < 2 * sub_count then (i, i + 1)
  else
    let g = (i / sub_count) + sub_bits - 1 in
    let sub = (i mod sub_count) + sub_count in
    let low = sub lsl (g - sub_bits) in
    (low, low + (1 lsl (g - sub_bits)))

let record t v =
  let v = max 0 v in
  t.buckets.(index_of v) <- t.buckets.(index_of v) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let sum t = t.sum
let max_value t = t.max_v
let min_value t = if t.count = 0 then 0 else t.min_v
let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count

let percentile t p =
  if t.count = 0 then 0
  else begin
    let p = Float.max 0. (Float.min 100. p) in
    let rank =
      max 1 (int_of_float (ceil (p /. 100. *. float_of_int t.count)))
    in
    let seen = ref 0 in
    let result = ref t.max_v in
    (try
       for i = 0 to nbuckets - 1 do
         seen := !seen + t.buckets.(i);
         if !seen >= rank then begin
           result := fst (bounds_of_index i);
           raise Exit
         end
       done
     with Exit -> ());
    (* The percentile cannot undershoot the recorded minimum or overshoot
       the maximum, whatever the bucket bound says. *)
    min t.max_v (max t.min_v !result)
  end

let percentile_opt t p = if t.count = 0 then None else Some (percentile t p)
let mean_opt t = if t.count = 0 then None else Some (mean t)

let fold t f acc =
  let acc = ref acc in
  for i = 0 to nbuckets - 1 do
    if t.buckets.(i) > 0 then begin
      let low, high = bounds_of_index i in
      acc := f !acc ~low ~high ~count:t.buckets.(i)
    end
  done;
  !acc
