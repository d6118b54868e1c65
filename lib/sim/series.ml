type t = {
  mutable rev_samples : (int * float) list;
  mutable n : int;
  mutable last_time : int;
}

let create () = { rev_samples = []; n = 0; last_time = min_int }

let push s ~time v =
  assert (time >= s.last_time);
  s.last_time <- time;
  s.rev_samples <- (time, v) :: s.rev_samples;
  s.n <- s.n + 1

let length s = s.n

let to_array s = Array.of_list (List.rev s.rev_samples)

let last s = match s.rev_samples with [] -> None | x :: _ -> Some x

let max_value s =
  List.fold_left (fun acc (_, v) -> if v > acc then v else acc) 0. s.rev_samples

let sample_every eng s ~period f =
  Engine.every eng ~period (fun () ->
      push s ~time:(Engine.now eng) (f ());
      true)

let downsample s ~max_points =
  let a = to_array s in
  let n = Array.length a in
  if n <= max_points || max_points <= 1 then a
  else
    Array.init max_points (fun i ->
        let j = i * (n - 1) / (max_points - 1) in
        a.(j))
