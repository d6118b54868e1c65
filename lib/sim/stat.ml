type summary = { n : int; mean : float; stdev : float; min : float; max : float }

let mean xs =
  match xs with
  | [] -> invalid_arg "Stat.mean: empty list"
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stat.summarize: empty list"
  | _ ->
      let n = List.length xs in
      let m = mean xs in
      let var =
        if n < 2 then 0.
        else
          List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs
          /. float_of_int (n - 1)
      in
      {
        n;
        mean = m;
        stdev = sqrt var;
        min = List.fold_left Float.min infinity xs;
        max = List.fold_left Float.max neg_infinity xs;
      }

let percent_change ~baseline v =
  if baseline = 0. then 0. else (v -. baseline) /. baseline *. 100.

let speedup ~baseline v = if baseline = 0. then 0. else v /. baseline
