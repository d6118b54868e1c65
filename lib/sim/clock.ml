let us t = t * 1_000
let ms t = t * 1_000_000
let s t = t * 1_000_000_000

let to_s t = float_of_int t /. 1e9
let to_ms t = float_of_int t /. 1e6

let pp fmt t =
  if t < 1_000 then Format.fprintf fmt "%dns" t
  else if t < 1_000_000 then Format.fprintf fmt "%.1fus" (float_of_int t /. 1e3)
  else if t < 1_000_000_000 then Format.fprintf fmt "%.2fms" (to_ms t)
  else Format.fprintf fmt "%.3fs" (to_s t)
