(* xoshiro256++, with each 64-bit state word held as two immediate ints
   (the 32-bit halves). OCaml boxes every [Int64] intermediate, which made
   the generator the single hottest allocator in the simulator's main loop;
   split into halves, one step runs entirely on unboxed native ints and the
   output stream is bit-for-bit the Int64 version's. *)

type t = {
  mutable s0h : int;
  mutable s0l : int;
  mutable s1h : int;
  mutable s1l : int;
  mutable s2h : int;
  mutable s2l : int;
  mutable s3h : int;
  mutable s3l : int;
  (* Halves of the last step's output, written in place so draws never
     allocate. *)
  mutable rh : int;
  mutable rl : int;
}

let m32 = 0xFFFF_FFFF

(* splitmix64: used only to expand the integer seed into generator state. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let hi64 x = Int64.to_int (Int64.shift_right_logical x 32)
let lo64 x = Int64.to_int (Int64.logand x 0xFFFF_FFFFL)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  (* xoshiro state must not be all-zero; splitmix64 guarantees it for any
     seed, but keep a belt-and-braces fixup. *)
  let s0, s1, s2, s3 =
    if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
      (1L, 2L, 3L, 4L)
    else (s0, s1, s2, s3)
  in
  {
    s0h = hi64 s0;
    s0l = lo64 s0;
    s1h = hi64 s1;
    s1l = lo64 s1;
    s2h = hi64 s2;
    s2l = lo64 s2;
    s3h = hi64 s3;
    s3l = lo64 s3;
    rh = 0;
    rl = 0;
  }

(* One xoshiro256++ step on 32-bit halves:
     result = rotl (s0 + s3) 23 + s0
     t = s1 << 17
     s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t; s3 = rotl s3 45
   Adds carry through [lsr 32]; rotl 45 is a half-swap followed by
   rotl 13. The result lands in [rh]/[rl]. *)
let step g =
  let al = g.s0l + g.s3l in
  let ah = (g.s0h + g.s3h + (al lsr 32)) land m32 in
  let al = al land m32 in
  let rh = ((ah lsl 23) lor (al lsr 9)) land m32 in
  let rl = ((al lsl 23) lor (ah lsr 9)) land m32 in
  let rl = rl + g.s0l in
  g.rh <- (rh + g.s0h + (rl lsr 32)) land m32;
  g.rl <- rl land m32;
  let th = ((g.s1h lsl 17) lor (g.s1l lsr 15)) land m32 in
  let tl = (g.s1l lsl 17) land m32 in
  g.s2h <- g.s2h lxor g.s0h;
  g.s2l <- g.s2l lxor g.s0l;
  g.s3h <- g.s3h lxor g.s1h;
  g.s3l <- g.s3l lxor g.s1l;
  g.s1h <- g.s1h lxor g.s2h;
  g.s1l <- g.s1l lxor g.s2l;
  g.s0h <- g.s0h lxor g.s3h;
  g.s0l <- g.s0l lxor g.s3l;
  g.s2h <- g.s2h lxor th;
  g.s2l <- g.s2l lxor tl;
  let h = g.s3h and l = g.s3l in
  g.s3h <- ((l lsl 13) lor (h lsr 19)) land m32;
  g.s3l <- ((h lsl 13) lor (l lsr 19)) land m32

let bits64 g =
  step g;
  Int64.logor (Int64.shift_left (Int64.of_int g.rh) 32) (Int64.of_int g.rl)

let split g =
  let seed = Int64.to_int (bits64 g) in
  create ~seed

let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  step g;
  (* u = output lsr 1, a 63-bit value that does not fit a native int, so
     reduce its halves modularly: u = uh * 2^32 + ul. *)
  let uh = g.rh lsr 1 in
  let ul = ((g.rh land 1) lsl 31) lor (g.rl lsr 1) in
  if bound <= 0x4000_0000 then
    (((uh mod bound) * (0x1_0000_0000 mod bound)) + (ul mod bound))
    mod bound
  else
    (* Huge bounds (> 2^30, e.g. nanosecond ranges) would overflow the
       modular product; fall back to one boxed division. *)
    Int64.to_int
      (Int64.rem
         (Int64.logor
            (Int64.shift_left (Int64.of_int uh) 32)
            (Int64.of_int ul))
         (Int64.of_int bound))

let int_in g lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int g (hi - lo + 1)

(* [float], [chance] and [exponential] are inlined at their call
   sites, so a draw the caller consumes at once never boxes its float
   result. *)
let[@inline] float g bound =
  (* 53 random bits -> [0, 1) *)
  step g;
  let bits = (g.rh lsl 21) lor (g.rl lsr 11) in
  let unit = float_of_int bits *. (1.0 /. 9007199254740992.0) in
  unit *. bound

let bool g =
  step g;
  g.rl land 1 = 1

let[@inline] chance g p =
  if p <= 0.0 then false else if p >= 1.0 then true else float g 1.0 < p

let[@inline] exponential g ~mean =
  let u = ref (float g 1.0) in
  if !u = 0.0 then u := 1e-12;
  -.mean *. log !u

let geometric g ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p out of range";
  if p = 1.0 then 0
  else begin
    let u = ref (float g 1.0) in
    if !u = 0.0 then u := 1e-12;
    int_of_float (Float.floor (log !u /. log (1.0 -. p)))
  end

let pick g a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int g (Array.length a))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
