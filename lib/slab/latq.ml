(* Per-CPU latent caches: cookie-monotone arrival (filled in snapshot
   order). The payload deque is untouched; a run-length index of
   (cookie, count) pairs rides along so ripeness queries — "how many of
   these are past the horizon?" — cost O(distinct cookies), not
   O(objects). A slab's latent list lives in the object store
   ([Frame.env.latents]). *)

module Fifo = struct
  (* Ring buffers throughout: the payload ring plus a parallel pair of
     int rings forming the run-length cookie index. Pushes and pops are
     allocation-free (the free/alloc cycle of every deferred object goes
     through here, so each box would be paid hundreds of thousands of
     times per run). Popped payload slots are left holding their old
     element, an object handle, which pins nothing. *)
  type 'a t = {
    mutable arr : 'a array;  (* capacity a power of two; [||] until used *)
    mutable head : int;  (* index of the oldest element *)
    mutable n : int;
    mutable rc : int array;  (* run cookies, ring ascending front-to-back *)
    mutable rn : int array;  (* run lengths, parallel to [rc] *)
    mutable rhead : int;
    mutable rcount : int;
  }

  let create () =
    {
      arr = [||];
      head = 0;
      n = 0;
      rc = Array.make 8 0;
      rn = Array.make 8 0;
      rhead = 0;
      rcount = 0;
    }

  let length t = t.n

  let grow_items t x =
    let cap = Array.length t.arr in
    if cap = 0 then begin
      t.arr <- Array.make 16 x;
      t.head <- 0
    end
    else if t.n = cap then begin
      let b = Array.make (2 * cap) x in
      for i = 0 to t.n - 1 do
        b.(i) <- t.arr.((t.head + i) land (cap - 1))
      done;
      t.arr <- b;
      t.head <- 0
    end

  let grow_runs t =
    let cap = Array.length t.rc in
    if t.rcount = cap then begin
      let rc = Array.make (2 * cap) 0 and rn = Array.make (2 * cap) 0 in
      for i = 0 to t.rcount - 1 do
        let j = (t.rhead + i) land (cap - 1) in
        rc.(i) <- t.rc.(j);
        rn.(i) <- t.rn.(j)
      done;
      t.rc <- rc;
      t.rn <- rn;
      t.rhead <- 0
    end

  let push_back t ~cookie v =
    grow_items t v;
    t.arr.((t.head + t.n) land (Array.length t.arr - 1)) <- v;
    t.n <- t.n + 1;
    let rmask = Array.length t.rc - 1 in
    if t.rcount > 0 then begin
      let last = (t.rhead + t.rcount - 1) land rmask in
      if t.rc.(last) = cookie then t.rn.(last) <- t.rn.(last) + 1
      else begin
        assert (cookie > t.rc.(last));
        grow_runs t;
        let rmask = Array.length t.rc - 1 in
        let slot = (t.rhead + t.rcount) land rmask in
        t.rc.(slot) <- cookie;
        t.rn.(slot) <- 1;
        t.rcount <- t.rcount + 1
      end
    end
    else begin
      t.rc.(t.rhead) <- cookie;
      t.rn.(t.rhead) <- 1;
      t.rcount <- 1
    end

  let oldest_ripe t ~completed = t.rcount > 0 && t.rc.(t.rhead) <= completed

  let pop_front t =
    if t.n = 0 then invalid_arg "Latq.Fifo.pop_front: empty";
    t.rn.(t.rhead) <- t.rn.(t.rhead) - 1;
    if t.rn.(t.rhead) = 0 then begin
      t.rhead <- (t.rhead + 1) land (Array.length t.rc - 1);
      t.rcount <- t.rcount - 1
    end;
    let v = t.arr.(t.head) in
    t.head <- (t.head + 1) land (Array.length t.arr - 1);
    t.n <- t.n - 1;
    v

  let pop_back t =
    if t.n = 0 then invalid_arg "Latq.Fifo.pop_back: empty";
    let v = t.arr.((t.head + t.n - 1) land (Array.length t.arr - 1)) in
    t.n <- t.n - 1;
    let last = (t.rhead + t.rcount - 1) land (Array.length t.rc - 1) in
    t.rn.(last) <- t.rn.(last) - 1;
    if t.rn.(last) = 0 then t.rcount <- t.rcount - 1;
    v

  (* Move up to [limit] ripe elements out, oldest first, a whole run at a
     time. [f] gets [x] and [y] with each element, so a caller needs no
     closure to carry its destination. *)
  let merge_ripe t ~completed ~limit ~f x y =
    let moved = ref 0 in
    let continue = ref true in
    while
      !continue && !moved < limit && t.rcount > 0
      && t.rc.(t.rhead) <= completed
    do
      let k = min t.rn.(t.rhead) (limit - !moved) in
      let mask = Array.length t.arr - 1 in
      for _ = 1 to k do
        f x y t.arr.(t.head);
        t.head <- (t.head + 1) land mask
      done;
      t.n <- t.n - k;
      t.rn.(t.rhead) <- t.rn.(t.rhead) - k;
      if t.rn.(t.rhead) = 0 then begin
        t.rhead <- (t.rhead + 1) land (Array.length t.rc - 1);
        t.rcount <- t.rcount - 1
      end
      else continue := false;
      moved := !moved + k
    done;
    !moved

  let ripe_count t ~completed =
    (* Cookies are monotone front to back, so the matching runs are a
       prefix; counting them all is still O(distinct cookies). *)
    let rmask = Array.length t.rc - 1 in
    let n = ref 0 in
    for i = 0 to t.rcount - 1 do
      let j = (t.rhead + i) land rmask in
      if t.rc.(j) <= completed then n := !n + t.rn.(j)
    done;
    !n

  let iter f t =
    let mask = Array.length t.arr - 1 in
    for i = 0 to t.n - 1 do
      f t.arr.((t.head + i) land mask)
    done
end
