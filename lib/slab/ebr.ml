(* Epoch-based reclamation with DEBRA-style amortized advancement
   (Brown, PODC'15).

   One global epoch; each CPU entering an outermost read-side section
   pins itself and announces the epoch it observed. The epoch may
   advance only when every pinned CPU has announced the current epoch,
   so by the time the epoch reaches [e + 2] no reader that could have
   observed an object retired at epoch [e] can still be running:
   objects deferred at epoch [e] ripen at frontier [e], i.e. once the
   global epoch is [e + 2] ("limbo-bag rotation" — three bags in
   flight: current, previous, reclaimable).

   DEBRA's contribution is *when* advancement is attempted: not on
   every retire (a full announcement scan each time), but amortized —
   here every [advance_every] defers per CPU, plus a virtual-time
   poller armed while tokens are outstanding, plus an attempt on every
   outermost reader exit (the exit is exactly what unblocks a stuck
   scan).

   Mutation support: [unsafe_no_scan] maintains a second, corrupt
   epoch counter that advances without the announcement scan. The
   backend view ([smr]) reclaims against the corrupt frontier while
   the oracle view ([oracle_smr]) keeps the truthful one — the same
   two-view discipline as Prudence's [unsafe_skip_gp], so the shadow
   heap can convict the mutant instead of inheriting its bug. *)

type config = {
  advance_every : int;
      (* defers per CPU between amortized advancement attempts *)
  poll_period_ns : int;  (* background advancement poller period *)
  unsafe_no_scan : bool;
      (* mutant: reclaim frontier advances without scanning reader
         announcements *)
}

let default_config =
  { advance_every = 64; poll_period_ns = 100_000; unsafe_no_scan = false }

type t = {
  engine : Sim.Engine.t;
  cfg : config;
  mutable epoch : int;  (* truthful global epoch *)
  mutable unsafe_epoch : int;  (* scan-free counter for the mutated view *)
  pinned : bool array;  (* CPU inside an outermost read-side section *)
  announced : int array;  (* epoch each pinned CPU observed at entry *)
  defers : int array;  (* per-CPU defers since the last attempt *)
  mutable last_issued : int;  (* highest token handed out *)
  mutable hooks : (int -> unit) list;  (* truthful frontier hooks *)
  mutable backend_hooks : (int -> unit) list;
  mutable poller_armed : bool;
  cond : Sim.Process.Cond.t;
}

let create ?(config = default_config) ~cpus engine =
  {
    engine;
    cfg = config;
    epoch = 2;
    unsafe_epoch = 2;
    pinned = Array.make cpus false;
    announced = Array.make cpus 0;
    defers = Array.make cpus 0;
    last_issued = 0;
    hooks = [];
    backend_hooks = [];
    poller_armed = false;
    cond = Sim.Process.Cond.create engine;
  }

let emit t kind ~cpu a =
  Trace.Tap.emit (Sim.Engine.tap t.engine) kind ~cpu ~label:"" a 0

let frontier t = t.epoch - 2

let backend_frontier t =
  if t.cfg.unsafe_no_scan then t.unsafe_epoch - 2 else frontier t

(* Hooks fire in registration order. *)
let fire hooks v = List.iter (fun f -> f v) (List.rev hooks)

(* Every pinned CPU with a stale announcement blocks the scan and is
   reported on the tap as an epoch-world holdout. *)
let scan_clear t =
  let ok = ref true in
  Array.iteri
    (fun i pinned ->
      if pinned && t.announced.(i) <> t.epoch then begin
        ok := false;
        emit t Epoch_blocked ~cpu:i i
      end)
    t.pinned;
  !ok

(* Advance while tokens are outstanding (never spin the epoch when the
   system is quiet — tokens would otherwise ripen trivially). *)
let try_advance t =
  let unsafe_adv =
    t.cfg.unsafe_no_scan && t.unsafe_epoch - 2 < t.last_issued
  in
  if unsafe_adv then t.unsafe_epoch <- t.unsafe_epoch + 1;
  let want = frontier t < t.last_issued in
  if want then emit t Epoch_scan ~cpu:(-1) 0;
  let adv = want && scan_clear t in
  if adv then begin
    t.epoch <- t.epoch + 1;
    if not t.cfg.unsafe_no_scan then t.unsafe_epoch <- t.epoch
  end;
  (* Backend (allocator) hooks before oracle hooks, mirroring the
     prudence-then-shadow registration order under RCU. *)
  if unsafe_adv then fire t.backend_hooks (t.unsafe_epoch - 2);
  if adv then begin
    if not t.cfg.unsafe_no_scan then fire t.backend_hooks (frontier t);
    fire t.hooks (frontier t)
  end;
  if adv || unsafe_adv then Sim.Process.Cond.broadcast t.cond

let outstanding t =
  frontier t < t.last_issued || backend_frontier t < t.last_issued

let rec arm_poller t =
  if not t.poller_armed then begin
    t.poller_armed <- true;
    ignore
      (Sim.Engine.schedule t.engine ~after:t.cfg.poll_period_ns (fun () ->
           t.poller_armed <- false;
           try_advance t;
           if outstanding t then arm_poller t))
  end

let defer t ~cpu =
  let tok = t.epoch in
  if tok > t.last_issued then t.last_issued <- tok;
  t.defers.(cpu) <- t.defers.(cpu) + 1;
  if t.defers.(cpu) >= t.cfg.advance_every then begin
    t.defers.(cpu) <- 0;
    try_advance t
  end;
  tok

let reader_enter t (cpu : Sim.Machine.cpu) =
  let i = cpu.Sim.Machine.id in
  t.pinned.(i) <- true;
  t.announced.(i) <- t.epoch

let reader_exit t (cpu : Sim.Machine.cpu) =
  t.pinned.(cpu.Sim.Machine.id) <- false;
  (* The exit is what unblocks a stuck scan: attempt immediately. *)
  if outstanding t then try_advance t

(* Block until every token issued before the call is ripe under the
   caller's view of the frontier. Progress comes from the poller (armed
   here) and from reader exits, both of which broadcast. *)
let wait_view t readf () =
  let target = t.last_issued in
  try_advance t;
  if readf () < target then begin
    arm_poller t;
    Sim.Process.wait_until t.cond (fun () -> readf () >= target)
  end

let view t ~frontierf ~register =
  {
    Smr.scheme = "ebr-debra";
    snapshot = (fun () -> t.epoch);
    defer = (fun ~cpu -> defer t ~cpu);
    ripe_upto = (fun () -> frontierf ());
    advance = (fun () -> try_advance t);
    request =
      (fun () ->
        emit t Epoch_request ~cpu:(-1) 0;
        if outstanding t then arm_poller t);
    wait = wait_view t frontierf;
    on_ripen = register;
    reader_enter = Some (reader_enter t);
    reader_exit = Some (reader_exit t);
  }

let smr t =
  view t
    ~frontierf:(fun () -> backend_frontier t)
    ~register:(fun f -> t.backend_hooks <- f :: t.backend_hooks)

let oracle_smr t =
  view t
    ~frontierf:(fun () -> frontier t)
    ~register:(fun f -> t.hooks <- f :: t.hooks)
