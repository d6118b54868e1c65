(* Hyaline-style snapshot-free, reference-batched retirement
   (Nikolaev & Ravindran, PODC'19 / USENIX ATC'21 family).

   Retired objects accumulate in the current open batch (token = the
   batch id). When a batch seals — it filled up, the poller ticked, or
   a waiter needs progress — it is credited with one reference per
   reader active at that instant: those are exactly the readers that
   could still hold an object retired into it. Each credited reader
   decrements the batch at its outermost section exit. The reclamation
   frontier advances over consecutive sealed batches that reached zero
   references (conservative in-order harvesting, which is what keeps
   tokens compatible with Latq's monotone-cookie contract).

   Unlike EBR there is no global epoch to stall: a slow reader only
   pins the batches sealed during its own lifetime.

   Mutation support: [unsafe_drop_refs] makes the backend view's
   frontier track the last *sealed* batch, ignoring reader references
   entirely — retirement lists are handed to reclamation with their
   reference counts dropped. The oracle view ([oracle_smr]) keeps the
   truthful zero-reference frontier, so the shadow heap convicts the
   mutant. *)

type config = {
  unsafe_drop_refs : bool;
      (* mutant: reclaim sealed batches without waiting for their
         reader references to drain *)
}

let default_config = { unsafe_drop_refs = false }

(* Defers per batch before it seals on its own. *)
let batch_size = 64

(* Background seal/advance poller period. *)
let poll_period_ns = 100_000

type batch = { id : int; mutable refs : int }

type t = {
  engine : Sim.Engine.t;
  cfg : config;
  mutable open_id : int;  (* current open batch id = next token *)
  mutable open_fill : int;
  mutable last_issued : int;
  mutable sealed_upto : int;  (* highest sealed batch id *)
  mutable frontier : int;  (* truthful zero-reference frontier *)
  sealed_q : batch Queue.t;  (* sealed, refs not yet drained; id order *)
  active : bool array;  (* CPU inside an outermost read-side section *)
  credited : batch list array;  (* batches each active reader is credited in *)
  mutable hooks : (int -> unit) list;
  mutable backend_hooks : (int -> unit) list;
  mutable poller_armed : bool;
  cond : Sim.Process.Cond.t;
}

let create ?(config = default_config) ~cpus engine =
  {
    engine;
    cfg = config;
    open_id = 1;
    open_fill = 0;
    last_issued = 0;
    sealed_upto = 0;
    frontier = 0;
    sealed_q = Queue.create ();
    active = Array.make cpus false;
    credited = Array.make cpus [];
    hooks = [];
    backend_hooks = [];
    poller_armed = false;
    cond = Sim.Process.Cond.create engine;
  }

let emit t kind ~cpu a b =
  Trace.Tap.emit (Sim.Engine.tap t.engine) kind ~cpu ~label:"" a b

let frontier t = t.frontier

let backend_frontier t =
  if t.cfg.unsafe_drop_refs then t.sealed_upto else t.frontier

(* Hook lists are kept in registration order, and fire in it. *)
let rec fire hooks v =
  match hooks with
  | [] -> ()
  | f :: rest ->
      f v;
      fire rest v

let advance_frontier t =
  let advanced = ref false in
  let blocked = ref false in
  while (not !blocked) && not (Queue.is_empty t.sealed_q) do
    let b = Queue.peek t.sealed_q in
    if b.refs = 0 then begin
      ignore (Queue.pop t.sealed_q);
      t.frontier <- b.id;
      advanced := true
    end
    else blocked := true
  done;
  if !advanced then begin
    if not t.cfg.unsafe_drop_refs then fire t.backend_hooks t.frontier;
    fire t.hooks t.frontier;
    Sim.Process.Cond.broadcast t.cond
  end

let seal t =
  if t.open_fill > 0 then begin
    let b = { id = t.open_id; refs = 0 } in
    for i = 0 to Array.length t.active - 1 do
      if t.active.(i) then begin
        b.refs <- b.refs + 1;
        t.credited.(i) <- b :: t.credited.(i)
      end
    done;
    emit t Batch_seal ~cpu:(-1) b.id b.refs;
    Queue.push b t.sealed_q;
    t.sealed_upto <- b.id;
    t.open_id <- t.open_id + 1;
    t.open_fill <- 0;
    if t.cfg.unsafe_drop_refs then begin
      (* The mutated frontier jumps at seal, references be damned. *)
      fire t.backend_hooks t.sealed_upto;
      Sim.Process.Cond.broadcast t.cond
    end;
    advance_frontier t
  end

let outstanding t =
  t.frontier < t.last_issued || backend_frontier t < t.last_issued

(* Seal and drain on a timer while retirements are in flight: bounds
   the open batch's age, so quiet periods still retire their last
   objects. *)
let rec arm_poller t =
  if not t.poller_armed then begin
    t.poller_armed <- true;
    Sim.Engine.schedule t.engine ~after:poll_period_ns (fun () ->
        t.poller_armed <- false;
        seal t;
        advance_frontier t;
        if outstanding t then arm_poller t)
  end

let defer t ~cpu:_ =
  let tok = t.open_id in
  if tok > t.last_issued then t.last_issued <- tok;
  t.open_fill <- t.open_fill + 1;
  if t.open_fill >= batch_size then seal t;
  tok

let reader_enter t (cpu : Sim.Machine.cpu) =
  t.active.(cpu.Sim.Machine.id) <- true

(* Drop CPU [i]'s reference on each batch it is credited in. *)
let rec unref t i = function
  | [] -> ()
  | b :: rest ->
      b.refs <- b.refs - 1;
      emit t Batch_unref ~cpu:i i b.id;
      unref t i rest

let reader_exit t (cpu : Sim.Machine.cpu) =
  let i = cpu.Sim.Machine.id in
  t.active.(i) <- false;
  match t.credited.(i) with
  | [] -> ()
  | batches ->
      unref t i batches;
      t.credited.(i) <- [];
      advance_frontier t

let wait_view t readf () =
  let target = t.last_issued in
  seal t;
  advance_frontier t;
  if readf () < target then begin
    arm_poller t;
    Sim.Process.wait_until t.cond (fun () -> readf () >= target)
  end

let view t ~frontierf ~register =
  {
    Smr.scheme = "hyaline";
    snapshot = (fun () -> t.open_id);
    defer = (fun ~cpu -> defer t ~cpu);
    ripe_upto = (fun () -> frontierf ());
    advance =
      (fun () ->
        seal t;
        advance_frontier t);
    request =
      (fun () ->
        emit t Batch_request ~cpu:(-1) 0 0;
        if outstanding t then arm_poller t);
    wait = wait_view t frontierf;
    on_ripen = register;
    reader_enter = Some (reader_enter t);
    reader_exit = Some (reader_exit t);
  }

let smr t =
  view t
    ~frontierf:(fun () -> backend_frontier t)
    ~register:(fun f -> t.backend_hooks <- t.backend_hooks @ [ f ])

let oracle_smr t =
  view t
    ~frontierf:(fun () -> frontier t)
    ~register:(fun f -> t.hooks <- t.hooks @ [ f ])
