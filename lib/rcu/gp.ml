type config = {
  blimit : int;
  expedited_blimit : int;
  qhimark : int;
  softirq_period_ns : int;
  stall_timeout_ns : int option;
  unsafe_lose_cb_every : int option;
}

(* CPU cost charged by call_rcu, and per invoked callback. Invoking a
   callback touches a cache-cold object and the segcblist bookkeeping;
   substantially more expensive than the enqueue. *)
let enqueue_cost_ns = 25
let invoke_cost_ns = 150

let default_config =
  {
    blimit = 10;
    expedited_blimit = 100;
    qhimark = 10_000;
    (* ksoftirqd re-raises almost immediately while callbacks remain;
       blimit bounds the batch per pass, not the steady drain rate. The
       Fig. 3 endurance experiment overrides this with a 1 ms period to
       model the throttled processing of §3.5. *)
    softirq_period_ns = 10_000;
    (* Stall detection is opt-in (like CONFIG_RCU_CPU_STALL_TIMEOUT): the
       detector adds daemon events, so keeping it off preserves existing
       schedules byte-for-byte. *)
    stall_timeout_ns = None;
    (* Mutation knob for the checker's callback-conservation oracle: when
       [Some n], every n-th call_rcu callback is silently dropped from its
       Cblist (the accounting still runs). Never set outside self-tests. *)
    unsafe_lose_cb_every = None;
  }

type stats = {
  gps_started : int;
  gps_completed : int;
  cbs_queued : int;
  cbs_invoked : int;
  softirq_passes : int;
  max_backlog : int;
  expedited_transitions : int;
  stall_warnings : int;
}

type stall_warning = { at_ns : int; gp_seq : int; holdouts : int list }

type pcpu = {
  cpu : Sim.Machine.cpu;
  cbs : Sim.Machine.cpu Cblist.t;
  mutable softirq_scheduled : bool;
  mutable softirq : unit -> unit;
      (* This CPU's softirq pass, made once in [create] so arming it
         allocates nothing. *)
}

type t = {
  machine : Sim.Machine.t;
  engine : Sim.Engine.t;
  cfg : config;
  percpu : pcpu array;
  qs_needed : bool array;
  mutable qs_remaining : int;
  mutable gp_active : bool;
  mutable gp_requested : bool;
  mutable completed_gps : int;
  mutable expedited_flag : bool;
  mutable pending : int;
  mutable gp_started_at : int;
  gp_cond : Sim.Process.Cond.t;
  mutable gp_hooks : (int -> unit) list;
  mutable section_hooks :
    ((Sim.Machine.cpu -> unit) * (Sim.Machine.cpu -> unit)) option;
      (* fired at outermost read-side entry/exit; lets epoch-based SMR
         schemes observe reader quiescence without touching the
         read-side fast path when unset *)
  (* stats *)
  mutable s_gps_started : int;
  mutable s_gps_completed : int;
  mutable s_cbs_queued : int;
  mutable s_cbs_invoked : int;
  mutable s_softirq_passes : int;
  mutable s_max_backlog : int;
  mutable s_expedited_transitions : int;
  mutable s_stall_warnings : int;
  mutable stall_log : stall_warning list; (* newest first *)
  mutable lose_tick : int;
}

let machine t = t.machine
let prof t = Sim.Machine.prof t.machine
let now t = Sim.Engine.now t.engine
let emit t kind ~cpu a b =
  Trace.Tap.emit (Sim.Engine.tap t.engine) kind ~cpu ~label:"" a b
let completed t = t.completed_gps
let pending_callbacks t = t.pending
let expedited t = t.expedited_flag
let gp_active t = t.gp_active
let gp_age_ns t = if t.gp_active then now t - t.gp_started_at else 0

let cpu_backlogs t =
  Array.map
    (fun (pc : pcpu) -> (pc.cpu.Sim.Machine.id, Cblist.waiting pc.cbs, Cblist.ready pc.cbs))
    t.percpu

let set_expedited t flag =
  if flag && not t.expedited_flag then
    t.s_expedited_transitions <- t.s_expedited_transitions + 1;
  t.expedited_flag <- flag

(* A cookie names the earliest grace period whose completion guarantees all
   readers current at snapshot time are done. If a grace period is in
   progress it may have started before now, so the caller must wait for the
   one after it. *)
let snapshot t =
  if t.gp_active then t.completed_gps + 2 else t.completed_gps + 1

let poll t cookie = t.completed_gps >= cookie

let on_gp_complete t fn = t.gp_hooks <- t.gp_hooks @ [ fn ]

let set_section_hooks t hooks = t.section_hooks <- hooks

let read_lock t (cpu : Sim.Machine.cpu) =
  (match t.section_hooks with
  | Some (enter, _) when cpu.rcu_nesting = 0 -> enter cpu
  | _ -> ());
  cpu.rcu_nesting <- cpu.rcu_nesting + 1

let read_unlock t (cpu : Sim.Machine.cpu) =
  assert (cpu.rcu_nesting > 0);
  cpu.rcu_nesting <- cpu.rcu_nesting - 1;
  match t.section_hooks with
  | Some (_, exit) when cpu.rcu_nesting = 0 -> exit cpu
  | _ -> ()

let batch_size t (pc : pcpu) =
  if t.expedited_flag || Cblist.total pc.cbs > t.cfg.qhimark then
    t.cfg.expedited_blimit
  else t.cfg.blimit

let raise_softirq t (pc : pcpu) =
  if not pc.softirq_scheduled then begin
    pc.softirq_scheduled <- true;
    Sim.Engine.schedule t.engine ~after:t.cfg.softirq_period_ns pc.softirq
  end

let softirq_pass t (pc : pcpu) =
  Prof.enter (prof t) ~cpu:pc.cpu.Sim.Machine.id Prof.Span.Rcu_cb_drain;
  pc.softirq_scheduled <- false;
  t.s_softirq_passes <- t.s_softirq_passes + 1;
  let n = min (batch_size t pc) (Cblist.ready pc.cbs) in
  if n > 0 then begin
    Sim.Machine.consume pc.cpu (n * invoke_cost_ns);
    t.pending <- t.pending - n;
    t.s_cbs_invoked <- t.s_cbs_invoked + n;
    emit t Cb_invoke ~cpu:pc.cpu.Sim.Machine.id n 0;
    let drained = Cblist.drain pc.cbs ~max:n pc.cpu in
    assert (drained = n)
  end;
  if Cblist.ready pc.cbs > 0 then raise_softirq t pc;
  Prof.exit (prof t) Prof.Span.Rcu_cb_drain

let rec start_gp t =
  Prof.enter (prof t) ~cpu:(-1) Prof.Span.Rcu_gp;
  assert (not t.gp_active);
  t.gp_active <- true;
  t.gp_requested <- false;
  t.s_gps_started <- t.s_gps_started + 1;
  t.gp_started_at <- now t;
  emit t Gp_start ~cpu:(-1) t.s_gps_started 0;
  Array.fill t.qs_needed 0 (Array.length t.qs_needed) true;
  t.qs_remaining <- Array.length t.qs_needed;
  arm_stall_check t t.s_gps_started;
  Prof.exit (prof t) Prof.Span.Rcu_gp

(* Modelled on the kernel's CONFIG_RCU_CPU_STALL_TIMEOUT: a daemon event
   fires [stall_timeout_ns] after each grace period starts; if that same
   grace period is still active, the CPUs yet to report a quiescent state
   are the holdouts. Re-arms so a forever-stalled reader warns repeatedly,
   like the kernel's follow-up stall splats. *)
and arm_stall_check t seq =
  match t.cfg.stall_timeout_ns with
  | None -> ()
  | Some timeout ->
      Sim.Engine.schedule ~daemon:true t.engine ~after:timeout (fun () ->
          if t.gp_active && t.s_gps_started = seq then begin
            let holdouts = ref [] in
            for i = Array.length t.qs_needed - 1 downto 0 do
              if t.qs_needed.(i) then holdouts := i :: !holdouts
            done;
            t.s_stall_warnings <- t.s_stall_warnings + 1;
            t.stall_log <-
              { at_ns = now t; gp_seq = seq; holdouts = !holdouts }
              :: t.stall_log;
            List.iter (fun cpu -> emit t Rcu_stall ~cpu seq 0) !holdouts;
            arm_stall_check t seq
          end)

and complete_gp t =
  Prof.enter (prof t) ~cpu:(-1) Prof.Span.Rcu_gp;
  assert (t.gp_active);
  t.gp_active <- false;
  t.completed_gps <- t.completed_gps + 1;
  t.s_gps_completed <- t.s_gps_completed + 1;
  emit t Gp_end ~cpu:(-1) t.s_gps_completed (now t - t.gp_started_at);
  let waiting_remain = ref false in
  Array.iter
    (fun pc ->
      ignore (Cblist.advance pc.cbs ~completed:t.completed_gps);
      if Cblist.ready pc.cbs > 0 then raise_softirq t pc;
      if Cblist.waiting pc.cbs > 0 then waiting_remain := true)
    t.percpu;
  List.iter (fun fn -> fn t.completed_gps) t.gp_hooks;
  Sim.Process.Cond.broadcast t.gp_cond;
  (* A gp hook may already have started the next grace period (e.g. the
     allocator requesting one for outstanding latent objects). *)
  if (t.gp_requested || !waiting_remain) && not t.gp_active then start_gp t;
  Prof.exit (prof t) Prof.Span.Rcu_gp

let quiescent_state t (cpu : Sim.Machine.cpu) =
  Prof.enter (prof t) ~cpu:cpu.id Prof.Span.Rcu_qs;
  if t.gp_active && t.qs_needed.(cpu.id) then begin
    t.qs_needed.(cpu.id) <- false;
    t.qs_remaining <- t.qs_remaining - 1;
    emit t Gp_qs ~cpu:cpu.id cpu.id t.qs_remaining;
    if t.qs_remaining = 0 then complete_gp t
  end;
  Prof.exit (prof t) Prof.Span.Rcu_qs

let request_gp t =
  emit t Gp_request ~cpu:(-1) 0 0;
  if t.gp_active then t.gp_requested <- true else start_gp t

let call_rcu t (cpu : Sim.Machine.cpu) fn arg =
  emit t Gp_request ~cpu:cpu.id 0 0;
  let cookie = snapshot t in
  let pc = t.percpu.(cpu.id) in
  let lost =
    match t.cfg.unsafe_lose_cb_every with
    | None -> false
    | Some n ->
        t.lose_tick <- t.lose_tick + 1;
        t.lose_tick mod n = 0
  in
  (* The injected bug: the callback vanishes between the accounting and the
     callback list, exactly like a lost-cell race in a lockless cblist.
     Everything else (cost, pending, queued stats, trace) proceeds, so only
     a conservation check across the lists can tell. *)
  if not lost then Cblist.enqueue pc.cbs ~cookie fn arg;
  emit t Cb_enqueue ~cpu:cpu.id cookie 0;
  Sim.Machine.consume cpu enqueue_cost_ns;
  t.pending <- t.pending + 1;
  t.s_cbs_queued <- t.s_cbs_queued + 1;
  if t.pending > t.s_max_backlog then t.s_max_backlog <- t.pending;
  if not t.gp_active then start_gp t

let synchronize t =
  let cookie = snapshot t in
  request_gp t;
  Sim.Process.wait_until t.gp_cond (fun () -> poll t cookie)

let barrier_drain t =
  Prof.enter (prof t) ~cpu:(-1) Prof.Span.Rcu_cb_drain;
  Array.iter
    (fun pc ->
      ignore (Cblist.advance pc.cbs ~completed:t.completed_gps);
      let n = Cblist.ready pc.cbs in
      t.pending <- t.pending - n;
      t.s_cbs_invoked <- t.s_cbs_invoked + n;
      ignore (Cblist.drain pc.cbs ~max:n pc.cpu))
    t.percpu;
  Prof.exit (prof t) Prof.Span.Rcu_cb_drain

let attach_pressure t pressure =
  Mem.Pressure.on_level_change pressure (fun level ->
      match level with
      | Mem.Pressure.Normal -> set_expedited t false
      | Mem.Pressure.Low | Mem.Pressure.Critical ->
          set_expedited t true;
          Array.iter (fun pc -> if Cblist.ready pc.cbs > 0 then raise_softirq t pc) t.percpu);
  Mem.Pressure.on_oom pressure (fun () ->
      (* Direct reclaim does bounded work: drain a few expedited batches of
         ripe callbacks per failed allocation. The frees land on scattered
         slabs, so they rarely coalesce whole slabs back to the page
         allocator — which is why expediting cannot save the baseline from
         the Fig. 3 OOM. *)
      set_expedited t true;
      let invoked_before = t.s_cbs_invoked in
      Array.iter
        (fun pc ->
          ignore (Cblist.advance pc.cbs ~completed:t.completed_gps);
          let n = min (4 * t.cfg.expedited_blimit) (Cblist.ready pc.cbs) in
          t.pending <- t.pending - n;
          t.s_cbs_invoked <- t.s_cbs_invoked + n;
          ignore (Cblist.drain pc.cbs ~max:n pc.cpu))
        t.percpu;
      t.s_cbs_invoked > invoked_before)

let stats t =
  {
    gps_started = t.s_gps_started;
    gps_completed = t.s_gps_completed;
    cbs_queued = t.s_cbs_queued;
    cbs_invoked = t.s_cbs_invoked;
    softirq_passes = t.s_softirq_passes;
    max_backlog = t.s_max_backlog;
    expedited_transitions = t.s_expedited_transitions;
    stall_warnings = t.s_stall_warnings;
  }

let stall_warnings t = List.rev t.stall_log
let last_stall t = match t.stall_log with [] -> None | s :: _ -> Some s

let holdout_cpus t =
  if not t.gp_active then []
  else begin
    let holdouts = ref [] in
    for i = Array.length t.qs_needed - 1 downto 0 do
      if t.qs_needed.(i) then holdouts := i :: !holdouts
    done;
    !holdouts
  end
let gp_seq t = t.s_gps_started

let create ?(config = default_config) machine =
  let ncpus = Sim.Machine.nr_cpus machine in
  let t =
    {
      machine;
      engine = Sim.Machine.engine machine;
      cfg = config;
      percpu =
        Array.init ncpus (fun i ->
            {
              cpu = Sim.Machine.cpu machine i;
              cbs = Cblist.create ();
              softirq_scheduled = false;
              softirq = ignore;
            });
      qs_needed = Array.make ncpus false;
      qs_remaining = 0;
      gp_active = false;
      gp_requested = false;
      completed_gps = 0;
      expedited_flag = false;
      pending = 0;
      gp_started_at = 0;
      gp_cond = Sim.Process.Cond.create (Sim.Machine.engine machine);
      gp_hooks = [];
      section_hooks = None;
      s_gps_started = 0;
      s_gps_completed = 0;
      s_cbs_queued = 0;
      s_cbs_invoked = 0;
      s_softirq_passes = 0;
      s_max_backlog = 0;
      s_expedited_transitions = 0;
      s_stall_warnings = 0;
      stall_log = [];
      lose_tick = 0;
    }
  in
  Array.iter (fun pc -> pc.softirq <- (fun () -> softirq_pass t pc)) t.percpu;
  Sim.Machine.on_context_switch machine (fun cpu -> quiescent_state t cpu);
  t
