(** Read-Copy-Update over the simulated machine.

    Implements the classic kernel scheme the paper describes (§2):

    - readers mark read-side critical sections ({!read_lock} /
      {!read_unlock}); they never block inside a section;
    - a context switch on a CPU (delivered by {!Sim.Machine}'s scheduler
      tick, suppressed while a reader is active) is a quiescent state;
    - a grace period completes once every CPU has passed through a
      quiescent state after the grace period started;
    - deferred work registered with {!call_rcu} waits for a grace period
      and is then invoked in throttled, batched softirq passes
      ([blimit] callbacks per pass, expedited above [qhimark] backlog or
      under memory pressure) — the source of the {e extended object
      lifetimes} and {e bursty freeing} the paper analyses.

    For Prudence, the module also exposes the polled grace-period interface
    (§4: "the synchronization mechanism is still responsible for computing
    the grace period"): {!snapshot} stamps a deferred object with the grace
    period it must wait for, {!poll} answers whether that grace period has
    completed, and {!on_gp_complete} notifies the allocator.

    Grace-period detection is observable on the engine's event tap
    ({!Sim.Engine.tap}): [Gp_request] from {!call_rcu} and {!request_gp}
    (before the token is issued), [Gp_start] when a grace period begins
    its quiescent-state sweep, [Gp_qs] for each CPU's report and [Gp_end]
    with the grace period's latency; callbacks emit [Cb_enqueue] and
    [Cb_invoke], and the stall detector [Rcu_stall] per holdout CPU. *)

type config = {
  blimit : int;
      (** Callbacks invoked per CPU per softirq pass in normal mode
          (Linux default: 10). *)
  expedited_blimit : int;
      (** Batch size once the backlog exceeds [qhimark] or under memory
          pressure. *)
  qhimark : int;  (** Backlog threshold that triggers expediting. *)
  softirq_period_ns : int;
      (** Delay between consecutive softirq passes on a CPU with ready
          callbacks. *)
  stall_timeout_ns : int option;
      (** Grace-period budget for the stall detector (the kernel's
          [CONFIG_RCU_CPU_STALL_TIMEOUT], typically 21 s). When a grace
          period is still active this long after starting, a warning is
          recorded naming the holdout CPUs, and the check re-arms.
          [None] (default) disables detection entirely. *)
  unsafe_lose_cb_every : int option;
      (** Checker mutation knob: when [Some n], every n-th {!call_rcu}
          callback is silently dropped from its per-CPU list while all the
          accounting (cost, pending, queued stats, trace) still runs —
          modelling a lost-cell race in a lockless callback list. The
          dropped object is never released, so only a conservation check
          (queued = invoked + in-list) can tell. [None] (default) for every
          real run; set only by [--mutate=lose-cb] self-tests. *)
}

val default_config : config

type t

val create : ?config:config -> Sim.Machine.t -> t
(** [create machine] hooks RCU into [machine]'s context-switch stream.
    The machine's ticks must be started for grace periods to advance. *)

val machine : t -> Sim.Machine.t
(** {1 Read side} *)

val read_lock : t -> Sim.Machine.cpu -> unit
(** Enter a read-side critical section on [cpu]. Nestable. While at least
    one section is active on a CPU, its scheduler ticks are not quiescent
    states. *)

val read_unlock : t -> Sim.Machine.cpu -> unit

val set_section_hooks :
  t -> ((Sim.Machine.cpu -> unit) * (Sim.Machine.cpu -> unit)) option -> unit
(** [set_section_hooks t (Some (enter, exit))] fires [enter] when a CPU's
    outermost read-side section opens (before the nesting count rises)
    and [exit] when it closes (after the count returns to zero). Lets
    epoch-based SMR schemes observe reader quiescence — including
    sections opened directly via {!read_lock}, e.g. by the fault
    injector's stalled readers. [None] (the default) leaves the
    read-side fast path untouched. *)

(** {1 Update side} *)

val call_rcu :
  t -> Sim.Machine.cpu -> (Sim.Machine.cpu -> int -> unit) -> int -> unit
(** [call_rcu t cpu fn arg] defers [fn cpu arg] until after a grace
    period; it runs on [cpu] during a later softirq pass (batched and
    throttled). [arg] plays the kernel's embedded [rcu_head]: a caller
    that frees many objects passes one callback, made once, and each
    object's handle, so a deferral allocates nothing. This is the
    baseline (SLUB) reclamation path from Listing 1 of the paper. The
    enqueue charges [cpu] 25 ns; each invocation charges it 150 ns. *)

val synchronize : t -> unit
(** Block the calling process until a full grace period elapses. *)

val barrier_drain : t -> unit
(** Testing helper: invoke every already-ripe callback immediately,
    bypassing throttling (does not wait for grace periods). *)

(** {1 Polled grace-period interface (used by Prudence)} *)

val snapshot : t -> int
(** A cookie identifying the earliest grace period whose completion
    guarantees that readers current at this instant are done. *)

val poll : t -> int -> bool
(** [poll t cookie] is [true] once that grace period has completed. *)

val completed : t -> int
(** Number of grace periods completed so far. *)

val request_gp : t -> unit
(** Ensure a grace period is (or will be) in progress; used by Prudence,
    which has latent objects but enqueues no callbacks. *)

val on_gp_complete : t -> (int -> unit) -> unit
(** [on_gp_complete t fn] calls [fn completed] after each grace period. *)

(** {1 Pressure and diagnostics} *)

val attach_pressure : t -> Mem.Pressure.t -> unit
(** Expedite callback processing while memory pressure is [Low]/[Critical]
    and register an OOM handler that drains ripe callbacks (§3.5: "RCU
    attempts to process more deferred objects as the memory pressure
    increases"). *)

val set_expedited : t -> bool -> unit
val expedited : t -> bool

val pending_callbacks : t -> int
(** Callbacks queued and not yet invoked, across all CPUs. *)

val gp_active : t -> bool
(** Whether a grace period is in progress right now. *)

val gp_age_ns : t -> int
(** Virtual nanoseconds since the in-progress grace period started;
    0 when no grace period is active. The live-introspection analogue of
    the kernel's [rcu_state.gp_start] debugfs field. *)

val cpu_backlogs : t -> (int * int * int) array
(** Per-CPU callback-queue occupancy as [(cpu, waiting, ready)]:
    [waiting] callbacks still need their grace period, [ready] ones are
    invocable but not yet drained by softirq. Sums to
    {!pending_callbacks}. *)

type stats = {
  gps_started : int;
  gps_completed : int;
  cbs_queued : int;
  cbs_invoked : int;
  softirq_passes : int;
  max_backlog : int;  (** High-water mark of {!pending_callbacks}. *)
  expedited_transitions : int;
  stall_warnings : int;  (** Stall-detector firings (see {!stall_warnings}). *)
}

val stats : t -> stats
type stall_warning = {
  at_ns : int;  (** Virtual time the warning fired. *)
  gp_seq : int;  (** Sequence number of the stalled grace period. *)
  holdouts : int list;
      (** CPUs that had not yet reported a quiescent state, ascending. *)
}

val stall_warnings : t -> stall_warning list
(** All stall warnings recorded so far, oldest first. Empty unless
    [config.stall_timeout_ns] is set. Each warning also emits one
    [Rcu_stall] trace event per holdout CPU when tracing is armed. *)

val last_stall : t -> stall_warning option
(** Newest stall warning, O(1); the missed-QS oracle polls this. *)

val holdout_cpus : t -> int list
(** CPUs the in-progress grace period is still waiting on (ascending);
    [[]] when no grace period is active. *)

val gp_seq : t -> int
(** Sequence number of the most recently started grace period
    (= started count); identifies the current grace period while
    {!gp_active}. *)

