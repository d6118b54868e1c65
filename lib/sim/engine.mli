(** Virtual-time discrete-event engine.

    The engine owns a monotonically increasing virtual clock (nanoseconds)
    and a pending-event scheduler. Events scheduled for the same instant run
    in scheduling order (FIFO), which makes every simulation deterministic
    for a given seed.

    The scheduler is a hierarchical timer wheel (Varghese-Lauck, see
    {!Wheel}) over flat structure-of-arrays event slots: O(1) schedule,
    batched same-instant dispatch, zero allocation in steady state.
    Events dispatch in ascending (time, {!tie_key}, sequence number)
    order; the test suite checks this against a sorted-list model.

    The engine is single-threaded on purpose: the reproduction models a
    64-CPU machine with virtual time rather than real parallelism, which is
    both deterministic and unaffected by OCaml runtime characteristics. *)

type t
(** An engine: clock + event scheduler + root RNG. *)

type handle
(** Cancellation handle for a scheduled event. Generation-tagged: a
    handle to an event that already ran (or was cancelled and its slot
    reused) is stale, and cancelling it is a no-op. *)

type tiebreak =
  | Fifo  (** Same-instant events run in scheduling order (default). *)
  | Shuffle of int
      (** Same-instant events run in a pseudo-random order derived
          deterministically from this shuffle seed (and each event's time
          and sequence number). Events at distinct times are unaffected.
          Used by the [Check] subsystem to sweep perturbed but replayable
          schedules: two runs with the same shuffle seed are identical,
          different seeds explore different serializations of logically
          concurrent events. *)

val tie_key : tiebreak -> time:int -> seq:int -> int
(** The same-instant ordering key of the event with sequence number
    [seq] scheduled for [time]: 0 under {!Fifo} (so [seq] alone
    decides), a pseudo-random non-negative int under {!Shuffle}. *)

val create : ?seed:int -> ?tiebreak:tiebreak -> unit -> t
(** [create ~seed ()] makes a fresh engine at time 0. Default seed 42,
    default tie-break {!Fifo} (the historical, byte-identical order). *)

val tiebreak : t -> tiebreak
(** The engine's same-instant tie-break policy. *)

val now : t -> int
(** Current virtual time in nanoseconds. *)

val rng : t -> Rng.t
(** The engine's root RNG; subsystems should [Rng.split] it. *)

val set_prof : t -> Prof.t -> unit
(** Install a profiler. The engine opens [engine.dispatch] /
    [engine.schedule] spans around event execution and scheduling, plus
    [engine.wheel_advance] / [engine.bucket_drain] around event
    extraction. *)

val set_observer : t -> (time:int -> unit) option -> unit
(** Install (or clear) a per-executed-event observer, called with the
    event's virtual time after its handler returns. Pure observation for
    coverage signals: the observer runs outside the scheduling path,
    consumes no sequence numbers, and must not schedule events — so an
    observed run is event-for-event identical to an unobserved one. *)

val tap : t -> Trace.Tap.t
(** The event tap every subsystem on this engine emits through (see
    {!Trace.Tap}); no subscriber until an observer subscribes. *)

val schedule : ?daemon:bool -> t -> after:int -> (unit -> unit) -> handle
(** [schedule t ~after fn] runs [fn] at time [now t + after].
    [after] must be non-negative. [daemon] (default false) marks
    housekeeping events (scheduler ticks, samplers) that should not keep
    {!run_until_quiet} alive. *)

val schedule_at : ?daemon:bool -> t -> time:int -> (unit -> unit) -> handle
(** [schedule_at t ~time fn] runs [fn] at absolute [time] (>= [now t]). *)

val cancel : t -> handle -> unit
(** [cancel t h] prevents the event from running if it has not run yet.
    The event immediately stops counting as pending or live work;
    its slot stays queued as a tombstone until its deadline reaps it or
    a compaction sweep drops it (the queue compacts in one O(n) pass
    whenever tombstones outnumber live events, so cancel-heavy fault
    plans cannot grow it without bound). Stale handles — the event
    already ran, or was already cancelled — are ignored. *)

val run : ?until:int -> t -> unit
(** [run ?until t] executes events in time order. Stops when the queue is
    empty, [stop] is called, or the next event is past [until] (absolute
    time). If [until] is given the clock is advanced to [until] on return
    (unless stopped earlier). *)

val step : t -> bool
(** [step t] executes the single next live event; [false] if no live
    event remained or the engine is stopped. *)

val stop : t -> unit
(** Halt the run loop after the current event; used e.g. on simulated OOM. *)

val stopped : t -> bool
(** Whether [stop] has been called. *)

val pending : t -> int
(** Number of queued live events (O(1) counter). Cancelled handles may
    stay queued until their scheduled time but are not counted. *)

val executed : t -> int
(** Total number of events executed so far (diagnostic). *)

val compactions : t -> int
(** Number of tombstone-compaction sweeps performed (diagnostic). *)

val wheel_occupancy : t -> int
(** Events currently held by the timer wheel (buckets + overflow +
    front heap, tombstones included). Diagnostic gauge; excludes the
    active dispatch batch. *)

val cascades : t -> int
(** Timer-wheel buckets cascaded down a level so far. *)

val spills : t -> int
(** Events that landed in the out-of-horizon overflow heap. *)

val run_until_quiet : ?horizon:int -> t -> unit
(** Run while there is live work: non-daemon events queued or processes
    suspended on conditions. Stops when only daemon events (ticks,
    samplers) remain, when [stop] is called, or at [horizon]. This is how
    workloads run "to completion" without replaying scheduler ticks out to
    an arbitrary horizon. *)

val incr_waiters : t -> unit
(** Register a suspended process (used by {!Process.Cond}). *)

val decr_waiters : t -> unit

val every : t -> period:int -> ?phase:int -> (unit -> bool) -> unit
(** [every t ~period ?phase fn] first runs [fn] at [now + phase] (default
    [period]) and then every [period] ns for as long as [fn] returns [true]
    and the engine is not stopped. *)

val debug_no_batch_sort : bool ref
(** Test-only fault injection: when true, the engine skips the Shuffle
    same-instant batch sort, deliberately breaking tie-break order. The
    QCheck model suite uses this to prove it detects ordering bugs.
    Never set elsewhere. *)
