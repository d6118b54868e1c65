(** Coroutine processes over OCaml effect handlers.

    Simulation actors (workload threads, the RCU grace-period driver, the
    endurance sampler, ...) are written as plain sequential functions that
    suspend on virtual time via {!sleep} or on conditions via {!Cond.wait}.
    Internally each process runs under an effect handler that converts
    suspensions into engine events, so all actors interleave
    deterministically on the single real thread. Each process gets one
    record at spawn holding its parked continuation, a resume closure
    and the handler's sleep reply, so a sleep allocates only the
    runtime's continuation and the effect value (5 words), and a wakeup
    allocates nothing.

    Restrictions: {!sleep}, {!yield} and {!Cond.wait} may only be performed
    from code (transitively) called from a process body passed to {!spawn};
    calling them from a bare engine event raises [Effect.Unhandled]. *)

val spawn : Engine.t -> (unit -> unit) -> unit
(** [spawn eng body] starts a process executing [body ()] at the current
    virtual time. The process ends when [body] returns. Exceptions escaping
    [body] propagate out of the engine's run loop. *)

val sleep : Engine.t -> int -> unit
(** [sleep eng ns] suspends the calling process for [ns] nanoseconds of
    virtual time. [sleep eng 0] yields to other events at the same time.
    [eng] must be the engine the process was spawned on; the wakeup is
    scheduled there. *)

val yield : Engine.t -> unit
(** [yield eng] is [sleep eng 0]. *)

(** Condition variables for processes. *)
module Cond : sig
  type t
  (** A broadcast condition bound to an engine. *)

  val create : Engine.t -> t
  (** [create eng] makes a condition whose wakeups are scheduled on [eng]. *)

  val wait : t -> unit
  (** Suspend the calling process until the next {!broadcast}. Re-check your
      predicate in a loop, as with any condition variable. *)

  val broadcast : t -> unit
  (** Wake every waiter at the current virtual time, in the order they
      began waiting. May be called from any context (process or plain
      event). *)

  val waiters : t -> int
  (** Number of processes currently blocked on the condition (O(1)). *)
end

val wait_until : Cond.t -> (unit -> bool) -> unit
(** [wait_until c pred] returns immediately if [pred ()]; otherwise
    blocks on [c] until a broadcast after which [pred ()] holds. *)
