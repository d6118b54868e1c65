(** Virtual-time contended lock.

    Models a spinlock (e.g. the slab node-list lock) analytically: the lock
    records the virtual time at which it next becomes free; an acquirer that
    arrives earlier is charged the residual wait. This captures
    serialization and contention cost without blocking simulation processes,
    which is exactly what the paper's node-lock contention argument needs
    (bursty parallel flushes all hitting one lock).

    The caller is responsible for charging the returned delay to the
    acquiring CPU (see {!Machine.consume}). *)

type t

val create : name:string -> t
(** [create ~name] is a fresh, uncontended lock. [name] labels stats. *)

val acquire :
  ?tracer:Trace.t -> ?cpu:int -> t -> now:int -> hold:int -> int
(** [acquire l ~now ~hold] simulates acquiring [l] at time [now] and holding
    it for [hold] ns. Returns the total delay (queueing wait + hold) the
    caller experiences; 0 wait when uncontended.

    When a live [tracer] is passed, the acquisition emits a lock-acquire
    event on [cpu] (and a lock-contended event plus a lock-wait histogram
    sample if it had to wait), labelled with the lock's name. *)

val acquisitions : t -> int
(** Total number of acquisitions so far. *)

val contended : t -> int
(** Number of acquisitions that had to wait. *)

val total_wait_ns : t -> int
(** Sum of queueing waits over all acquisitions, in ns. *)

val total_hold_ns : t -> int
(** Sum of hold times, in ns. *)

val reset_stats : t -> unit
(** Zero the counters (not the lock availability time). *)
