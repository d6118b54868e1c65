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

val create : name:string -> Trace.Tap.t -> t
(** [create ~name tap] is a fresh, uncontended lock that emits on [tap].
    [name] labels stats and events. *)

val acquire : t -> cpu:int -> now:int -> hold:int -> int
(** [acquire l ~cpu ~now ~hold] simulates [cpu] acquiring [l] at time
    [now] and holding it for [hold] ns. Returns the total delay (queueing
    wait + hold) the caller experiences; 0 wait when uncontended. Emits
    [Lock_acquire] on the lock's tap, then [Lock_contended] with the wait
    if it had to wait, labelled with the lock's name. *)

val acquisitions : t -> int
(** Total number of acquisitions so far. *)

val contended : t -> int
(** Number of acquisitions that had to wait. *)

val total_wait_ns : t -> int
(** Sum of queueing waits over all acquisitions, in ns. *)
