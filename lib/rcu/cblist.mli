(** RCU callback list (one per CPU): a flat ring of callbacks.

    Each entry is a callback plus an int payload, like the kernel's
    [rcu_head] embedded in the object it frees: a caller that defers
    the same work for many objects enqueues one callback, made once,
    with each object's handle as the payload, and so allocates nothing
    per entry. Callbacks are enqueued with the grace-period cookie they
    must wait for (cookies are non-decreasing in enqueue order, as in
    Linux's [rcu_segcblist]), wait until that grace period completes,
    and are then advanced to the done part of the ring, from which the
    softirq-style invoker drains them in throttled batches, oldest
    first. Once the ring has grown to the backlog, enqueue, advance and
    drain allocate nothing. *)

type 'c t
(** A ring whose callbacks take a ['c] from the drainer (RCU passes the
    ring's CPU) and their payload. *)

val create : unit -> 'c t

val enqueue : 'c t -> cookie:int -> ('c -> int -> unit) -> int -> unit
(** [enqueue cbl ~cookie fn arg] appends a callback that becomes
    invocable once the grace period identified by [cookie] has
    completed; it will run as [fn x arg]. [cookie] must be >= every
    previously enqueued cookie (asserted). *)

val advance : 'c t -> completed:int -> int
(** [advance cbl ~completed] makes every waiting callback whose cookie is
    [<= completed] invocable; returns how many moved. *)

val drain : 'c t -> max:int -> 'c -> int
(** [drain cbl ~max x] removes up to [max] invocable callbacks, oldest
    first, and runs each as [fn x arg]; returns how many were drained
    (the count the list already maintains — no [List.length] walk, no
    intermediate list). The batch size is fixed before the first
    invocation: callbacks that the invoked ones enqueue or advance are
    not drained until the next pass. *)

val waiting : 'c t -> int
(** Callbacks still waiting for their grace period. *)

val ready : 'c t -> int
(** Callbacks whose grace period completed but that have not been invoked. *)

val total : 'c t -> int
(** [waiting + ready]. *)

val next_cookie : 'c t -> int option
(** Cookie of the oldest waiting callback, if any: the grace period that
    must complete next for progress. *)
