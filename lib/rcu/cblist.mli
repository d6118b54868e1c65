(** RCU callback list (one per CPU): a flat ring of callbacks.

    Callbacks are enqueued with the grace-period cookie they must wait for
    (cookies are non-decreasing in enqueue order, as in Linux's
    [rcu_segcblist]), wait until that grace period completes, and are then
    advanced to the done part of the ring, from which the softirq-style
    invoker drains them in throttled batches, oldest first. Once the ring
    has grown to the backlog, enqueue, advance and drain allocate
    nothing. *)

type t

val create : unit -> t

val enqueue : t -> cookie:int -> (unit -> unit) -> unit
(** [enqueue cbl ~cookie fn] appends a callback that becomes invocable once
    the grace period identified by [cookie] has completed. [cookie] must be
    >= every previously enqueued cookie (asserted). *)

val advance : t -> completed:int -> int
(** [advance cbl ~completed] makes every waiting callback whose cookie is
    [<= completed] invocable; returns how many moved. *)

val drain : t -> max:int -> f:((unit -> unit) -> unit) -> int
(** [drain cbl ~max ~f] removes up to [max] invocable callbacks, oldest
    first, applying [f] to each; returns how many were drained (the count
    the list already maintains — no [List.length] walk, no intermediate
    list). The batch size is fixed before the first invocation:
    callbacks that [f]'s side effects enqueue or advance are not drained
    until the next pass. *)

val waiting : t -> int
(** Callbacks still waiting for their grace period. *)

val ready : t -> int
(** Callbacks whose grace period completed but that have not been invoked. *)

val total : t -> int
(** [waiting + ready]. *)

val next_cookie : t -> int option
(** Cookie of the oldest waiting callback, if any: the grace period that
    must complete next for progress. *)
