(** Double-ended queue over a power-of-two ring buffer.

    Pushes at the back and pops at both ends are O(1), amortized over the
    ring's doublings, and allocate nothing once the ring has grown. A
    popped slot keeps its element until a later push overwrites it, so a
    popped value stays reachable from the deque until then. *)

type 'a t

val create : unit -> 'a t
(** An empty deque. The ring is allocated at the first push. *)

val is_empty : 'a t -> bool
val push_back : 'a t -> 'a -> unit

val pop_front_exn : 'a t -> 'a
(** Remove and return the front element, allocating nothing.
    @raise Invalid_argument if the deque is empty. *)

val pop_back_exn : 'a t -> 'a
(** Remove and return the back element, allocating nothing.
    @raise Invalid_argument if the deque is empty. *)
