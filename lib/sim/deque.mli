(** Double-ended queue over a power-of-two ring buffer.

    Pushes and pops at both ends are O(1), amortized over the ring's
    doublings, and allocate nothing once the ring has grown, except for
    the [Some] of the option-returning pops and peeks. A popped slot
    keeps its element until a later push overwrites it, so a popped
    value stays reachable from the deque until then; {!clear} likewise
    only resets the indices. *)

type 'a t

val create : unit -> 'a t
(** An empty deque. The ring is allocated at the first push. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit
val push_front : 'a t -> 'a -> unit

val pop_front_exn : 'a t -> 'a
(** Remove and return the front element, allocating nothing.
    @raise Invalid_argument if the deque is empty. *)

val pop_back_exn : 'a t -> 'a
(** Remove and return the back element, allocating nothing.
    @raise Invalid_argument if the deque is empty. *)

val pop_front : 'a t -> 'a option
val pop_back : 'a t -> 'a option
val peek_front : 'a t -> 'a option
val peek_back : 'a t -> 'a option

val to_list : 'a t -> 'a list
(** Front first. *)

val clear : 'a t -> unit
