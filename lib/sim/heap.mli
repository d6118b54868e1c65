(** Array-backed min-heap (4-ary) over arbitrary elements.

    Holds the timer wheel's out-of-horizon overflow and below-cursor
    front events; also reusable as a generic priority queue. Elements
    are ordered by the comparison function supplied at creation time;
    ties are broken by insertion order only if the caller encodes a
    sequence number in the element (the wheel does). *)

type 'a t
(** A mutable min-heap holding elements of type ['a]. *)

val create : cmp:('a -> 'a -> int) -> unit -> 'a t
(** [create ~cmp ()] is an empty heap ordered by [cmp] (smallest first). *)

val is_empty : 'a t -> bool
(** [is_empty h] is true when [h] holds no element. *)

val push : 'a t -> 'a -> unit
(** [push h x] inserts [x] into [h]. Amortized O(log n). *)

val peek_exn : 'a t -> 'a
(** [peek_exn h] is the smallest element of [h], without removing it.
    Raises [Invalid_argument] on an empty heap; allocation-free. *)

val pop_exn : 'a t -> 'a
(** [pop_exn h] removes and returns the smallest element of [h]. Raises
    [Invalid_argument] on an empty heap; allocation-free. *)
