(** Double-ended queue (amortized O(1) at both ends).

    Prudence's latent cache is a deque: ripe objects are merged from the
    front (oldest grace-period cookies first) while pre-flush evicts from
    the back (newest, furthest from being reusable). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit
val push_front : 'a t -> 'a -> unit
val pop_front : 'a t -> 'a option
val pop_back : 'a t -> 'a option
val peek_front : 'a t -> 'a option
val peek_back : 'a t -> 'a option

val to_list : 'a t -> 'a list
(** Front first. *)

val clear : 'a t -> unit
