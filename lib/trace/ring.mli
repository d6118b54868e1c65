(** Bounded ring buffer that drops the {e oldest} element on overflow, so a
    long run always retains the most recent window of trace events. *)

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] is an empty ring holding at most [capacity]
    elements. Raises [Invalid_argument] if [capacity <= 0]. *)

val length : 'a t -> int

val dropped : 'a t -> int
(** Elements overwritten because the ring was full. *)

val push : 'a t -> 'a -> unit
(** Append an element; if the ring is full, the oldest one is dropped. *)

val iter : 'a t -> ('a -> unit) -> unit
(** Iterate oldest to newest. *)

val iter_rev : 'a t -> ('a -> unit) -> unit
(** Iterate newest to oldest. *)

val to_list : 'a t -> 'a list
(** Contents, oldest first. *)

val recent : 'a t -> int -> 'a list
(** [recent t n]: the newest [min n (length t)] elements, oldest first —
    the tail of {!to_list} without materializing the whole ring, so
    newest-window dumps of a large ring stay O(n). Negative [n] is
    treated as 0. *)

val clear : 'a t -> unit
