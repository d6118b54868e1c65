(** Latent-object queues keyed by grace-period cookie.

    A slab's latent list ({!t}) keeps its objects and their cookies in
    two flat arrays in push order, beside the minimum cookie: a push
    allocates nothing once the arrays exist, and a harvest returns at
    once while no cookie is ripe. See the implementation header for the
    ordering contract. *)

type 'a t
(** Multiset accepting cookies in any order (slab latent lists). *)

val create : capacity:int -> 'a t
(** An empty queue. Its arrays are allocated at the first push, with
    room for [capacity] elements (a slab's object count); a push past
    that doubles them. *)

val length : 'a t -> int

val push : 'a t -> cookie:int -> 'a -> unit
(** Add an element waiting on grace period [cookie]. O(1), in any
    cookie order. *)

val harvest : 'a t -> completed:int -> f:('b -> 'a -> unit) -> 'b -> int
(** [harvest t ~completed ~f x] removes every element whose cookie is
    [<= completed], applies [f x] to each newest-first (descending push
    order, the order a [List.partition] over the old newest-first list
    produced), and returns their count. Waiting elements keep their
    push order. When no cookie is ripe the harvest visits nothing;
    otherwise it visits each element once, so a waiting element is
    visited at most once per grace period it waits through. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Every element, by ascending cookie and newest first within a
    cookie. For audits, invariant checks and the page-release report of
    a mutated slab destroy. *)

val work : 'a t -> int
(** Instrumentation: total elements visited by [harvest] so far. Lets
    tests prove a harvest with nothing ripe touches nothing. *)

(** Cookie-monotone variant for per-CPU latent caches: payloads stay in
    one deque (push newest at the back, merge ripe from the front,
    pre-flush evicts from the back), and a run-length cookie index
    answers ripeness queries in O(distinct cookies). *)
module Fifo : sig
  type 'a t

  val create : unit -> 'a t
  val length : 'a t -> int

  val push_back : 'a t -> cookie:int -> 'a -> unit
  (** [cookie] must be >= every previously pushed cookie (asserted);
      grace-period snapshots are monotone per CPU. *)

  val oldest_ripe : 'a t -> completed:int -> bool
  (** Whether the queue is non-empty and its oldest element's grace
      period has completed. *)

  val pop_front : 'a t -> 'a
  (** Remove the oldest element; raises [Invalid_argument] when empty. *)

  val merge_ripe :
    'a t ->
    completed:int ->
    limit:int ->
    f:('b -> 'c -> 'a -> unit) ->
    'b ->
    'c ->
    int
  (** [merge_ripe t ~completed ~limit ~f x y] pops up to [limit] ripe
      elements, oldest first, applying [f x y] to each; returns how many
      moved. Equivalent to an [oldest_ripe]/[pop_front] loop, with runs
      consumed in batch. Passing the destination as [x] and [y] lets [f]
      be a toplevel function, so a merge allocates nothing. *)

  val pop_back : 'a t -> 'a
  (** Remove the newest element (pre-flush eviction order); raises
      [Invalid_argument] when empty. *)

  val ripe_count : 'a t -> completed:int -> int
  (** How many elements are past the horizon — O(distinct cookies),
      replacing the former O(length) deque walk on the refill path. *)

  val iter : ('a -> unit) -> 'a t -> unit
  (** Front (oldest) to back. *)
end
