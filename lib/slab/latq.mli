(** Latent queues keyed by grace-period cookie: the per-CPU latent
    caches. A slab's latent list sits in the object store beside the
    slab's free stack ([Frame.env]'s [latents]). *)

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
