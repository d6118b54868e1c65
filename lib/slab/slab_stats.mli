(** Per-slab-cache statistics.

    Counts exactly the attributes the paper's evaluation reports:
    object-cache hits (Fig. 7), object-cache churns = refill/flush pairs
    (Fig. 8), slab churns = grow/shrink pairs (Fig. 9), peak slab usage
    (Fig. 10) and total fragmentation (Fig. 11). *)

type t

val create : unit -> t

(** {1 Incrementors} (called by the allocator policies) *)

val hit : t -> unit
val miss : t -> unit
val alloc : t -> unit
val free : t -> unit
val deferred_free : t -> unit
val refill : t -> unit
val flush : t -> unit
val grow : t -> unit
val shrink : t -> unit
val premove : t -> unit
val merge : t -> n:int -> unit
val latent_overflow : t -> unit
val preflush_pass : t -> n:int -> unit
val oom_delayed : t -> unit

val grow_retry : t -> unit
(** A grow-path page allocation failed transiently and was retried after
    backoff (robustness path; see {!Frame.grow}). *)

val emergency_flush : t -> n:int -> unit
(** One emergency reclaim pass under [Critical] pressure freed [n] ripe
    latent objects (graceful-degradation path). *)

val set_current_slabs : t -> int -> unit
(** Updates current slab count and the peak watermark. *)

(** {1 Snapshot} *)

type snapshot = {
  allocs : int;  (** Allocation requests served. *)
  frees : int;  (** Immediate frees. *)
  deferred_frees : int;  (** Deferred frees requested. *)
  hits : int;  (** Allocations served directly from the object cache. *)
  misses : int;
  refills : int;
  flushes : int;
  grows : int;
  shrinks : int;
  premoves : int;
  merges : int;  (** Merge operations (latent -> object cache). *)
  merged_objs : int;
  latent_overflows : int;  (** Deferred objects routed to latent slabs. *)
  preflush_passes : int;
  preflushed_objs : int;
  ooms_delayed : int;
  grow_retries : int;  (** Transient grow failures retried with backoff. *)
  emergency_flushes : int;  (** Emergency reclaim passes under pressure. *)
  emergency_flushed_objs : int;
  current_slabs : int;
  peak_slabs : int;
}

val snapshot : t -> snapshot

val hit_rate : snapshot -> float
(** Fraction of allocation requests served from the object cache, in
    percent (Fig. 7's metric). *)

val ocache_churns : snapshot -> int
(** Refill/flush pairs: [min refills flushes] (Fig. 8's metric). *)

val slab_churns : snapshot -> int
(** Grow/shrink pairs: [min grows shrinks] (Fig. 9's metric). *)

val pp : Format.formatter -> snapshot -> unit
