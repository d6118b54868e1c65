(** Virtual-time cost model for allocator operations.

    The paper measures (§3.3) that, relative to an object-cache hit, a
    refill is 4x and a slab-cache grow is 14x as expensive. Those ratios are
    the backbone of this model; the remaining entries are set to plausible
    values consistent with them. All costs are in virtual nanoseconds and
    are charged to the CPU performing the operation, so they flow into
    workload throughput. The node-lock hold times interact with
    {!Sim.Simlock} to model contention under bursty parallel flushing. *)

type t = {
  hit : int;  (** Allocation served from the object cache. *)
  free_to_cache : int;  (** Free that just pushes into the object cache. *)
  refill : int;  (** Object-cache refill from node slabs (4x hit). *)
  refill_per_obj : int;  (** Added per object moved during refill. *)
  flush : int;  (** Object-cache flush into node slabs. *)
  flush_per_obj : int;
  grow : int;  (** Slab-cache grow: page allocation + slab init (14x hit). *)
  shrink : int;  (** Returning one free slab's pages. *)
  node_lock_hold : int;  (** Serialized time under the node-list lock. *)
  defer_enqueue : int;  (** free_deferred fast path / call_rcu enqueue. *)
  latent_put : int;  (** Placing an object in latent cache/slab. *)
  merge : int;  (** Merging ripe latent objects into the object cache. *)
  merge_per_obj : int;
  premove : int;  (** Pre-moving one slab between node lists. *)
  page_lock_hold : int;
      (** Serialized time in the page allocator (zone lock) per slab
          grow/shrink. *)
  page_zero_per_page : int;
      (** Additional serialized time per page of the slab (zeroing /
          higher-order assembly); makes large-object slabs the most
          expensive to churn, as in Fig. 6. *)
  cold_touch : int;
      (** First-touch penalty when a mutator receives an object on a page
          it has never used (cache/TLB misses). Recycled objects are hot —
          one of Prudence's structural advantages. *)
  cold_touch_per_256b : int;  (** Extra first-touch cost per 256 bytes. *)
  llc_bytes : int;
      (** Last-level-cache size of the (scaled-down) machine. *)
  llc_pressure : int;
      (** Extra per-allocation cost for each doubling of the resident
          footprint beyond [llc_bytes] (capped at 4 doublings): a leaking
          baseline drags every memory touch into DRAM/TLB misses. *)
}

val default : t
(** hit = 40 ns; the full refill path (hit + refill = 160 ns) is 4x a hit
    and the full grow path (hit + refill + grow = 560 ns) is 14x, matching
    the paper's measurements. *)
