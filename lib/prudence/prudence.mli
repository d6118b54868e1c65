(** The Prudence dynamic memory allocator (paper §4, Algorithm 1).

    Prudence is slab-based like {!Slab.Slub} but tightly integrated with
    the synchronization mechanism: a deferred free ({!free_deferred},
    Listing 2) does not register an RCU callback — the object goes into a
    per-CPU {e latent cache} (bounded by the object-cache size) or its
    slab's {e latent list}, stamped with the grace-period cookie obtained
    from {!Rcu.snapshot}. The allocator itself decides when the object's
    memory is reused:

    - {b merge} (Algorithm 1 l.60-65): on allocation miss, ripe latent
      objects are merged into the object cache before any refill;
    - {b partial refill} (l.14): refills leave room for latent objects that
      will merge after the grace period, avoiding a later overflow flush;
    - {b pre-flush}: when an object-cache flush is foreseeable
      (cache + latent > capacity), latent objects are migrated to latent
      slabs during CPU idle time, rate-adaptively;
    - {b slab pre-movement} (l.52-59): slabs move between node lists as
      soon as deferred objects make their future state certain;
    - {b fragmentation-aware slab selection} (§4.2): refill sources are
      chosen among the first [scan_depth] partial slabs to minimize future
      fragmentation, skipping slabs that are mostly deferred;
    - {b OOM delay} (l.31-32): if allocation fails while deferred objects
      exist, wait a grace period and retry instead of declaring OOM.

    This eliminates extended object lifetimes entirely: an object is
    reusable the instant its grace period completes. *)

type config = {
  scan_depth : int;
      (** Partial slabs examined during slab selection (paper: 10). *)
  preflush_enabled : bool;  (** Idle-time latent-cache pre-flush. *)
  preflush_chunk : int;
      (** Objects migrated per idle pass in the less aggressive mode. *)
  preflush_interval_ns : int;  (** Gap between idle passes. *)
  latent_cap : int option;
      (** Override for the latent-cache bound (default: object-cache
          capacity, §4.1). [Some 0] disables the latent cache entirely
          (ablation). *)
  wait_on_oom : bool;
      (** Delay OOM by waiting for a grace period when deferred objects
          exist. *)
  emergency_flush : bool;
      (** Graceful degradation (default off): under [Critical] memory
          pressure — and as a last step before the OOM delay — flush ripe
          latent objects back to their slabs and eagerly shrink free slabs,
          reclaiming everything that needs no further waiting. *)
  unsafe_skip_gp : bool;
      (** Fault injection: treat every deferred object as immediately
          ripe. Violates RCU safety — used to prove the
          {!Rcu.Readers} checker catches premature reuse. *)
}

val default_config : config

type t

val create : ?config:config -> Slab.Frame.env -> Rcu.t -> t
(** [create env rcu] builds a Prudence instance over RCU grace periods
    ({!Slab.Smr.of_rcu}). It registers a grace-period hook with [rcu] to
    decay per-CPU rate estimates and to keep grace periods running while
    latent objects exist. *)

val create_smr :
  ?config:config -> ?label:string -> Slab.Frame.env -> Slab.Smr.t -> t
(** [create_smr env smr] builds a Prudence instance over an arbitrary
    SMR backend: deferred frees are stamped with [smr.defer] tokens and
    ripen at [smr.ripe_upto]; the OOM-delay path uses [smr.wait].
    [label] names the {!backend} (default ["prudence"]). *)

val env : t -> Slab.Frame.env
val smr : t -> Slab.Smr.t
val config : t -> config

val create_cache : t -> name:string -> obj_size:int -> Slab.Frame.cache
(** Create (or look up) a latent-aware slab cache. *)

val alloc :
  t -> ?may_wait:bool -> Slab.Frame.cache -> Sim.Machine.cpu ->
  Slab.Frame.objekt option
(** Algorithm 1 MALLOC. [may_wait] (default true) permits the OOM-delay
    path, which suspends the calling process for a grace period; pass
    [false] outside process context. *)

val free : t -> Slab.Frame.cache -> Sim.Machine.cpu -> Slab.Frame.objekt -> unit
(** Regular free. The overflow flush size accounts for latent objects
    (§4.2 "object cache flush"). *)

val free_deferred :
  t -> Slab.Frame.cache -> Sim.Machine.cpu -> Slab.Frame.objekt -> unit
(** Algorithm 1 FREE_DEFERRED: Listing 2's turnkey replacement for
    [call_rcu]. *)

val attach_pressure : t -> Mem.Pressure.t -> unit
(** When [config.emergency_flush] is set, register an emergency reclaim
    to run on the transition to [Critical] pressure and as an OOM handler
    (reporting progress so the failed allocation retries). The reclaim
    never waits: it drains ripe latent-cache objects to their slabs,
    harvests every ripe latent-slab object and eagerly shrinks free slabs
    to the floor; it is counted as emergency flushes in the cache stats
    and traced as [Emergency_flush]. No-op otherwise. *)

val settle : t -> unit
(** Process-context helper: wait for grace periods and recycle every
    outstanding deferred object (latent caches and latent slabs), so
    end-of-run measurements see a quiesced allocator. *)

val backend : t -> Slab.Backend.t

val latent_outstanding : t -> int
(** Deferred objects currently held in latent caches/slabs, all caches. *)
