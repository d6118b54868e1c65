(** The SLUB-style baseline allocator (paper §2.3, §5.1).

    Allocation: per-CPU object cache first; on miss, refill a batch from
    the node's partial slabs (first-fit, like SLUB), growing the cache from
    the page allocator when the node has nothing free. Free: push into the
    object cache; on overflow, flush half back to the slabs and shrink the
    node when it accumulates too many free slabs.

    Deferred frees go through {!Rcu.call_rcu} (Listing 1): reclamation is
    entirely driven by the synchronization mechanism — batched, throttled,
    and oblivious of allocator state. This is precisely the behaviour whose
    pathologies (§3) Prudence removes. *)

type t

val create : Frame.env -> Rcu.t -> t
(** [create env rcu] makes a SLUB instance whose deferred frees are
    reclaimed by [rcu]'s callback machinery. *)

val env : t -> Frame.env
val rcu : t -> Rcu.t

val create_cache : t -> name:string -> obj_size:int -> Frame.cache
(** Create a named slab cache (or return the existing one by name). *)

val alloc : t -> Frame.cache -> Sim.Machine.cpu -> Frame.objekt
(** Allocate an object. Raises {!Frame.Oom} when the page allocator is
    exhausted even after running the OOM handler chain. *)

val free : t -> Frame.cache -> Sim.Machine.cpu -> Frame.objekt -> unit
(** Immediate free into the object cache (with overflow flushing). *)

val free_deferred : t -> Frame.cache -> Sim.Machine.cpu -> Frame.objekt -> unit
(** Listing 1: register a reclamation callback with RCU. The object's
    memory stays unavailable until a grace period elapses {e and} the
    throttled callback processing reaches it. *)

val settle : t -> unit
(** Process-context helper: repeat grace periods + callback drains until no
    deferred object is outstanding. *)

val backend : t -> Backend.t
(** Package as an allocator-agnostic {!Backend.t}. *)
