(** Shared slab-cache machinery.

    Implements the structure of Fig. 2/Fig. 4 of the paper: a slab cache is
    a set of per-CPU object caches plus per-NUMA-node lists of slabs
    (full / partial / free); each slab is [2^order] contiguous pages carved
    into equal-sized objects. Prudence extends every object cache with a
    latent cache and every slab with a latent list (Fig. 4); the frame
    carries both so the SLUB baseline ({!Slub}) and Prudence share
    accounting, and policies differ only in how they use it.

    All operations charge virtual time to the CPU performing them through
    the {!Costs} model and the node's {!Sim.Simlock}. *)

(** {1 Types} *)

type grow_retry_policy = {
  max_retries : int;  (** Backoff attempts before declaring fatal OOM. *)
  base_backoff_ns : int;  (** First retry delay; doubles per attempt. *)
}
(** Retry-with-backoff policy for transient page-allocation failures in the
    grow path (see {!grow}). Requires process context (the backoff sleeps);
    disabled by default. *)

type env = {
  machine : Sim.Machine.t;
  buddy : Mem.Buddy.t;
  pressure : Mem.Pressure.t;
  page_lock : Sim.Simlock.t;
      (** The page allocator's zone lock: slab grow/shrink serializes here
          with a hold that scales with slab order (page zeroing), the
          driver of the baseline's large-object collapse in Fig. 6. *)
  tap : Trace.Tap.t;
      (** The engine's event tap ({!Sim.Engine.tap}). The frame emits
          the object lifecycle on it: [Alloc] from {!hand_to_user},
          [Free] from {!release_from_user}, [Defer] from
          {!stamp_deferred}, [Pool] on every free-pool entry and
          [Page_release] from {!destroy_slab}; plus its timeline events
          (refill, flush, grow, shrink, OOM) and, through the locks,
          lock events. The tracer, the shadow heap, the anatomy recorder
          and the reader checker subscribe to it. *)
  mutable grow_retry : grow_retry_policy option;
      (** When set, {!grow} retries transient page-alloc failures (those
          {!Mem.Buddy.would_satisfy} proves injected, not genuine
          exhaustion) with bounded exponential virtual-time backoff. *)
  mutable unsafe_destroy_latent : bool;
      (** Checker mutation knob (default [false]): lets {!shrink_node}
          destroy pre-moved slabs whose objects are all latent — returning
          a page to the buddy while objects on it may still be inside
          their grace period. The destroy path scrubs the latent counters,
          so only the tap's [Page_release] events can tell. Never
          set outside [--mutate=free-latent-page] self-tests. *)
  mutable next_oid : int;
  mutable next_sid : int;
}

val make_env : pressure:Mem.Pressure.t -> Sim.Machine.t -> Mem.Buddy.t -> env

type ostate =
  | Free_in_slab  (** On its slab's freelist. *)
  | In_object_cache  (** In some CPU's object cache, ready to allocate. *)
  | Allocated  (** Held by a mutator (or deferred and not yet released). *)
  | In_latent_cache  (** Deferred; in a CPU's latent cache (Prudence). *)
  | In_latent_slab  (** Deferred; parked on its slab's latent list. *)

val pp_ostate : Format.formatter -> ostate -> unit

type list_id = L_full | L_partial | L_free | L_unlinked

val pp_list_id : Format.formatter -> list_id -> unit

type objekt = private {
  oid : int;  (** Unique object id (for the safety checker). *)
  parent : slab;
  mutable ostate : ostate;
  mutable gp_cookie : int;
      (** Grace period this deferred object waits for (Prudence). *)
  mutable touched : bool;
      (** Whether a mutator has ever used this object's memory (first
          touch is charged cold-miss cost). *)
}

and slab = private {
  sid : int;
  color : int;  (** Cache-colouring offset index (cycled per §4.3). *)
  node_id : int;
  cache : cache;
  page : int;  (** First page of the slab's buddy block, of order [cache.order]. *)
  capacity : int;
  mutable free_objs : objekt array;
      (** The slab's free objects: a stack of [capacity] slots whose live
          part is [free_objs.(0 .. free_n - 1)], top last. Filled once at
          {!grow}, so the first pop returns the lowest oid. *)
  mutable free_n : int;
  latent_objs : objekt Latq.t;
      (** Deferred objects parked on this slab with their grace-period
          cookies, in push order; the arrays are allocated at the first
          latent push, so the SLUB baseline never pays for them. *)
  mutable latent_n : int;
  mutable in_flight : int;
      (** Objects in object caches, latent caches, or held by mutators. *)
  mutable on_list : list_id;
  links : links;  (** Intrusive links of the node list named by [on_list]. *)
  latent_links : links;
      (** Intrusive links of the node's latent-slab list, which the slab
          is on exactly while [latent_n > 0]. *)
  self : slab option;
      (** [Some] of this record, made once at {!grow}: the value its
          neighbours and the selectors hand out, so linking, unlinking
          and selecting allocate nothing. *)
}

and links = private { mutable prev : slab option; mutable next : slab option }

and slab_list = private {
  mutable head : slab option;
  mutable tail : slab option;
  mutable len : int;
}
(** A node's slab list: head and tail of a chain linked through the
    slabs themselves. *)

and node = private {
  nid : int;
  lock : Sim.Simlock.t;
  full : slab_list;
  partial : slab_list;
  free_slabs : slab_list;
  latent_slabs : slab_list;
      (** Slabs holding latent objects, oldest first, linked through
          [latent_links]; Prudence harvests ripe objects from the front
          after each grace period. *)
}

and pcpu = private {
  cpu : Sim.Machine.cpu;
  mutable ocache : objekt array;
      (** The object cache: a stack whose live part is
          [ocache.(0 .. ocache_n - 1)], top last. [[||]] until the first
          push; doubles whenever a push finds it full. *)
  mutable ocache_n : int;
  latent : objekt Latq.Fifo.t;
      (** Prudence's latent cache: one deque plus a run-length cookie
          index for O(distinct-cookies) ripeness queries. *)
  mutable preflush_scheduled : bool;
  mutable recent_allocs : int;  (** Since the last grace period (rates). *)
  mutable recent_releases : int;
}

and cache = private {
  name : string;
  obj_size : int;
  order : int;
  objs_per_slab : int;
  ocache_cap : int;
  batch : int;
  latent_aware : bool;
      (** Whether slab placement considers latent objects (Prudence). *)
  latent_cap : int;  (** Latent-cache bound (= [ocache_cap] per §4.1). *)
  env : env;
  nodes : node array;
  pcpus : pcpu array;
  stats : Slab_stats.t;
  mutable color_next : int;
  mutable total_slabs : int;
  mutable live_objs : int;  (** Objects currently requested by mutators. *)
  mutable latent_count : int;
      (** Deferred objects currently in latent caches + latent slabs. *)
  mutable free_target : (unit -> int) option;
      (** Policy estimate of how many free slabs a node should keep before
          shrinking (Prudence derives it from latent objects + recent
          allocation rate — a "hint about the future"). *)
}

exception Oom
(** The slab API's out-of-memory report: an allocator's [alloc] returns
    the object itself or raises [Oom], after its OOM handling (the
    pressure watcher's handler chain, and Prudence's OOM delay) has
    failed. One constant exception, so neither outcome allocates. *)

(** {1 Slab lists}

    Both walks read a slab's successor before visiting it, so [f] may
    move the slab it is given to another list (relocate it, or harvest
    it off the latent-slab list). *)

val iter_list : (slab -> unit) -> slab_list -> unit
(** Front to back over one of a node's [full], [partial] or
    [free_slabs] lists. *)

val iter_latent : (slab -> unit) -> node -> unit
(** Oldest first over the node's latent-slab list. *)

(** {1 Cache construction} *)

val create_cache :
  env ->
  name:string ->
  obj_size:int ->
  ?latent_aware:bool ->
  ?latent_cap:int ->
  unit ->
  cache
(** Builds a cache sized by {!Size_class} heuristics over the machine's
    CPUs and NUMA nodes. [latent_aware] (default false) enables Prudence's
    latent bookkeeping in slab placement; [latent_cap] defaults to the
    object-cache capacity. *)

val slab_bytes : cache -> int
val node_for : cache -> Sim.Machine.cpu -> node
val pcpu_for : cache -> Sim.Machine.cpu -> pcpu

(** {1 Accounting queries} *)

val live_objects : cache -> int
val total_slabs : cache -> int

val latent_total : cache -> int
(** Deferred objects currently parked in latent caches and latent slabs
    (O(1) counter). *)

val set_free_target : cache -> (unit -> int) -> unit
(** Install a policy estimate of the free slabs each node keeps before
    shrinking (floored at {!Size_class.min_free_slabs}); Prudence sets it
    from latent objects + recent allocation rate ("hints about the
    future"). *)

val fragmentation : cache -> float
(** Total fragmentation [f_t = allocated bytes / requested bytes] (paper
    §4.2). Returns [nan] when no objects are live. *)

val prof : cache -> Prof.t
(** The machine's profiler ({!Prof.null} when profiling is off). The
    frame opens [slab.grow] / [slab.latq_push] / [slab.latq_harvest]
    spans; backends open the alloc/free/defer spans. *)

val event : cache -> Sim.Machine.cpu -> Trace.Event.kind -> int -> unit
(** [event cache cpu kind a] emits [kind] on the tap from [cpu], labelled
    with the cache name, with payloads [a] and 0. The frame itself emits
    refill, flush, grow, shrink and OOM events; allocator policies emit
    their own (hit/miss, merge, pre-flush, allocation cost). *)

val truly_free : slab -> bool
(** All objects back on the freelist: the slab's pages may be returned. *)

val desired_list : slab -> list_id
(** The node list [slab]'s counters dictate. With [latent_aware]: a slab
    whose remaining objects are all free-or-latent pre-moves to the free
    list, and a full slab with latent objects pre-moves to the partial
    list (paper, "slab pre-movement"). *)

(** {1 Locked node-list operations}

    Each of these charges the caller CPU the configured lock hold plus any
    queueing delay, modelling node-lock contention. *)

val relocate : cache -> slab -> bool
(** Place [slab] on its {!desired_list}. Returns [true] if the slab
    changed lists. Does not itself charge lock time (callers batch it
    under one acquisition). *)

(** {1 Object movement} *)

val take_free_obj_exn : slab -> objekt
(** Pop one object from the slab freelist; caller must set its state and
    relocate the slab. Allocates nothing; raises [Invalid_argument] when
    the freelist is empty — check [free_n] first. *)

val put_free_obj : slab -> objekt -> unit
(** Push an object back on its slab's freelist (emits [Pool]); caller
    relocates the slab. *)

val push_ocache : cache -> pcpu -> objekt -> unit

val pop_ocache_exn : pcpu -> objekt
(** Pop the object cache's top object. Allocates nothing; raises
    [Invalid_argument] when the object cache is empty — check [ocache_n]
    first on hot paths. *)

val pop_ocache : pcpu -> objekt option
(** {!pop_ocache_exn}, [None] when the object cache is empty. *)

val hand_to_user : cache -> Sim.Machine.cpu -> objekt -> unit
(** Mark [objekt] allocated, bump live counters, charge the first-touch
    cost if its memory was never used. Emits [Alloc] first. *)

val release_from_user : cache -> Sim.Machine.cpu -> objekt -> unit
(** Mark a mutator release (immediate free path): decrements live count.
    Emits [Free] before the state assert. *)

val stamp_deferred : cache -> Sim.Machine.cpu -> objekt -> cookie:int -> unit
(** Record the grace-period cookie and decrement the live count (the
    mutator no longer holds the object). Emits [Defer] from [cpu] before
    the state assert. *)

val obj_to_latent_cache : cache -> pcpu -> objekt -> unit
val obj_to_latent_slab : cache -> objekt -> unit
(** Move a deferred object onto its slab's latent list. Caller relocates. *)

val latent_cache_pop_ripe : cache -> pcpu -> completed:int -> objekt option
(** Pop the oldest latent-cache object if its grace period completed. *)

val latent_cache_merge_ripe :
  cache -> pcpu -> completed:int -> limit:int -> int
(** Algorithm 1's merge: move up to [limit] ripe latent-cache objects,
    oldest first, onto the object cache ({!push_ocache}) and return the
    count. Allocation-free (the merge hot path). *)

val latent_cache_pop_newest : cache -> pcpu -> objekt
(** Pop the newest latent-cache object (pre-flush eviction order);
    raises [Invalid_argument] when the latent cache is empty. *)

val slab_harvest_ripe : slab -> completed:int -> int
(** Move every ripe latent object of [slab] back to its freelist,
    newest first; returns the count. Returns at once when no cookie is
    ripe; otherwise one walk over the slab's latent objects. Caller
    relocates. *)

(** {1 Slab lifecycle} *)

val grow : cache -> Sim.Machine.cpu -> slab option
(** Allocate pages for a new slab on [cpu]'s node, link it on the free
    list, charge grow cost. On buddy failure runs the pressure OOM chain
    once and retries; with [env.grow_retry] set, transient (injected)
    failures additionally retry with bounded exponential backoff, each
    attempt counted and traced as [Grow_retry]. [None] if memory is truly
    exhausted (or retries ran out). *)

val destroy_slab : cache -> slab -> unit
(** Unlink a {!truly_free} slab and return its pages. A slab destroyed
    with latent objects (only under [unsafe_destroy_latent]) emits one
    [Page_release] per latent object first. *)

val shrink_node : ?keep:int -> cache -> Sim.Machine.cpu -> node -> int
(** Destroy truly-free slabs while the node holds more than the policy's
    free target ([keep] overrides it; pass [~keep:0] for the emergency
    eager shrink under Critical pressure); returns how many were
    destroyed. At most a few slabs per call, like kernel shrinkers. *)

(** {1 Bulk cache <-> node transfers} *)

val refill_from_node :
  cache ->
  Sim.Machine.cpu ->
  want:int ->
  select:(node -> slab option) ->
  int
(** Move up to [want] free objects from node slabs into [cpu]'s object
    cache under one lock acquisition, using [select] to choose each source
    slab (this is where SLUB and Prudence differ). Returns objects moved
    and counts one refill operation if any moved. *)

val flush_to_node : cache -> Sim.Machine.cpu -> count:int -> unit
(** Move [count] objects from [cpu]'s object cache back to their slabs,
    deepest-popped first, under one lock acquisition per touched node,
    then run the shrink check on those nodes in reverse order of first
    touch. Counts one flush operation if any moved. *)

(** {1 Selection policies} *)

val select_slub : node -> slab option
(** SLUB's choice: first partial slab, else first free slab. *)

val select_prudence : scan_depth:int -> node -> slab option
(** Prudence's choice (§4.2 "reduces total fragmentation"): among the
    first [scan_depth] partial slabs, prefer the one minimizing future
    fragmentation — fewest latent objects, then most free objects; skips
    slabs whose allocated objects are mostly deferred. Falls back to the
    first of the first [scan_depth] free slabs with a free object, and
    returns [None] when neither list offers one. The relaxed pick is
    {!select_slub}, which Prudence uses after a failed grow. *)

(** {1 Per-CPU policy state helpers}

    The pcpu record is private; Prudence mutates its policy fields through
    these. *)

val set_preflush_scheduled : pcpu -> bool -> unit
val note_alloc : pcpu -> unit
(** Bump the per-CPU allocation-rate counter (pre-flush policy input). *)

val note_release : pcpu -> unit
(** Bump the per-CPU free/deferred-free rate counter. *)

val decay_rates : pcpu -> unit
(** Halve both rate counters; called once per grace period so the rates
    reflect "recent few grace period intervals" (§4.2). *)
