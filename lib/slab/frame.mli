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

type ostate =
  | Free_in_slab  (** On its slab's freelist. *)
  | In_object_cache  (** In some CPU's object cache, ready to allocate. *)
  | Allocated  (** Held by a mutator (or deferred and not yet released). *)
  | In_latent_cache  (** Deferred; in a CPU's latent cache (Prudence). *)
  | In_latent_slab  (** Deferred; parked on its slab's latent list. *)

val pp_ostate : Format.formatter -> ostate -> unit

type list_id = L_full | L_partial | L_free | L_unlinked

val pp_list_id : Format.formatter -> list_id -> unit

type objekt = private int
(** An object handle: an index into its env's object store, flat arrays
    of each object's parent slab, grace-period cookie, state and touched
    flag, and free-stack and latent-list entries; its oid follows from
    its slab (read them with {!oid}, {!state}, {!cookie} and {!parent}).
    A slab owns a contiguous range of handles; when it is destroyed the
    range stays with its table row for its cache's next grow, so the
    store follows the live slabs, not every object ever made. A handle
    therefore names an object only while its slab lives, and containers
    hold handles unboxed: moving one allocates nothing. *)

type slab = private int
(** A slab handle: an index into its env's slab table, which holds each
    slab's ints in one row (read them with {!sid}, {!free_n}, {!on_list}
    and the other accessors below). A destroyed slab's row goes to its
    cache's next grow, newest first, so a handle names a slab only while
    it lives. Lists, selectors and the object store hold slab handles
    unboxed, so linking, unlinking, selecting and growing allocate
    nothing. *)

type slab_list = private {
  mutable head : slab;
  mutable tail : slab;
  mutable len : int;
}
(** A node's slab list: head and tail ({!no_slab} when empty) of a chain
    linked through the slab table. *)

type env = private {
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
  mutable slabs : int array;
      (** The slab table, indexed by slab: one row of 16 ints per slab
          (sid, least latent cookie, node, page, base handle, first oid,
          capacity, the free, latent and in-flight counts, the list tag,
          the four list links, and its cache's place in [caches]).
          Empty until the first {!grow}, which makes room for 32 slabs,
          a table too large for the minor heap; a grow that finds it
          full doubles it. *)
  mutable slab_top : int;  (** Slabs below [slab_top] have been made. *)
  mutable caches : cache array;
      (** The caches that have grown a slab, in the order of their
          first grow: [caches.(0 .. n_caches - 1)]. *)
  mutable n_caches : int;
  mutable parents : Bytes.t;
      (** The object store, indexed by handle, in byte columns: each
          object's slab, a 32-bit entry at [4 * handle] (-1 for a handle
          of no live slab); its grace-period cookie, 32 bits at
          [4 * handle] in [cookies]; its state and touched bit, a byte
          in [flags]; and its free-stack and latent-list entries, two
          bytes each. That is 11 bytes per handle, 13 once the env has
          latent lists. Every column is empty until the first {!grow},
          which makes room for 2,048 handles (so that even the
          byte-per-handle flags are made in the major heap), and doubles
          when a grow needs room. *)
  mutable cookies : Bytes.t;
  mutable flags : Bytes.t;
  mutable stacks : Bytes.t;
      (** Free stacks, two bytes per handle: a slab's stack is the
          16-bit in-slab offsets at its own handles, bottom at its base
          handle. Filled once at {!grow}, so the first pop returns the
          lowest oid. *)
  mutable latents : Bytes.t;
      (** Latent lists, laid out as the free stacks are: a slab's latent
          objects in push order, as 16-bit in-slab offsets at its own
          handles. Empty until the env's first latent push, which makes
          it as large as the store, so the SLUB baseline never makes it;
          it grows with the store after that. A harvest reads each
          entry's cookie from [cookies]. *)
  mutable top : int;  (** Handles below [top] belong to some range. *)
  mutable latent_visits : int;
      (** Instrumentation: latent entries {!slab_harvest_ripe} has
          walked so far, so a test can show that a harvest with nothing
          ripe visits nothing. *)
}

and node = private {
  nid : int;
  lock : Sim.Simlock.t;
  full : slab_list;
  partial : slab_list;
  free_slabs : slab_list;
  latent_slabs : slab_list;
      (** Slabs holding latent objects, oldest first, linked through
          their latent links; Prudence harvests ripe objects from the
          front after each grace period. *)
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
  mutable total_slabs : int;
  mutable live_objs : int;  (** Objects currently requested by mutators. *)
  mutable latent_count : int;
      (** Deferred objects currently in latent caches + latent slabs. *)
  mutable free_target : (unit -> int) option;
      (** Policy estimate of how many free slabs a node should keep before
          shrinking (Prudence derives it from latent objects + recent
          allocation rate — a "hint about the future"). *)
  mutable spare : int;
      (** The newest destroyed slab of this cache, whose row and handle
          range the cache's next grow takes, or -1; each spare row's
          [next] link holds the next spare. *)
}

exception Oom
(** The slab API's out-of-memory report: an allocator's [alloc] returns
    the object itself or raises [Oom], after its OOM handling (the
    pressure watcher's handler chain, and Prudence's OOM delay) has
    failed, and {!grow} returns the slab or raises [Oom]. One constant
    exception, so neither outcome allocates. *)

val no_slab : slab
(** No slab: the end of a slab list, and what a selector returns when it
    finds none. *)

val make_env : pressure:Mem.Pressure.t -> Sim.Machine.t -> Mem.Buddy.t -> env

val set_grow_retry : env -> grow_retry_policy option -> unit
val set_unsafe_destroy_latent : env -> bool -> unit

(** {1 Objects} *)

val oid : cache -> objekt -> int
(** The object's unique id, numbered env-wide in grow order (for the
    safety checker and the event stream). *)

val state : cache -> objekt -> ostate

val cookie : cache -> objekt -> int
(** Grace period the object last waited for when deferred; 0 until its
    first deferral. *)

val parent : cache -> objekt -> slab
(** The object's slab; raises [Invalid_argument] for a handle of no live
    slab. *)

val of_int : env -> int -> objekt
(** The handle an int names, such as an RCU callback's payload; raises
    [Invalid_argument] unless it names an object of a live slab. *)

val cache_of : env -> objekt -> cache
(** The cache of the object's slab. *)

(** {1 Slabs}

    A slab's fields, read from its env's slab table; [cache] is the
    slab's cache. *)

val sid : cache -> slab -> int
(** The slab's id, numbered env-wide in grow order. *)

val node_id : cache -> slab -> int

val capacity : cache -> slab -> int
(** The slab's object count, [cache.objs_per_slab]. *)

val free_n : cache -> slab -> int
(** Objects on the slab's free stack. *)

val latent_n : cache -> slab -> int
(** Deferred objects parked on the slab's latent list. *)

val in_flight : cache -> slab -> int
(** Objects in object caches, latent caches, or held by mutators. *)

val on_list : cache -> slab -> list_id
(** The node list the slab is on. *)

val list_next : cache -> slab -> slab
(** The slab's successor on the node list {!on_list} names, or
    {!no_slab}. *)

val latent_next : cache -> slab -> slab
(** The slab's successor on its node's latent-slab list, which it is on
    exactly while {!latent_n} is positive, or {!no_slab}. *)

val free_obj : cache -> slab -> int -> objekt
(** [free_obj cache s i] is entry [i] of the slab's free stack, bottom
    first; raises [Invalid_argument] unless [0 <= i < free_n]. *)

val latent_obj : cache -> slab -> int -> objekt
(** [latent_obj cache s i] is entry [i] of the slab's latent list, in
    push order (oldest first); raises [Invalid_argument] unless
    [0 <= i < latent_n]. *)

(** {1 Slab lists}

    Both walks read a slab's successor before visiting it, so [f] may
    move the slab it is given to another list (relocate it, or harvest
    it off the latent-slab list). *)

val iter_list : cache -> (slab -> unit) -> slab_list -> unit
(** Front to back over one of a node's [full], [partial] or
    [free_slabs] lists. *)

val iter_latent : cache -> (slab -> unit) -> node -> unit
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

val truly_free : cache -> slab -> bool
(** All objects back on the freelist: the slab's pages may be returned. *)

val desired_list : cache -> slab -> list_id
(** The node list [slab]'s counters dictate. With [latent_aware]: a slab
    whose remaining objects are all free-or-latent pre-moves to the free
    list, and a full slab with latent objects pre-moves to the partial
    list (paper, "slab pre-movement"). *)

(** {1 Node-list placement} *)

val relocate : cache -> slab -> bool
(** Place [slab] on its {!desired_list}. Returns [true] if the slab
    changed lists. Does not itself charge lock time (callers batch it
    under one acquisition). *)

(** {1 Object movement} *)

val take_free_obj_exn : cache -> slab -> objekt
(** Pop one object from the slab freelist; caller must set its state and
    relocate the slab. Allocates nothing; raises [Invalid_argument] when
    the freelist is empty — check {!free_n} first. *)

val put_free_obj : cache -> slab -> objekt -> unit
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

val alloc_hit : cache -> Sim.Machine.cpu -> pcpu -> objekt
(** An allocation served from the object cache's top: pops it, counts
    the hit, emits [Alloc_hit] and hands the object to the user
    ({!hand_to_user}). Allocates nothing; raises [Invalid_argument] when
    the object cache is empty. *)

val release_from_user : cache -> Sim.Machine.cpu -> objekt -> unit
(** Mark a mutator release (immediate free path): decrements live count.
    Emits [Free] before the state assert. *)

val stamp_deferred : cache -> Sim.Machine.cpu -> objekt -> cookie:int -> unit
(** Record the grace-period cookie and decrement the live count (the
    mutator no longer holds the object). Emits [Defer] from [cpu] before
    the state assert. Raises [Invalid_argument], before it emits or
    records anything, for a cookie outside [0, 2^31 - 1]: the store
    keeps cookies in 32 bits. *)

val obj_to_latent_cache : cache -> pcpu -> objekt -> unit
val obj_to_latent_slab : cache -> objekt -> unit
(** Move a deferred object onto its slab's latent list. Caller relocates.
    Raises [Invalid_argument] when the list already holds the slab's
    capacity. *)

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

val slab_harvest_ripe : cache -> slab -> completed:int -> int
(** Move every ripe latent object of [slab] back to its freelist,
    newest first (descending push order), and return the count; waiting
    objects keep their push order. Returns at once while the slab's
    least cookie is unripe; otherwise one walk over its latent list, so
    a waiting object is visited at most once per grace period it waits
    through. Caller relocates. *)

(** {1 Slab lifecycle} *)

val grow : cache -> Sim.Machine.cpu -> slab
(** Allocate pages for a new slab on [cpu]'s node, link it on the free
    list, charge grow cost. On buddy failure runs the pressure OOM chain
    once and retries; with [env.grow_retry] set, transient (injected)
    failures additionally retry with bounded exponential backoff, each
    attempt counted and traced as [Grow_retry]. Raises {!Oom} if memory
    is truly exhausted (or retries ran out). Once the slab table and the
    object store have room, a grow allocates nothing. *)

val destroy_slab : cache -> slab -> unit
(** Unlink a {!truly_free} slab and return its pages. A slab destroyed
    with latent objects (only under [unsafe_destroy_latent]) emits one
    [Page_release] per latent object first, by descending cookie and
    oldest first within a cookie. *)

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
  select:(cache -> node -> slab) ->
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

val select_slub : cache -> node -> slab
(** SLUB's choice: first partial slab, else first free slab, else
    {!no_slab}. *)

val select_prudence : scan_depth:int -> cache -> node -> slab
(** Prudence's choice (§4.2 "reduces total fragmentation"): among the
    first [scan_depth] partial slabs, prefer the one minimizing future
    fragmentation — fewest latent objects, then most free objects; skips
    slabs whose allocated objects are mostly deferred. Falls back to the
    first of the first [scan_depth] free slabs with a free object, and
    returns {!no_slab} when neither list offers one. The relaxed pick is
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
(** Keep 7/8 of both rate counters; called once per grace period, so a
    counter holds about eight grace periods' worth and the rates reflect
    the "recent few grace period intervals" of §4.2. *)

(** {1 Corruption hooks}

    Writes to one slab-table entry that keep no invariant, so the
    audit's self-tests can break a slab and check the report. Nothing
    else calls them. *)

module Unsafe : sig
  val set_on_list : cache -> slab -> list_id -> unit
  val set_in_flight : cache -> slab -> int -> unit
end
