(** Per-subsystem snapshot providers.

    Each provider reads one layer of a live simulated stack into a typed
    view — the analogue of Linux's [/proc/buddyinfo], [/proc/slabinfo],
    the [rcu] debugfs tree, and (for Prudence) the latent-cache occupancy
    the paper's evaluation plots — plus a renderer for the [stat] CLI and
    a {!Registry} hookup so any field can be sampled over virtual time.

    Views are pure reads: taking a snapshot never mutates allocator
    state. The one deliberate exception is {!slabwatch}, which remembers
    the previous per-cache counters so successive snapshots report churn
    {e since the last look} (the way [slabtop] shows activity). *)

(** {1 Buddy ([/proc/buddyinfo])} *)

type buddy_view = {
  total_pages : int;
  used_pages : int;
  free_pages : int;
  free_blocks_per_order : int array;  (** Index = order, 0..max_order. *)
  largest_free_order : int;  (** -1 when memory is exhausted. *)
  watermark : Mem.Pressure.level;
  allocs : int;
  frees : int;
  failed_allocs : int;
}

val buddy_view : pressure:Mem.Pressure.t -> Mem.Buddy.t -> buddy_view

(** {1 Slab ([/proc/slabinfo] / [slabtop])} *)

type slabwatch
(** Remembers the previous snapshot per cache for churn-since-last. *)

val slabwatch : unit -> slabwatch

type slab_row = {
  cache_name : string;
  obj_size : int;
  active_objs : int;  (** Objects currently held by mutators. *)
  total_objs : int;  (** Capacity: slabs x objects per slab. *)
  total_slabs : int;
  objs_per_slab : int;
  latent_objs : int;  (** Deferred objects parked in this cache (Prudence). *)
  snap : Slab.Slab_stats.snapshot;
  d_allocs : int;  (** Since the previous slabwatch snapshot (or ever). *)
  d_frees : int;
  d_grows : int;
  d_shrinks : int;
}

val slab_rows : ?watch:slabwatch -> Slab.Backend.t -> slab_row list
(** One row per cache, in cache-creation order. *)

(** {1 Prudence latent state (the paper's §4 occupancy)} *)

type cookie_row = {
  cookie : int;  (** Grace-period cookie the objects wait for. *)
  ripe : bool;  (** That grace period has completed. *)
  in_latent_caches : int;  (** Objects in per-CPU latent caches. *)
  in_latent_slabs : int;  (** Objects parked on slab latent lists. *)
}

type latent_view = {
  l_cache_name : string;
  outstanding : int;  (** All deferred objects currently held. *)
  by_cookie : cookie_row list;  (** Ascending cookie order. *)
  hit_rate_pct : float;  (** Object-cache hit rate (Fig. 7 metric). *)
  merge_per_miss : float;
      (** Ripe objects merged per allocation miss — how often the
          merge-before-refill hint pays off. *)
  preflush_per_flush : float;
      (** Idle pre-flushed objects per workload flush — how much flush
          work the idle hint absorbed. *)
  premoves : int;  (** Slab pre-movements (the slab-state hint). *)
  latent_overflows : int;
}

val latent_views : smr:Slab.Smr.t -> Slab.Backend.t -> latent_view list
(** One view per cache that has seen deferred frees (others are
    omitted); empty for the SLUB baseline. *)

(** {1 Composition} *)

val snapshot : ?watch:slabwatch -> Workloads.Env.t -> string
(** All four sections rendered for one environment. *)

val register_env : Registry.t -> Workloads.Env.t -> unit
(** Register the samplable scalar metrics of every layer: buddy gauges
    and counters (including per-order free-block gauges), pressure
    level, RCU grace-period/backlog state, and slab/Prudence aggregates
    (summed over the backend's caches at read time, so caches created
    after registration are included). When the environment carries an
    armed {!Obs.Anatomy} recorder, also its [obs.*] phase metrics. *)

val metrics : Workloads.Env.t -> (string * float) list
(** Every {!register_env} metric read once, as (name, value) in
    registration order: the snapshot a forensic bundle carries. *)
