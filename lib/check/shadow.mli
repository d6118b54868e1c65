(** Shadow-heap safety oracle.

    Tracks every slab object the allocator under test touches through the
    lifecycle

    {v live -> deferred(cookie) -> ripe -> reclaimed -> live -> ... v}

    as a subscriber of the engine's reclamation event tap
    ({!Sim.Engine.tap}: the frame's lifecycle events plus reader
    accesses), and flags the failures procrastination-based reclamation must
    never exhibit:

    - {e early reuse}: a deferred object enters a free pool (object cache
      or slab freelist) before its grace period has completed — the memory
      is about to be handed to a new owner while readers may still hold
      the old incarnation;
    - {e use after reclaim}: a reader dereferences an object whose memory
      has already been returned to a free pool;
    - {e premature page reuse}: a slab page returns to the buddy allocator
      while an object on it is still inside its grace period — distinct
      from object-level early reuse because the object never re-enters a
      free pool; the whole page escapes.

    The oracle is pure observation: it never changes allocator behaviour,
    so a run with the oracle installed is byte-identical to one without.
    Violations are recorded (with virtual timestamps), never raised; the
    log keeps the first 64 and counts the rest, so a badly mutated run
    cannot grow memory without bound during long fuzz sessions.

    {b Cost model.} Per-object state lives in a flat table indexed by oid
    (frame oids are dense from 0 and never reused): one tag byte and one
    token word per object, grown by doubling on demand. A tap event costs
    O(1). Every defer also records its (token, oid) pair in a promotion
    index kept sorted by token, so a frontier advance pops exactly the
    entries at or below the new frontier: O(objects promoted), skipping
    stale entries (objects since pooled, page-released or deferred
    again), and never visiting an entry above the frontier. A token
    below the newest one takes a sorted insert, O(entries above it). Once
    the tables have grown, neither path allocates on the minor heap;
    only a recorded violation does. *)

type state =
  | Live  (** Held by a mutator. *)
  | Deferred of int  (** Defer-freed, waiting for grace period [cookie]. *)
  | Ripe  (** Grace period complete; safe to reclaim, not yet pooled. *)
  | Reclaimed  (** In a free pool; memory may be reused any time. *)

val pp_state : Format.formatter -> state -> unit

type kind =
  | Early_reuse of { cookie : int; completed : int }
      (** Entered a free pool while waiting for grace period [cookie],
          but only [completed] grace periods had finished. *)
  | Use_after_reclaim of { cpu : int }
      (** A reader on [cpu] dereferenced the object after reclaim. *)
  | Page_reuse of { cookie : int; completed : int }
      (** Its page went back to the buddy allocator while the object
          still waited for grace period [cookie]. *)
  | Bad_transition of { from : state option; event : string }
      (** Lifecycle violation, e.g. double free or defer of a non-live
          object. [from] is [None] for an object never seen before. *)

type violation = { at_ns : int; oid : int; kind : kind }

val describe : violation -> string

type t

val install :
  ?page_reuse:bool -> ?early_reuse:bool -> ?coverage:Coverage.t ->
  Workloads.Env.t -> t
(** Wire the oracle into a built environment: subscribes to the
    engine's tap (frame events handled under the [check.probe] prof
    span, reader accesses outside it) and registers a frontier-advance
    hook (under RCU: grace-period completion) that promotes deferred
    objects to ripe.
    Ripeness is judged against the environment's {i truthful} SMR view
    ([env.smr]) — an opaque token compare, so the oracle works for any
    backend and stays honest under frontier-corrupting mutations.
    [page_reuse] (default [true]) controls the page-level check and
    [early_reuse] (default [true]) the object-pool check — the off
    switches exist so each [--mutate] self-test can prove its oracle
    necessary. When [coverage] is given, every shadow-state transition
    feeds it. *)

val violations : t -> violation list
(** Oldest first; at most 64 entries. *)

val violation_count : t -> int
(** Logged violations (at most 64). *)

val dropped_violations : t -> int
(** Violations recorded past the log bound and discarded. *)

val state : t -> oid:int -> state option
(** Current shadow state of object [oid]; [None] if never observed (or
    its page was released). *)

val tracked : t -> int
(** Objects currently tracked: a counter, O(1). *)

val events : t -> int
(** Tap events handled (sanity: > 0 after any workload). *)
