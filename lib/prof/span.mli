(** The fixed span vocabulary of the profiler.

    A span names one instrumented hot-path section. The set is a closed
    enum rather than free-form strings so the accumulator tables are
    dense arrays indexed by [index] — no hashing, no allocation on the
    instrumentation path. *)

type t =
  | Engine_dispatch  (** Event execution: the body of every event. *)
  | Engine_schedule  (** Event creation + event-heap insertion. *)
  | Buddy_alloc
  | Buddy_free
  | Slab_alloc  (** Backend alloc entry (slub and prudence). *)
  | Slab_free
  | Slab_defer  (** Baseline deferred free (call_rcu enqueue path). *)
  | Slab_grow  (** Slab construction: page alloc + object carving. *)
  | Latq_push  (** Latent enqueue (per-CPU cache or slab latent list). *)
  | Latq_harvest  (** Ripe harvest/merge out of a latent queue. *)
  | Rcu_qs  (** Quiescent-state reporting on context switch. *)
  | Rcu_gp  (** Grace-period machinery: start and completion. *)
  | Rcu_cb_drain  (** Callback invocation (softirq and barrier). *)
  | Prudence_defer  (** Prudence deferred free (latent-cache path). *)
  | Prudence_scan  (** Ripeness scan of node latent-slab heads. *)
  | Prudence_flush  (** Emergency reclaim under Critical pressure. *)
  | Check_probe  (** Shadow-heap oracle probe handlers (checker overhead). *)
  | Engine_pop  (** Removal of the earliest event from the event heap. *)

val count : int
(** Number of spans; [index] is a bijection onto [0..count-1]. *)

val index : t -> int
val of_index : int -> t
val all : t list
(** In [index] order. *)

val name : t -> string
(** Dotted path, e.g. ["slab.alloc"]. *)

val subsystem : t -> string
(** The prefix before the dot: "engine", "buddy", "slab", "rcu",
    "prudence". *)

val subsystems : string list
(** Distinct subsystems, span order. *)
