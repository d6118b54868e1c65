(** Memory watermarks, pressure notification and OOM handling.

    Mirrors the kernel behaviour the paper relies on in §3.5: when free
    memory falls below a watermark, registered subsystems are notified (the
    RCU model uses this to expedite callback processing); when an allocation
    still cannot be satisfied, OOM handlers run, and if none reclaims
    memory, an out-of-memory event is recorded and the simulation stops —
    the analogue of the OOM killer firing at second 196 of Fig. 3. *)

type level =
  | Normal  (** Free pages above the low watermark. *)
  | Low  (** Below the low watermark: reclaim should be expedited. *)
  | Critical  (** Below the critical watermark: reclaim urgently. *)

val pp_level : Format.formatter -> level -> unit

type t

val create : Buddy.t -> t
(** [create buddy] watches [buddy]. The watermarks are 25% (low) and 10%
    (critical) of total pages free. *)

val level : t -> level
(** Current pressure level, computed from the buddy's free-page count. *)

val on_level_change : t -> (level -> unit) -> unit
(** Register a notifier invoked when {!poll} observes a level transition. *)

val poll : t -> unit
(** Recompute the level and fire notifiers on change. Call after operations
    that allocate or release pages. *)

val on_oom : t -> (unit -> bool) -> unit
(** Register an OOM handler. Handlers run in registration order; a handler
    returns [true] if it (possibly) released memory and the failed
    allocation should be retried. *)

val handle_alloc_failure : t -> bool
(** Run the OOM handler chain once; [true] if any handler asked for a
    retry. *)

val declare_oom : t -> now:int -> unit
(** Record a fatal OOM at virtual time [now]. First call wins. *)

val oom_time : t -> int option
(** Virtual time of the fatal OOM, if one happened. *)

val oom_hit : t -> bool
