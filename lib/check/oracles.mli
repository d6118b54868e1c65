(** Kernel-bug pattern oracles beyond the shadow heap.

    Two invariants from the RCU bug-class catalogue, both pure
    observation (no events scheduled, no RNG draws — an observed run is
    event-for-event identical to an unobserved one):

    - {e missed-QS stall}: a grace period has been waiting on holdout
      CPUs for longer than a bound and no stall warning names it. With
      the detector armed below the bound this cannot happen, so any
      firing means quiescent-state bookkeeping or the detector itself is
      broken ([--mutate=drop-stall] injects this by disarming the
      detector under a scenario that pins grace periods).
    - {e callback conservation}: [queued = invoked + in-list] across the
      per-CPU callback lists, checked at each grace-period completion
      and at {!finalize}. A callback lost between the accounting and its
      list ([--mutate=lose-cb]) breaks the equation forever after.

    Violation logs keep the first few entries and count the rest. *)

type config = {
  missed_qs : bool;
  cb_conservation : bool;
  stall_bound_ns : int;
      (** Grace-period age past which an unreported stall is a violation.
          Must exceed the armed detector timeout (the sweep uses
          duration/4 vs. a duration/8 detector). *)
}

val default_config : duration_ns:int -> config
(** Both oracles on, stall bound = duration/4. *)

type stall_violation = {
  at_ns : int;
  gp_seq : int;
  age_ns : int;
  holdouts : int list;
}

type cb_violation = { at_ns : int; queued : int; invoked : int; in_list : int }

type t

val install : config -> Workloads.Env.t -> t
(** Hook the conservation check onto grace-period completion. The caller
    drives {!poll_stall} (typically from the engine observer, composed
    with the coverage feed) and {!finalize} at end of run. *)

val poll_stall : t -> unit
(** Cheap per-event poll: a few int compares unless a violation fires. *)

val finalize : t -> unit
(** End-of-run sweep: final stall poll + conservation check. *)

val stall_violations : t -> string list
val cb_violations : t -> string list
val dropped_violations : t -> int
