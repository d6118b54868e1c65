(** Coverage signal for guided schedule search.

    A coverage set is a hash-set of int-encoded {e features} from three
    observation families:

    - {e shadow transitions}: (from, to) pairs of shadow-heap object
      states, fed by {!Shadow} as objects move through
      [live -> deferred -> ripe -> reclaimed];
    - {e trace adjacency}: per-CPU consecutive timeline-kind pairs, fed
      by a subscriber of the engine's tap — which fault/GP/allocator
      events ran back-to-back on a CPU;
    - {e schedule shape}: log2-bucketed lengths of same-instant event
      runs from the engine observer — how the shuffled tie-break
      serialized logically concurrent events.

    A schedule that produces a feature no earlier run produced is
    interesting: the fuzzer keeps its input in the corpus. All feeds are
    pure observation (no events scheduled, no RNG draws), so arming
    coverage never changes a run. *)

type t

val create : unit -> t

val note_transition : t -> from_tag:int -> to_tag:int -> unit
(** Record a shadow-state transition; tags are small ints (< 8). *)

val note_trace : t -> cpu:int -> kind_index:int -> unit
(** Record a timeline event ([kind_index] from {!Trace.Event.kind_index},
    [>= 0]); [cpu] may be [-1]. *)

val note_event : t -> time:int -> unit
(** Record an executed engine event (from {!Sim.Engine.set_observer}). *)

val finish : t -> unit
(** Flush the trailing same-instant run; call once at end of run. *)

val size : t -> int
val features : t -> int list
(** All observed features, sorted ascending, so two sets compare with
    [=]. *)

val absorb : into:t -> t -> int
(** [absorb ~into run] merges [run]'s features into the global set and
    returns how many were new — the fuzzer's interestingness score. *)
