(** The tracer: a subscriber of an engine's {!Tap} that keeps per-CPU
    bounded rings of the timeline events ({!Event.kind_index} [>= 0])
    plus three latency histograms of the paper's timing phenomena
    (grace-period latency, lock wait, allocation-path cost). The
    deferred-object lifetime is the anatomy recorder's defer->reuse
    total.

    Tracing is pure observation: the tracer reads the virtual clock and
    never charges virtual time, so it cannot perturb experiment
    results. An untraced run has no tracer subscribed and pays one
    branch per emission. *)

type t

val create : ring_capacity:int -> ncpus:int -> now:(unit -> int) -> Tap.t -> t
(** [create ~ring_capacity ~ncpus ~now tap] subscribes a tracer to [tap]
    with one ring per CPU (plus one for machine-global events) of
    [ring_capacity] events each, stamped by [now]. On overflow the
    oldest events are dropped. *)

val null : t
(** A tracer subscribed to nothing: no events, empty histograms. *)

val ncpus : t -> int

(** {1 Histograms} *)

val gp_latency : t -> Hist.t
val lock_wait : t -> Hist.t
val alloc_cost : t -> Hist.t

(** {1 Inspection} *)

val events : t -> Event.t list
(** All retained events, merged across rings, in virtual-time order. *)

val recent_events : t -> cpu:int -> int -> Event.t list
(** [recent_events t ~cpu n]: the newest [n] retained events of one CPU's
    ring ([-1] for the machine-global ring), oldest first — the bounded
    flight-recorder window; allocation is O(n) regardless of ring size. *)

val total_events : t -> int
val total_dropped : t -> int
