(** Span profiler with GC-delta allocation accounting.

    Mirrors [lib/trace]'s null-sink discipline: a profiler is either
    live or {!null}, and every entry point starts with a single
    [enabled] branch, so instrumented hot paths cost one load + branch
    and zero allocation when profiling is off.

    A live profiler keeps per-(CPU row, span) unboxed accumulators —
    call counts, self/inclusive wall time, self minor/major GC words —
    plus an interned call-path tree for folded-stack (flamegraph)
    output. Row 0 aggregates un-pinned (global) work; row [c+1] is
    CPU [c].

    {b Clock.} Wall time comes from [clock_gettime(CLOCK_MONOTONIC)]
    via an allocation-free stub (ns resolution, immune to wall-clock
    steps). Per-call figures on tiny spans still carry timer-read
    jitter; treat per-call ns as estimates, per-run totals as real.

    {b Probe-overhead compensation.} The stock [Gc.minor_words] /
    [Gc.counters] primitives box their results on the minor heap, so a
    profiler built on them measures its own probes. The probes here are
    [@@noalloc] externals returning unboxed floats (the runtime's
    [caml_gc_minor_words_unboxed] plus two stubs in prof_stubs.c), so
    reading a counter does not move it. [create] additionally
    calibrates any residual per-pair footprint (e.g. bytecode's boxed
    fallbacks, codegen boxing) and every exit subtracts it, so a span
    wrapping code that allocates nothing reports ~0 words even under
    deep nesting.

    {b Suspension resilience.} Simulated processes ([Sim.Process]) can
    suspend mid-span via effects, abandoning open frames. [exit]
    therefore matches by span: it unwinds (and attributes) any frames
    opened above the matching one, and is a no-op if no frame matches —
    counters stay consistent across suspend/resume at the cost of
    attributing an abandoned frame's tail to the suspension point. *)

type t

val null : t
(** The disabled sink: every operation is a no-op. *)

val create : ?ncpus:int -> unit -> t
(** A live profiler with [ncpus] CPU rows (default 8) plus the global
    row. Runs a short calibration loop to measure probe overhead; its
    time figures come from the cheapest of several short batches, so
    one preemption during the loop does not skew them. *)

val enabled : t -> bool

(** {1 Instrumentation} *)

val enter : t -> cpu:int -> Span.t -> unit
(** Open a span frame. [cpu] is the executing CPU id, or [-1] for work
    not attributable to one CPU (attributed to the global row; out-of-
    range ids also fall back to the global row). Calls are counted at
    enter so truncated/abandoned frames still show up in call counts. *)

val exit : t -> Span.t -> unit
(** Close the topmost frame for this span, unwinding any frames
    abandoned above it (see suspension resilience above). No-op if no
    open frame matches. *)

(** {1 Snapshot} *)

type cell = {
  span : Span.t;
  cpu : int;  (** [-1] for the global row. *)
  calls : int;
  self_ns : float;
  incl_ns : float;
  self_minor_words : float;
  self_major_words : float;
}

val cells : t -> cell list
(** Non-empty cells, (row, span) order. Empty on {!null}. *)

val totals : t -> cell list
(** Per-span cells summed over all rows ([cpu = -1]), span order; only
    spans with calls > 0. *)

val subsystem_totals : t -> (string * float * float) list
(** [(subsystem, self_ns, self_minor_words)] summed over its spans, in
    {!Span.subsystems} order, including zero rows. *)

val total_self_ns : t -> float
val total_minor_words : t -> float
val total_major_words : t -> float

val truncated : t -> int
(** Frames dropped to stack-depth overflow (calls still counted). *)

val dropped_exits : t -> int
(** [exit] calls that matched no open frame (suspension artifacts). *)

val folded :
  ?weight:[ `Calls | `Self_ns | `Self_minor_words ] -> t -> (string * int) list
(** Folded call paths for flamegraph tooling: [("a.b;c.d", n)], root
    first, ';'-separated, sorted by path. Weight defaults to [`Calls];
    ns/words weights are rounded to the nearest integer. Zero-weight
    paths are dropped. *)

val reset : t -> unit
(** Zero all accumulators and the path tree; keeps calibration. *)
