(** Event tracing and latency histograms for the simulated stack.

    [Trace] is the tracer itself (see {!Tracer}), one subscriber of the
    event {!Tap} every instrumented site emits on; submodules hold the
    building blocks: typed {!Event}s, bounded per-CPU {!Ring} buffers,
    log-bucketed {!Hist} latency histograms and the {!Chrome}
    trace-event exporter. *)

module Event = Event
module Ring = Ring
module Hist = Hist
module Chrome = Chrome
module Tap = Tap
include Tracer
