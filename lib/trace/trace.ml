(** Event tracing and latency histograms for the simulated stack.

    [Trace] is the tracer itself (see {!Tracer}); submodules hold the
    building blocks: typed {!Event}s, bounded per-CPU {!Ring} buffers,
    log-bucketed {!Hist} latency histograms, the {!Chrome} trace-event
    exporter and the reclamation event {!Tap}. *)

module Event = Event
module Ring = Ring
module Hist = Hist
module Chrome = Chrome
module Tap = Tap
include Tracer
