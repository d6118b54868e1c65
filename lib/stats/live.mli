(** Live introspection runs for the [stat] CLI subcommand.

    Builds one allocator stack, arms the metric {!Registry} and a
    {!Sim.Sampler} over it, drives the Fig. 3-style endurance workload
    (continuous RCU-protected list updates on every CPU under throttled
    callback processing — the load that makes allocator/RCU state worth
    watching), and returns everything needed to render one-shot
    snapshots, periodic watch output and exported time series.

    Deterministic: the same config yields byte-identical snapshots and
    series exports. *)

type config = {
  kind : Workloads.Env.kind;
  seed : int;
  cpus : int;
  scale : float;  (** Multiplies the virtual duration. *)
  duration_ns : int;  (** Base virtual run length (before [scale]). *)
  sample_every_ns : int;  (** Sampler period. *)
  capacity : int;  (** Sampler ring bound (rows). *)
  total_pages : int;
}

val default_config : config
(** Prudence, seed 42, 8 CPUs, 2 s virtual, 10 ms sampling, 4096 rows,
    64k pages (256 MiB). *)

val env_config : config -> Workloads.Env.config
(** The stack {!run} builds: [total_pages] of memory and Fig. 3's
    throttled callback processing ({!Workloads.Endurance.throttled_rcu}). *)

val endurance_config : config -> Workloads.Endurance.config
(** The workload {!run} drives: [duration_ns * scale] of list updates. *)

type result = {
  label : string;  (** "slub" / "prudence". *)
  env : Workloads.Env.t;
  registry : Registry.t;
  sampler : Sim.Sampler.t;
  watch : Providers.slabwatch;
      (** The watch used for periodic snapshots; reuse it for the final
          one-shot so churn columns continue from the last interval. *)
  updates : int;  (** Workload list updates completed. *)
  oom_at_ns : int option;
}

val run :
  ?on_watch:(time_ns:int -> snapshot:string -> unit) ->
  ?watch_every_ns:int ->
  config -> result
(** Run to completion. When [on_watch] is given it is called every
    [watch_every_ns] (default: [sample_every_ns * 10]) of virtual time
    with a rendered {!Providers.snapshot}. *)
