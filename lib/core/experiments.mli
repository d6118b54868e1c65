(** Experiment registry: one entry per table/figure of the paper's
    evaluation (plus ablations). Each experiment builds fresh simulated
    stacks, runs the workload over the SLUB baseline and Prudence, and
    renders a {!Metrics.Report.t} comparing the measured shape against the
    paper's claim. *)

type params = {
  scale : float;
      (** Multiplies workload sizes (transactions, pairs); 1.0 = the
          defaults used in EXPERIMENTS.md. *)
  seed : int;
  cpus : int;
  runs : int;  (** Repetitions for mean +/- stdev (paper: 3). *)
  trace : int option;
      (** [Some ring_capacity] arms the {!Trace} tracer on every
          environment the experiment builds; [None] (default) runs
          untraced. *)
}

val default_params : params

type experiment = {
  id : string;
  title : string;
  paper_ref : string;  (** "Fig. 6", "§3.3", ... *)
  run : params -> Metrics.Report.t list;
}

val all : experiment list
(** In paper order: fig3, costs, fig6, fig7..fig13, ablations. *)

val find : string -> experiment option

(** {1 Individual experiment entry points} (used by tests) *)

val run_costs : params -> Metrics.Report.t list

val run_apps : params -> Metrics.Report.t list
(** Runs the four application benchmarks once per allocator and emits the
    Fig. 7-13 reports from the same pair of runs. *)

(** {1 Per-cache comparison} (Figs. 7-11) *)

type outcome = Better | Unchanged | Worse | No_data

val classify : higher_better:bool -> float -> float -> outcome
(** [classify ~higher_better slub prudence] places one cache/benchmark
    pair of Figs. 7-11 by its numbers: [No_data] when either value is
    undefined (NaN: a fragmentation with no live objects), [Unchanged]
    when they are equal to within 1e-9 of [slub] (float rounding: the
    means of equal samples over different sample counts can differ in
    the last bits), otherwise [Better] or [Worse] in the
    figure's direction. When lower is better, a pair that rises from 0 is
    [Worse]. Each figure's verdict names every class and its metrics
    gate the counts of [Better] (higher_better) and [Worse]
    (lower_better) pairs. *)

(** {1 Raw data access} (used by the CLI and tests) *)

val microbench_pair :
  params -> obj_size:int ->
  Workloads.Microbench.result * Workloads.Microbench.result
(** (baseline, prudence) single-run results for one object size. *)

val endurance_pair :
  params -> Workloads.Endurance.result * Workloads.Endurance.result

val endurance_env : params -> Workloads.Env.kind -> Workloads.Env.config
(** The Fig. 3 stack: 1 GiB and {!Workloads.Endurance.throttled_rcu}. *)

val endurance_config : params -> Workloads.Endurance.config
(** The Fig. 3 run: 12 s x [scale], in whole seconds (at least 1). *)

val app_results :
  params ->
  (string * Workloads.Appmodel.result * Workloads.Appmodel.result) list
(** [(bench, baseline, prudence)] for the four §5.3 benchmarks. *)

(** {1 Traced runs} (the [trace] subcommand and bench harness) *)

val traceable : string list
(** Experiment ids {!run_traced} accepts. *)

val run_traced : params -> string -> Workloads.Env.t list option
(** [run_traced params id] reruns experiment [id]'s workload over both
    allocators (slub, then prudence) with tracing forced on (ring
    capacity from [params.trace], default 65536) and the anatomy
    recorder armed, and returns each run's environment: its tracer holds
    the event rings and latency histograms, its recorder the
    defer->reuse lifetimes. [None] if [id] is not in {!traceable}. *)
