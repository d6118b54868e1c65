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

(** {1 Raw data access} (used by the CLI and tests) *)

val microbench_pair :
  params -> obj_size:int ->
  Workloads.Microbench.result * Workloads.Microbench.result
(** (baseline, prudence) single-run results for one object size. *)

val endurance_pair :
  params -> Workloads.Endurance.result * Workloads.Endurance.result

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
