(** The chaos scenario matrix: {!Workloads.Chaos} scenarios over a set
    of reclamation schemes, run by one function ({!run}) that three views
    share — the survival/degradation report ({!report}), the
    cross-scheme {!Tournament} and the grace-period anatomy
    ({!anatomy_report}). Not part of the {!Experiments} registry — chaos
    runs are driven explicitly via the CLI (or tests) so the
    paper-experiment outputs stay untouched. Deterministic: the same
    params, scenarios and kinds render byte-identical output. *)

type params = {
  seed : int;
  cpus : int;
  scale : float;  (** Multiplies the scenario's virtual duration. *)
  ring : int;  (** Trace ring capacity. *)
}

val config_for : params -> Workloads.Chaos.scenario -> Workloads.Chaos.config

val run :
  ?obs:bool ->
  kinds:Workloads.Env.kind list ->
  params ->
  Workloads.Chaos.scenario list ->
  Workloads.Chaos.outcome list
(** One {!Workloads.Chaos.run_one} outcome per (scenario, kind),
    scenarios outermost. [obs] (default [false]) arms the {!Obs.Anatomy}
    recorder on every run: pure observation, outcomes are unchanged. *)

val safety_violations : Workloads.Chaos.outcome list -> int
(** Premature-reuse violations summed over the outcomes. *)

val verdict : Workloads.Env.kind list -> Workloads.Chaos.outcome list -> string
(** The survival verdict every matrix table prints: per kind, how many
    of its runs survived, then the total safety violations. *)

val outcome_cell : Workloads.Chaos.outcome -> string
(** ["survived"] or ["OOM@<s>s"]. *)

val report :
  kinds:Workloads.Env.kind list ->
  ?bundle_dir:string ->
  params -> Workloads.Chaos.scenario list -> Metrics.Report.t
(** Run the matrix and render one row per (scenario, kind). With
    [kinds = [Baseline; Prudence_alloc]] it is the classic two-row
    slub/prudence matrix.

    With [bundle_dir], each run is armed with the {!Obs.Anatomy}
    recorder (rows unchanged) and every outcome where a mitigation fired
    (a safety violation, OOM, emergency flush, OOM delay or stall
    warning; the most severe names the bundle) dumps an {!Obs.Bundle}
    forensic bundle — [bundle-chaos-<scenario>-<alloc>.ndjson] — listed
    at the foot of the report body. *)

(** {1 Grace-period anatomy}

    The phase view of outcomes {!run} with [~obs:true]: per backend, the
    {!Obs.Anatomy.render} block (phase table, worst grace period, sum
    identity). Every backend reports the same five-phase schema, and the
    clamped-edge decomposition makes the per-phase sums add up exactly to
    the total defer->reuse latency. *)

val anatomy_ok : Workloads.Chaos.outcome list -> bool
(** The exact sum identity holds on every backend. *)

val anatomy_report :
  Workloads.Chaos.scenario -> Workloads.Chaos.outcome list -> Metrics.Report.t

val anatomy_ndjson :
  Workloads.Chaos.scenario -> Workloads.Chaos.outcome list -> string
(** Each backend's {!Obs.Anatomy.json} lines ([phase], [total],
    [worst_gp]), then a [summary] line with the summed phase and total
    latencies and [sum_identity]. *)
