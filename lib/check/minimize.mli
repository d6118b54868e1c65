(** Witness minimization.

    A failing case from the sweep or the fuzzer is rarely minimal: the
    fault plan carries specs that don't matter, the run is longer than
    the bug needs, and the machine is wider. The minimizer shrinks all
    three — greedy spec dropping, binary search on duration, CPU-count
    reduction — re-running the full oracle stack after every candidate
    and keeping a shrink only if the case {e still fails}. The result is
    the smallest witness found; its verdict carries the one-line
    [prudence-repro check --plan='...'] command that reproduces it. *)

type step = {
  action : string;  (** ["drop-spec"], ["shrink-duration"], ["reduce-cpus"]. *)
  candidate : string;  (** What was tried (spec name, duration, cpus). *)
  kept : bool;  (** [true] when the shrunk candidate still fails. *)
}

type result = {
  cfg : Sweep.config;
      (** Minimal failing configuration (plan pinned, no bundle
          directory). *)
  case : Sweep.case;
  verdict : Sweep.verdict;
      (** From the final confirmation run; its [replay] reproduces the
          minimal witness. *)
  runs : int;  (** Oracle runs spent, confirmations included. *)
  steps : step list;  (** Every shrink attempt, in order. *)
}

exception Not_a_witness
(** The starting case (or the final confirmation) did not fail. *)

val run :
  ?bundle_dir:string -> ?progress:(step -> unit) -> Sweep.config ->
  Sweep.case -> result
(** Minimize. The scenario's default plan is first materialized into
    [cfg.plan] so the replay is self-contained; duration shrinks to
    millisecond granularity; CPU reduction skips counts that would
    orphan a plan spec's target. Shrink runs never write bundles; with
    [bundle_dir], the final confirmation run writes the witness's bundle
    there and [verdict.bundle] names it. Raises {!Not_a_witness} if the
    input doesn't fail. *)

val plan_specs : result -> int
(** Fault specs left in the witness's plan. *)

val step_json : step -> Metrics.Json.t
(** The [fuzz --json] 'shrink' line for one attempt. *)

val to_json : result -> Metrics.Json.t
(** The [fuzz --json] 'minimized' line: runs spent, the witness's
    duration, CPUs, fault-spec count and replay command. *)
