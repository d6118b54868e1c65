(** Chaos scenarios: the endurance workload under injected faults.

    Each scenario runs the Fig. 3-style endurance workload (continuous
    RCU-protected list updates on every CPU, throttled callback
    processing, bounded memory) with one fault plan installed and the
    robustness mitigations armed — RCU stall detector, grow-path
    retry-with-backoff, and Prudence's emergency flush — then reports how
    the allocator degraded or survived. Runs are deterministic: the same
    seed and scenario produce the same outcome, field for field. *)

type scenario =
  | Clean  (** No faults: the control row of the matrix. *)
  | Stalled_reader  (** One reader pins grace periods for half the run. *)
  | Cb_flood  (** §3.4 DoS: no-op [call_rcu] flood on one CPU. *)
  | Pressure_spike  (** A reserve-grabber seizes half of memory. *)
  | Alloc_fault  (** Transient page-alloc refusals (p=0.3) mid-run. *)

val all_scenarios : scenario list
val scenario_name : scenario -> string
val scenario_of_string : string -> scenario option

type config = {
  scenario : scenario;
  seed : int;
  cpus : int;
  duration_ns : int;
  total_pages : int;
  stall_timeout_ns : int;  (** RCU stall-detector budget. *)
  ring : int;  (** Trace ring capacity (tracing is always armed). *)
  prof : Prof.t;  (** Profiler for the run; {!Prof.null} (default) = off. *)
  obs : bool;
      (** Arm the {!Obs.Anatomy} recorder on the built environment
          (default [false]). Pure observation — outcomes are identical
          either way. *)
}

val default_config : scenario:scenario -> config
(** 8 CPUs, 3 s virtual, 192 MiB, 200 ms stall budget, seed 42. *)

val plan_for : config -> Faults.Plan.t
(** The fault plan the scenario installs (fractions of the duration). *)

type outcome = {
  label : string;  (** "slub" / "prudence". *)
  env : Env.t;  (** The simulated environment, for post-run inspection. *)
  scenario : scenario;
  survived : bool;  (** No fatal OOM before the run ended. *)
  oom_at_ns : int option;
  updates : int;
  stall_warnings : int;
  holdout_cpus : int list;  (** Distinct CPUs named by stall warnings. *)
  gp_p99_ns : int;  (** 99th-percentile grace-period latency. *)
  grow_retries : int;  (** Backoff retries in the slab grow path. *)
  emergency_flushes : int;
  emergency_flushed_objs : int;
  ooms_delayed : int;  (** Prudence OOM-delay activations. *)
  max_backlog : int;  (** Peak RCU callback backlog. *)
  injected_failures : int;  (** Buddy allocations refused by injection. *)
  flood_cbs : int;  (** No-op callbacks enqueued by the flood. *)
  safety_violations : int;  (** Premature-reuse violations (must be 0). *)
  peak_used_mib : float;
  final_used_mib : float;
}

val env_config : config -> Env.kind -> Env.config
(** The stack a chaos run builds: throttled RCU callback processing with
    the stall detector armed, Prudence's emergency flush, reader
    tracking and tracing. *)

val run_env : ?plan:Faults.Plan.t -> config -> Env.t -> outcome
(** Run the scenario on a built environment: arm the grow path's
    retry-with-backoff, install [plan] (default {!plan_for}), run the
    endurance workload for [duration_ns] and collect the outcome. *)

val run_one : config -> Env.kind -> outcome
(** [run_env cfg (Env.build (env_config cfg kind))]. *)

val run_pair : config -> outcome * outcome
(** Baseline then Prudence, same scenario and seed. *)
