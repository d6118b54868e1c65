(** Schedule exploration: sweep the chaos-scenario matrix under perturbed
    same-instant event orderings, asserting the safety oracles and the
    invariant auditors on every run.

    One {e case} is (scenario, allocator, shuffle seed): the scenario's
    fault plan and workload run with {!Sim.Engine.Shuffle}[ seed] as the
    engine tie-break, so logically concurrent events execute in a
    different (but deterministic and replayable) order each sweep. A
    failing case prints the exact [prudence-repro check] command that
    reproduces it, including the active mutation and fault-plan
    override. *)

type mutation =
  | No_mutation
  | Skip_gp
      (** Run Prudence with [unsafe_skip_gp]: every deferred object is
          treated as immediately ripe. The shadow oracle must flag early
          reuse — this is how the checker proves its own teeth. *)
  | Drop_stall
      (** Disarm the RCU stall detector while scenarios pin grace
          periods. The missed-QS oracle must flag the unreported stall. *)
  | Lose_cb
      (** Drop every 64th [call_rcu] callback between the accounting and
          its per-CPU list. The callback-conservation oracle must flag
          the broken queued = invoked + in-list equation. *)
  | Free_latent_page
      (** Let the shrinker destroy pre-moved slabs whose objects are all
          still latent: a page returns to the buddy inside its grace
          period. The page-reuse oracle must flag it. *)
  | Skip_epoch_advance
      (** Run the EBR/DEBRA backend with [unsafe_no_scan]: its
          reclamation frontier advances without scanning reader
          announcements, so objects retired while a reader pins the
          epoch are recycled under it. The shadow oracle (judging by the
          truthful frontier) must flag early reuse. Only bites
          [Ebr_debra] environments. *)
  | Drop_retire_batch
      (** Run the Hyaline backend with [unsafe_drop_refs]: sealed
          retirement batches are handed to reclamation with their reader
          reference counts dropped. The shadow oracle must flag early
          reuse. Only bites [Hyaline_alloc] environments. *)

val mutation_name : mutation -> string
val mutation_of_string : string -> mutation option

val all_mutations : mutation list
(** Every bug-injecting mutation (excludes {!No_mutation}), for
    self-test drivers. *)

type oracles = {
  page_reuse : bool;  (** {!Shadow}'s page-level reuse check. *)
  early_reuse : bool;  (** {!Shadow}'s object-pool early-reuse check. *)
  missed_qs : bool;  (** {!Oracles}' unreported-stall check. *)
  cb_conservation : bool;  (** {!Oracles}' callback conservation. *)
}

val all_oracles : oracles
(** Everything on — the default. Individual switches exist so each
    [--mutate] self-test can prove its oracle necessary (mutant passes
    with the oracle off). *)

type config = {
  scenarios : Workloads.Chaos.scenario list;
  kinds : Workloads.Env.kind list;
  sweeps : int;  (** Shuffle seeds per (scenario, kind): [base..base+n-1]. *)
  base_shuffle_seed : int;
  seed : int;  (** Workload seed (kept fixed across the sweep). *)
  cpus : int;
  duration_ns : int;
  total_pages : int;
  mutation : mutation;
  oracles : oracles;
  plan : Faults.Plan.t option;
      (** Fault-plan override; [None] = the scenario's default plan. Set
          by the fuzzer (mutated plans) and the minimizer (shrunk plans);
          included in replay commands as [--plan='...']. *)
  bundle_dir : string option;
      (** When set, every failing case dumps a forensic bundle
          ([Obs.Bundle], NDJSON) into this directory — named
          [bundle-<scenario>-<alloc>-s<shuffle>[-<mutation>].ndjson] —
          and the verdict carries its path. Arms the tracer and the
          anatomy recorder (pure observation: the verdict is identical
          either way). [None] (default): no bundles. *)
}

val default_config : config
(** All scenarios, both allocators, 20 sweeps, 4 CPUs, 50 ms virtual,
    32 MiB, no mutation, all oracles, no plan override. *)

type case = {
  scenario : Workloads.Chaos.scenario;
  kind : Workloads.Env.kind;
  shuffle_seed : int;
}

type verdict = {
  case : case;
  oracle_violations : Shadow.violation list;
  reader_violations : string list;
  stall_violations : string list;
  cb_violations : string list;
  audit_failures : string list;
  dropped_violations : int;
      (** Violations past the bounded logs (shadow + readers + oracles). *)
  oracle_events : int;  (** Probe events seen: sanity that hooks fired. *)
  updates : int;
  survived : bool;  (** Informational; OOM under faults is not a failure. *)
  replay : string;  (** Command line reproducing this exact case. *)
  features : int list;
      (** Coverage features observed (sorted); [[]] unless a coverage set
          was passed to {!run_case}. *)
  bundle : string option;
      (** Path of the forensic bundle written for this failing case;
          [None] when the case passed or [bundle_dir] was unset. *)
}

val ok : verdict -> bool
(** No violations from any oracle, no audit failures, nothing dropped. *)

val run_case : ?coverage:Coverage.t -> config -> case -> verdict
(** Run one case. With [coverage], a subscriber of the engine's tap (its
    timeline events) plus the engine observer feed the set and the
    verdict carries the features; virtual-time behaviour is identical
    either way. *)

val plan_for : config -> case -> Faults.Plan.t
(** The fault plan the case will run: the override if set, else the
    scenario default — what the fuzzer mutates and the minimizer
    shrinks. *)

val replay_command : config -> case -> string

val cases : config -> case list
(** The full (scenario × kind × shuffle-seed) matrix, in run order. *)

val run : ?progress:(case -> unit) -> config -> verdict list
(** Run every case; [progress] is called before each. *)

val pp_verdict : Format.formatter -> verdict -> unit
val summary : Format.formatter -> verdict list -> unit
(** Per-(scenario, kind) pass/fail table plus details — including the
    replay command — for every failing case. *)
