(** Coverage-guided schedule fuzzing.

    The brute-force sweep walks a fixed (scenario × allocator × shuffle)
    matrix; the fuzzer instead treats the whole run description —
    shuffle seed, fault plan, duration, CPU count — as the input and
    mutates it, keeping inputs that light up new {!Coverage} features as
    the corpus for further mutation. Everything is derived from one
    integer seed: the same (config, seed, budget) replays the exact same
    campaign, record for record. *)

type input = {
  scenario : Workloads.Chaos.scenario;
  kind : Workloads.Env.kind;
  shuffle_seed : int;
  duration_ns : int;
  cpus : int;
  plan : Faults.Plan.t option;
      (** [None] = the scenario's default plan (materialized on first
          plan mutation). *)
}

type config = {
  base : Sweep.config;
      (** Seeds, scenario/kind lists, oracle switches, and the mutation
          under test all come from here; [sweeps] is unused. *)
  budget : int;  (** Maximum cases to execute. *)
  seed : int;  (** Fuzzer RNG seed (mutation choices only). *)
}

type origin = Seed | Mutated of { parent : int; op : string }

val origin_name : origin -> string
(** ["seed"], or the mutation op: ["shuffle"], ["plan"], ["duration"],
    ["cpus"]. *)

type record = {
  exec : int;  (** 1-based execution index. *)
  origin : origin;
  input : input;
  verdict : Sweep.verdict;
  new_features : int;  (** Coverage features this case saw first. *)
  total_features : int;  (** Global feature count after this case. *)
  corpus_size : int;
}

type result = {
  records : record list;  (** In execution order. *)
  executed : int;
  corpus : input list;  (** Inputs that contributed new coverage. *)
  failure : (Sweep.config * Sweep.case * Sweep.verdict) option;
      (** First failing case, concretized — feed it to {!Minimize.run}. *)
  total_features : int;
}

val concretize : config -> input -> Sweep.config * Sweep.case
(** The exact single-case sweep an input denotes (also what its replay
    command describes). *)

val run : ?progress:(record -> unit) -> config -> result
(** Run the campaign: execute the seed corpus, then mutate
    coverage-contributing inputs (biased toward recent additions) until
    the budget is spent or an oracle fires.
    [progress] observes each record as it lands. *)

(** {1 Differential mode} *)

type diff_record = {
  d_exec : int;  (** 1-based execution index. *)
  trace_seed : int;
  n_ops : int;
  n_slots : int;
  gap_ns : int;
  result : Differential.result;
}

type diff_result = {
  diff_records : diff_record list;  (** In execution order. *)
  diff_executed : int;
  diff_failure : diff_record option;  (** First diverging case. *)
}

val run_differential :
  ?progress:(diff_record -> unit) -> ?kinds:Workloads.Env.kind list ->
  config -> diff_result
(** Generate op traces with shapes drawn from the fuzz RNG (seed, ops,
    slots, gap) and replay each under every kind (default: all
    registered backends), flagging any divergence in the
    backend-independent outcome sequence — or any oracle/audit hit — as
    a finding even when no safety oracle fires on its own, and stops at
    the first finding. The budget counts traces; each trace costs one
    full replay per kind.
    Deterministic in (config, kinds, seed, budget). *)
