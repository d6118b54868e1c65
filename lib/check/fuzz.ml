module W = Workloads

type input = {
  scenario : W.Chaos.scenario;
  kind : W.Env.kind;
  shuffle_seed : int;
  duration_ns : int;
  cpus : int;
  plan : Faults.Plan.t option;
}

type config = {
  base : Sweep.config;
  budget : int;
  seed : int;
  stop_on_failure : bool;
}

type origin = Seed | Mutated of { parent : int; op : string }

let origin_name = function
  | Seed -> "seed"
  | Mutated { op; _ } -> op

type record = {
  exec : int;
  origin : origin;
  input : input;
  verdict : Sweep.verdict;
  new_features : int;
  total_features : int;
  corpus_size : int;
}

type result = {
  records : record list;
  executed : int;
  corpus : input list;
  failure : (Sweep.config * Sweep.case * Sweep.verdict) option;
  total_features : int;
}

(* The concrete (config, case) pair an input runs as — also what the
   minimizer starts from and what the replay command reflects. *)
let concretize cfg input =
  ( {
      cfg.base with
      Sweep.duration_ns = input.duration_ns;
      cpus = input.cpus;
      plan = input.plan;
    },
    {
      Sweep.scenario = input.scenario;
      kind = input.kind;
      shuffle_seed = input.shuffle_seed;
    } )

let seed_inputs cfg =
  List.concat_map
    (fun scenario ->
      List.map
        (fun kind ->
          {
            scenario;
            kind;
            shuffle_seed = cfg.base.Sweep.base_shuffle_seed;
            duration_ns = cfg.base.Sweep.duration_ns;
            cpus = cfg.base.Sweep.cpus;
            plan = cfg.base.Sweep.plan;
          })
        cfg.base.Sweep.kinds)
    cfg.base.Sweep.scenarios

(* One mutation of a corpus entry. Ops are drawn from the fuzz RNG only,
   so the whole campaign is a pure function of (config, seed, budget). *)
let mutate_input cfg rng input =
  match Sim.Rng.int rng 4 with
  | 0 ->
      (* New same-instant serialization of the same run. *)
      ( "shuffle",
        { input with shuffle_seed = Sim.Rng.int rng 1_000_000 } )
  | 1 ->
      (* Perturb the fault plan (materializing the scenario default the
         first time this lineage is touched). *)
      let scfg, case = concretize cfg input in
      let plan = Sweep.plan_for scfg case in
      let salt = Sim.Rng.int rng max_int in
      let plan =
        Faults.Plan.mutate ~salt ~cpus:input.cpus
          ~duration_ns:input.duration_ns plan
      in
      ("plan", { input with plan = Some plan })
  | 2 ->
      (* Stretch or squeeze the run: x0.5 .. x2, >= 2 ms. *)
      let factor = 0.5 +. Sim.Rng.float rng 1.5 in
      let d =
        max (Sim.Clock.ms 2)
          (int_of_float (float_of_int input.duration_ns *. factor))
      in
      ("duration", { input with duration_ns = d })
  | _ ->
      let cpus = 2 + Sim.Rng.int rng 7 in
      if cpus = input.cpus then
        ("shuffle", { input with shuffle_seed = Sim.Rng.int rng 1_000_000 })
      else begin
        (* A narrower machine may invalidate plan CPU targets; retarget
           by revalidating and dropping what no longer fits. *)
        let plan =
          match input.plan with
          | None -> None
          | Some p ->
              let specs =
                List.filter
                  (fun s ->
                    Faults.Plan.validate ~cpus ~duration_ns:input.duration_ns
                      { p with Faults.Plan.specs = [ s ] }
                    = Ok ())
                  p.Faults.Plan.specs
              in
              Some { p with Faults.Plan.specs = specs }
        in
        ("cpus", { input with cpus; plan })
      end

(* ------------------------------------------------------------------ *)
(* Differential fuzzing: op-trace inputs, all backends, divergence in
   the backend-independent outcome sequence is a finding even when no
   safety oracle fires.                                                *)
(* ------------------------------------------------------------------ *)

type diff_record = {
  d_exec : int;  (* 1-based execution index *)
  trace_seed : int;
  n_ops : int;
  n_slots : int;
  gap_ns : int;
  result : Differential.result;
}

type diff_result = {
  diff_records : diff_record list;  (* in execution order *)
  diff_executed : int;
  diff_failure : diff_record option;  (* first diverging case *)
}

(* Each execution replays one generated trace under every kind — the
   budget counts traces, not replays. Trace shapes are drawn from the
   fuzz RNG only, so the campaign is a pure function of
   (config, kinds, seed, budget). *)
let run_differential ?(progress = fun (_ : diff_record) -> ())
    ?(kinds = W.Env.all_kinds) cfg =
  let rng = Sim.Rng.create ~seed:cfg.seed in
  let records = ref [] in
  let executed = ref 0 in
  let failure = ref None in
  while
    !executed < cfg.budget
    && not (cfg.stop_on_failure && !failure <> None)
  do
    let trace_seed = Sim.Rng.int rng 1_000_000 in
    let n_ops = 400 + Sim.Rng.int rng 1_600 in
    let n_slots = 16 + Sim.Rng.int rng 112 in
    let gap_ns = 5_000 + Sim.Rng.int rng 45_000 in
    let trace = Differential.gen ~n_slots ~n_ops ~gap_ns ~seed:trace_seed () in
    let result =
      Differential.run ~seed:cfg.base.Sweep.seed
        ~total_pages:cfg.base.Sweep.total_pages ~kinds trace
    in
    incr executed;
    let record =
      { d_exec = !executed; trace_seed; n_ops; n_slots; gap_ns; result }
    in
    records := record :: !records;
    progress record;
    if (not result.Differential.ok) && !failure = None then
      failure := Some record
  done;
  {
    diff_records = List.rev !records;
    diff_executed = !executed;
    diff_failure = !failure;
  }

let run ?(progress = fun (_ : record) -> ()) cfg =
  let rng = Sim.Rng.create ~seed:cfg.seed in
  let global = Coverage.create () in
  let corpus = ref [||] in
  let records = ref [] in
  let executed = ref 0 in
  let failure = ref None in
  let admit input = corpus := Array.append !corpus [| input |] in
  let execute origin input =
    let scfg, case = concretize cfg input in
    let cov = Coverage.create () in
    let verdict = Sweep.run_case ~coverage:cov scfg case in
    incr executed;
    let fresh = Coverage.absorb ~into:global cov in
    if fresh > 0 then admit input;
    let record =
      {
        exec = !executed;
        origin;
        input;
        verdict;
        new_features = fresh;
        total_features = Coverage.size global;
        corpus_size = Array.length !corpus;
      }
    in
    records := record :: !records;
    progress record;
    if (not (Sweep.ok verdict)) && !failure = None then
      failure := Some (scfg, case, verdict);
    verdict
  in
  let stop () =
    !executed >= cfg.budget
    || (cfg.stop_on_failure && !failure <> None)
  in
  (* Phase 1: the deterministic seed corpus — one case per
     (scenario, kind). Under an injected bug this alone beats the
     brute-force matrix, which burns [sweeps] schedules per pair before
     moving on. *)
  List.iteri
    (fun i input -> if not (stop ()) && i < cfg.budget then ignore (execute Seed input))
    (seed_inputs cfg);
  (* Phase 2: coverage-guided mutation, biased toward recent corpus
     entries (the ones that most recently surfaced new behaviour). *)
  while not (stop ()) && Array.length !corpus > 0 do
    let n = Array.length !corpus in
    let parent =
      (* Geometric bias from the back: newest entries mutate most. *)
      let back = min (Sim.Rng.geometric rng ~p:0.35) (n - 1) in
      n - 1 - back
    in
    let op, input = mutate_input cfg rng !corpus.(parent) in
    ignore (execute (Mutated { parent; op }) input)
  done;
  {
    records = List.rev !records;
    executed = !executed;
    corpus = Array.to_list !corpus;
    failure = !failure;
    total_features = Coverage.size global;
  }
