module W = Workloads
module J = Metrics.Json

type config = {
  base : Sweep.config;
  budget : int;
  seed : int;
}

type origin = Seed | Mutated of { parent : int; op : string }

let origin_name = function
  | Seed -> "seed"
  | Mutated { op; _ } -> op

type record = {
  exec : int;
  origin : origin;
  cfg : Sweep.config;
  case : Sweep.case;
  verdict : Sweep.verdict;
  new_features : int;
  total_features : int;
  corpus_size : int;
}

type result = {
  records : record list;
  executed : int;
  corpus : (Sweep.config * Sweep.case) list;
  failure : record option;
  total_features : int;
}

(* One mutation of a corpus entry. Ops are drawn from the fuzz RNG only,
   so the whole campaign is a pure function of (config, seed, budget). *)
let mutate rng ((cfg : Sweep.config), (case : Sweep.case)) =
  match Sim.Rng.int rng 4 with
  | 0 ->
      (* New same-instant serialization of the same run. *)
      ( "shuffle",
        (cfg, { case with Sweep.shuffle_seed = Sim.Rng.int rng 1_000_000 }) )
  | 1 ->
      (* Perturb the fault plan (materializing the scenario default the
         first time this lineage is touched). *)
      let salt = Sim.Rng.int rng max_int in
      let plan =
        Faults.Plan.mutate ~salt ~cpus:cfg.Sweep.cpus
          ~duration_ns:cfg.Sweep.duration_ns (Sweep.plan_for cfg case)
      in
      ("plan", ({ cfg with Sweep.plan = Some plan }, case))
  | 2 ->
      (* Stretch or squeeze the run: x0.5 .. x2, >= 2 ms. *)
      let factor = 0.5 +. Sim.Rng.float rng 1.5 in
      let d =
        max (Sim.Clock.ms 2)
          (int_of_float (float_of_int cfg.Sweep.duration_ns *. factor))
      in
      ("duration", ({ cfg with Sweep.duration_ns = d }, case))
  | _ ->
      let cpus = 2 + Sim.Rng.int rng 7 in
      if cpus = cfg.Sweep.cpus then
        ( "shuffle",
          (cfg, { case with Sweep.shuffle_seed = Sim.Rng.int rng 1_000_000 })
        )
      else begin
        (* A narrower machine may invalidate plan CPU targets; retarget
           by revalidating and dropping what no longer fits. *)
        let plan =
          match cfg.Sweep.plan with
          | None -> None
          | Some p ->
              let specs =
                List.filter
                  (fun s ->
                    Faults.Plan.validate ~cpus
                      ~duration_ns:cfg.Sweep.duration_ns
                      { p with Faults.Plan.specs = [ s ] }
                    = Ok ())
                  p.Faults.Plan.specs
              in
              Some { p with Faults.Plan.specs = specs }
        in
        ("cpus", ({ cfg with Sweep.cpus; plan }, case))
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
  let executed = ref 0 in
  let failure = ref None in
  while !executed < cfg.budget && !failure = None do
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
    progress record;
    if not result.Differential.ok then failure := Some record
  done;
  { diff_executed = !executed; diff_failure = !failure }

let diff_record_json r =
  J.Obj
    [
      ("type", J.Str "diff_case");
      ("exec", J.Int r.d_exec);
      ("trace_seed", J.Int r.trace_seed);
      ("ops", J.Int r.n_ops);
      ("slots", J.Int r.n_slots);
      ("gap_ns", J.Int r.gap_ns);
      ("ok", J.Bool r.result.Differential.ok);
      ("mismatches", J.Int (List.length r.result.Differential.mismatches));
    ]

let diff_summary_json cfg ~kinds dr =
  let failure = dr.diff_failure <> None in
  J.Obj
    [
      ("type", J.Str "summary");
      ("mode", J.Str "differential");
      ("executed", J.Int dr.diff_executed);
      ("budget", J.Int cfg.budget);
      ( "backends",
        J.List (List.map (fun k -> J.Str (W.Env.kind_label k)) kinds) );
      ("failure", J.Bool failure);
      ("ok", J.Bool (not failure));
    ]

let run ?(progress = fun (_ : record) -> ()) cfg =
  let rng = Sim.Rng.create ~seed:cfg.seed in
  let global = Coverage.create () in
  let corpus = ref [||] in
  let records = ref [] in
  let executed = ref 0 in
  let failure = ref None in
  let execute origin (scfg, case) =
    let cov = Coverage.create () in
    let verdict = Sweep.run_case ~coverage:cov scfg case in
    incr executed;
    let fresh = Coverage.absorb ~into:global cov in
    if fresh > 0 then corpus := Array.append !corpus [| (scfg, case) |];
    let record =
      {
        exec = !executed;
        origin;
        cfg = scfg;
        case;
        verdict;
        new_features = fresh;
        total_features = Coverage.size global;
        corpus_size = Array.length !corpus;
      }
    in
    records := record :: !records;
    progress record;
    if not (Sweep.ok verdict) then failure := Some record
  in
  let stop () = !executed >= cfg.budget || !failure <> None in
  (* Phase 1: the deterministic seed corpus — one case per
     (scenario, kind). Under an injected bug this alone beats the
     brute-force matrix, which burns [sweeps] schedules per pair before
     moving on. *)
  List.iter
    (fun case -> if not (stop ()) then execute Seed (cfg.base, case))
    (Sweep.cases { cfg.base with Sweep.sweeps = 1 });
  (* Phase 2: coverage-guided mutation, biased toward recent corpus
     entries (the ones that most recently surfaced new behaviour). *)
  while not (stop ()) && Array.length !corpus > 0 do
    let n = Array.length !corpus in
    let parent =
      (* Geometric bias from the back: newest entries mutate most. *)
      let back = min (Sim.Rng.geometric rng ~p:0.35) (n - 1) in
      n - 1 - back
    in
    let op, input = mutate rng !corpus.(parent) in
    execute (Mutated { parent; op }) input
  done;
  {
    records = List.rev !records;
    executed = !executed;
    corpus = Array.to_list !corpus;
    failure = !failure;
    total_features = Coverage.size global;
  }

let record_json r =
  J.Obj
    [
      ("type", J.Str "case");
      ("exec", J.Int r.exec);
      ("origin", J.Str (origin_name r.origin));
      ("scenario", J.Str (W.Chaos.scenario_name r.case.Sweep.scenario));
      ("alloc", J.Str (W.Env.kind_label r.case.Sweep.kind));
      ("shuffle_seed", J.Int r.case.Sweep.shuffle_seed);
      ("duration_ns", J.Int r.cfg.Sweep.duration_ns);
      ("cpus", J.Int r.cfg.Sweep.cpus);
      ( "plan",
        match r.cfg.Sweep.plan with
        | None -> J.Null
        | Some p -> J.Str (Faults.Plan.to_compact p) );
      ("ok", J.Bool (Sweep.ok r.verdict));
      ("new_features", J.Int r.new_features);
      ("total_features", J.Int r.total_features);
      ("corpus_size", J.Int r.corpus_size);
      ("replay", J.Str r.verdict.Sweep.replay);
    ]

let summary_json cfg result ~witness =
  let failure = witness <> None in
  let witness_fields =
    match witness with
    | None -> []
    | Some (w : Sweep.verdict) ->
        [
          ("replay", J.Str w.Sweep.replay);
          ( "bundle",
            match w.Sweep.bundle with Some p -> J.Str p | None -> J.Null );
        ]
  in
  J.Obj
    ([
       ("type", J.Str "summary");
       ("executed", J.Int result.executed);
       ("budget", J.Int cfg.budget);
       ("total_features", J.Int result.total_features);
       ("corpus_size", J.Int (List.length result.corpus));
       ("failure", J.Bool failure);
     ]
    @ witness_fields
    @ [ ("ok", J.Bool (not failure)) ])
