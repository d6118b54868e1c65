(* The robustness toolkit: the kernel-bug oracle catalogue (each oracle
   proved necessary by its mutation self-test), coverage-guided fuzzing,
   witness minimization, bounded violation logs, and the fault-plan
   mutation API. *)

module W = Workloads
module Sweep = Check.Sweep
module Fuzz = Check.Fuzz
module Minimize = Check.Minimize
module Plan = Faults.Plan

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* One (scenario, allocator) pair known to trigger the given mutation's
   bug class (probed empirically; kept small for test speed). *)
let witness_cfg mutation scenario kind =
  {
    Sweep.default_config with
    Sweep.scenarios = [ scenario ];
    kinds = [ kind ];
    sweeps = 1;
    cpus = 4;
    duration_ns = Sim.Clock.ms 20;
    total_pages = 4_096;
    mutation;
  }

let witness_case scenario kind =
  { Sweep.scenario; kind; shuffle_seed = 1 }

(* An oracle has teeth iff its mutant fails, and it is *necessary* iff the
   same mutant passes with only that oracle disabled: nothing else in the
   verification stack sees the bug. *)
let necessity ~mutation ~scenario ~kind ~disable ~fired () =
  let cfg = witness_cfg mutation scenario kind in
  let case = witness_case scenario kind in
  let v = Sweep.run_case cfg case in
  Alcotest.(check bool) "mutant caught with the oracle on" false (Sweep.ok v);
  Alcotest.(check bool) "the intended oracle fired" true (fired v);
  Alcotest.(check bool) "replay carries the mutation" true
    (contains ~affix:("--mutate=" ^ Sweep.mutation_name mutation) v.Sweep.replay);
  Alcotest.(check bool) "replay carries the workload seed" true
    (contains ~affix:"--seed=42" v.Sweep.replay);
  let off = { cfg with Sweep.oracles = disable cfg.Sweep.oracles } in
  let v' = Sweep.run_case off case in
  if not (Sweep.ok v') then
    Alcotest.failf "mutant still caught with the oracle off: %s"
      (Format.asprintf "%a" Sweep.pp_verdict v')

let test_missed_qs_necessity () =
  necessity ~mutation:Sweep.Drop_stall ~scenario:W.Chaos.Stalled_reader
    ~kind:W.Env.Prudence_alloc
    ~disable:(fun o -> { o with Sweep.missed_qs = false })
    ~fired:(fun v -> v.Sweep.stall_violations <> [])
    ()

let test_cb_conservation_necessity () =
  necessity ~mutation:Sweep.Lose_cb ~scenario:W.Chaos.Cb_flood
    ~kind:W.Env.Prudence_alloc
    ~disable:(fun o -> { o with Sweep.cb_conservation = false })
    ~fired:(fun v -> v.Sweep.cb_violations <> [])
    ()

let test_page_reuse_necessity () =
  necessity ~mutation:Sweep.Free_latent_page ~scenario:W.Chaos.Pressure_spike
    ~kind:W.Env.Prudence_alloc
    ~disable:(fun o -> { o with Sweep.page_reuse = false })
    ~fired:(fun v ->
      List.exists
        (fun viol ->
          match viol.Check.Shadow.kind with
          | Check.Shadow.Page_reuse _ -> true
          | _ -> false)
        v.Sweep.oracle_violations)
    ()

(* Violation logs are first-K bounded; the overflow is counted, not
   silently dropped. Lose-cb under a callback flood overflows the
   conservation oracle's log. *)
let test_violation_logs_bounded () =
  let cfg = witness_cfg Sweep.Lose_cb W.Chaos.Cb_flood W.Env.Prudence_alloc in
  let v = Sweep.run_case cfg (witness_case W.Chaos.Cb_flood W.Env.Prudence_alloc) in
  Alcotest.(check bool) "log capped" true
    (List.length v.Sweep.cb_violations <= 16);
  Alcotest.(check bool) "overflow counted" true (v.Sweep.dropped_violations > 0)

let test_reader_log_bounded () =
  let env = Test_util.make_env ~cpus:2 () in
  let readers = Rcu.Readers.create env.Test_util.rcu in
  for i = 1 to Rcu.Readers.max_logged_violations + 10 do
    Rcu.Readers.record_violation readers (Printf.sprintf "synthetic %d" i)
  done;
  Alcotest.(check int) "first K kept" Rcu.Readers.max_logged_violations
    (List.length (Rcu.Readers.violations readers));
  Alcotest.(check int) "rest counted" 10
    (Rcu.Readers.dropped_violations readers);
  Alcotest.(check bool) "oldest first" true
    (List.hd (Rcu.Readers.violations readers) = "synthetic 1")

let small_fuzz =
  {
    Fuzz.base =
      {
        Sweep.default_config with
        Sweep.scenarios = [ W.Chaos.Clean; W.Chaos.Pressure_spike ];
        kinds = [ W.Env.Prudence_alloc ];
        cpus = 2;
        duration_ns = Sim.Clock.ms 10;
        total_pages = 4_096;
      };
    budget = 10;
    seed = 5;
  }

let input_key (i : Fuzz.input) =
  ( W.Chaos.scenario_name i.Fuzz.scenario,
    W.Env.kind_label i.Fuzz.kind,
    i.Fuzz.shuffle_seed,
    i.Fuzz.duration_ns,
    i.Fuzz.cpus,
    Option.map Plan.to_compact i.Fuzz.plan )

(* Same (config, seed, budget): the whole campaign replays record for
   record — inputs, coverage deltas, corpus growth, verdicts. *)
let test_fuzz_deterministic () =
  let a = Fuzz.run small_fuzz and b = Fuzz.run small_fuzz in
  Alcotest.(check int) "same executed" a.Fuzz.executed b.Fuzz.executed;
  Alcotest.(check int) "same features" a.Fuzz.total_features
    b.Fuzz.total_features;
  List.iter2
    (fun (ra : Fuzz.record) (rb : Fuzz.record) ->
      Alcotest.(check int) "exec" ra.Fuzz.exec rb.Fuzz.exec;
      Alcotest.(check string) "origin" (Fuzz.origin_name ra.Fuzz.origin)
        (Fuzz.origin_name rb.Fuzz.origin);
      Alcotest.(check bool) "input" true
        (input_key ra.Fuzz.input = input_key rb.Fuzz.input);
      Alcotest.(check bool) "verdict" (Sweep.ok ra.Fuzz.verdict)
        (Sweep.ok rb.Fuzz.verdict);
      Alcotest.(check int) "new features" ra.Fuzz.new_features
        rb.Fuzz.new_features;
      Alcotest.(check int) "corpus" ra.Fuzz.corpus_size rb.Fuzz.corpus_size)
    a.Fuzz.records b.Fuzz.records

(* The campaign actually fuzzes: past the seed corpus, mutated inputs run
   and some earn their way into the corpus. *)
let test_fuzz_explores () =
  let r = Fuzz.run { small_fuzz with Fuzz.budget = 12 } in
  Alcotest.(check int) "budget honoured" 12 r.Fuzz.executed;
  Alcotest.(check bool) "mutants executed" true
    (List.exists
       (fun (rec_ : Fuzz.record) ->
         match rec_.Fuzz.origin with Fuzz.Mutated _ -> true | _ -> false)
       r.Fuzz.records);
  Alcotest.(check bool) "coverage accumulated" true (r.Fuzz.total_features > 0);
  Alcotest.(check bool) "corpus grew past nothing" true (r.Fuzz.corpus <> [])

(* Acceptance: under an injected bug, guided fuzzing reaches a failure in
   fewer executions than the brute-force 20-sweep matrix walk. *)
let test_fuzz_beats_brute_force () =
  let base =
    {
      Sweep.default_config with
      Sweep.duration_ns = Sim.Clock.ms 20;
      total_pages = 4_096;
      mutation = Sweep.Free_latent_page;
    }
  in
  let fuzz =
    Fuzz.run { Fuzz.base; budget = 200; seed = 1 }
  in
  (match fuzz.Fuzz.failure with
  | None -> Alcotest.fail "fuzzer never found the injected bug"
  | Some _ -> ());
  (* Brute force: the default sweep order, counting runs to first blood. *)
  let brute = ref 0 and found = ref false in
  List.iter
    (fun case ->
      if not !found then begin
        incr brute;
        if not (Sweep.ok (Sweep.run_case base case)) then found := true
      end)
    (Sweep.cases base);
  Alcotest.(check bool) "brute force finds it too" true !found;
  if fuzz.Fuzz.executed >= !brute then
    Alcotest.failf "guided took %d executions, brute force %d"
      fuzz.Fuzz.executed !brute

(* The minimizer only keeps shrinks that still fail, and its final replay
   carries the pinned plan. *)
let test_minimizer_shrinks_witness () =
  let cfg =
    witness_cfg Sweep.Free_latent_page W.Chaos.Pressure_spike
      W.Env.Prudence_alloc
  in
  let case = witness_case W.Chaos.Pressure_spike W.Env.Prudence_alloc in
  let m = Minimize.run cfg case in
  Alcotest.(check bool) "duration shrank" true
    (m.Minimize.cfg.Sweep.duration_ns < cfg.Sweep.duration_ns);
  Alcotest.(check bool) "still fails" false (Sweep.ok m.Minimize.verdict);
  Alcotest.(check bool) "replay pins the plan" true
    (contains ~affix:"--plan='" m.Minimize.replay);
  Alcotest.(check bool) "runs counted" true
    (m.Minimize.runs >= List.length m.Minimize.steps);
  (* The minimal witness reproduces: run the exact shrunk config again. *)
  Alcotest.(check bool) "shrunk witness reproduces" false
    (Sweep.ok (Sweep.run_case m.Minimize.cfg m.Minimize.case))

let test_minimizer_rejects_passing_case () =
  let cfg = witness_cfg Sweep.No_mutation W.Chaos.Clean W.Env.Prudence_alloc in
  match Minimize.run cfg (witness_case W.Chaos.Clean W.Env.Prudence_alloc) with
  | _ -> Alcotest.fail "minimizer accepted a passing case"
  | exception Minimize.Not_a_witness -> ()

(* --- fault-plan mutation API properties --- *)

let plan_cpus = 4
let plan_duration = Sim.Clock.ms 50

let base_plan =
  Plan.make ~seed:3
    [
      Plan.Stalled_reader
        { cpu = 1; at_ns = Sim.Clock.ms 2; hold_ns = Some (Sim.Clock.ms 3) };
      Plan.Cpu_stall
        { cpu = 0; at_ns = Sim.Clock.ms 1; duration_ns = Sim.Clock.ms 4 };
      Plan.Alloc_fault
        { at_ns = Sim.Clock.ms 5; duration_ns = Sim.Clock.ms 2;
          fail_prob = 0.25 };
      Plan.Pressure_spike
        { at_ns = Sim.Clock.ms 3; duration_ns = Sim.Clock.ms 6; pages = 100 };
      Plan.Cb_flood
        { cpu = 2; at_ns = Sim.Clock.ms 4; duration_ns = Sim.Clock.ms 8;
          per_ms = 50 };
    ]

(* Plans are generated by walking the mutation API itself: every reachable
   mutant is a plan the fuzzer could actually produce. *)
let plan_of_salts salts =
  List.fold_left
    (fun p salt ->
      Plan.mutate ~salt ~cpus:plan_cpus ~duration_ns:plan_duration p)
    base_plan salts

let salts_arb = QCheck.(list_of_size Gen.(0 -- 12) (int_bound 1_000_000))

let prop_mutants_well_formed =
  QCheck.Test.make ~name:"plan: every reachable mutant validates" ~count:200
    salts_arb (fun salts ->
      Plan.validate ~cpus:plan_cpus ~duration_ns:plan_duration
        (plan_of_salts salts)
      = Ok ())

let prop_mutation_deterministic =
  QCheck.Test.make ~name:"plan: same salt, same mutant" ~count:200 salts_arb
    (fun salts -> plan_of_salts salts = plan_of_salts salts)

let prop_compact_roundtrip =
  QCheck.Test.make ~name:"plan: compact encoding round-trips" ~count:200
    salts_arb (fun salts ->
      let p = plan_of_salts salts in
      Plan.of_compact (Plan.to_compact p) = Ok p)

let suite =
  [
    Alcotest.test_case "oracle necessity: missed-QS stall" `Quick
      test_missed_qs_necessity;
    Alcotest.test_case "oracle necessity: callback conservation" `Quick
      test_cb_conservation_necessity;
    Alcotest.test_case "oracle necessity: premature page reuse" `Quick
      test_page_reuse_necessity;
    Alcotest.test_case "violation logs are first-K bounded" `Quick
      test_violation_logs_bounded;
    Alcotest.test_case "reader violation log bounded" `Quick
      test_reader_log_bounded;
    Alcotest.test_case "fuzz: campaign is deterministic" `Quick
      test_fuzz_deterministic;
    Alcotest.test_case "fuzz: mutates and accumulates coverage" `Quick
      test_fuzz_explores;
    Alcotest.test_case "fuzz: guided beats brute force" `Quick
      test_fuzz_beats_brute_force;
    Alcotest.test_case "minimize: witness shrinks and reproduces" `Quick
      test_minimizer_shrinks_witness;
    Alcotest.test_case "minimize: passing case rejected" `Quick
      test_minimizer_rejects_passing_case;
    QCheck_alcotest.to_alcotest prop_mutants_well_formed;
    QCheck_alcotest.to_alcotest prop_mutation_deterministic;
    QCheck_alcotest.to_alcotest prop_compact_roundtrip;
  ]
