module W = Workloads

type mutation =
  | No_mutation
  | Skip_gp
  | Drop_stall
  | Lose_cb
  | Free_latent_page
  | Skip_epoch_advance
  | Drop_retire_batch

let mutation_name = function
  | No_mutation -> "none"
  | Skip_gp -> "skip-gp"
  | Drop_stall -> "drop-stall"
  | Lose_cb -> "lose-cb"
  | Free_latent_page -> "free-latent-page"
  | Skip_epoch_advance -> "skip-epoch-advance"
  | Drop_retire_batch -> "drop-retire-batch"

let mutation_of_string = function
  | "none" -> Some No_mutation
  | "skip-gp" | "skip_gp" -> Some Skip_gp
  | "drop-stall" | "drop_stall" -> Some Drop_stall
  | "lose-cb" | "lose_cb" -> Some Lose_cb
  | "free-latent-page" | "free_latent_page" -> Some Free_latent_page
  | "skip-epoch-advance" | "skip_epoch_advance" -> Some Skip_epoch_advance
  | "drop-retire-batch" | "drop_retire_batch" -> Some Drop_retire_batch
  | _ -> None

let all_mutations =
  [ Skip_gp; Drop_stall; Lose_cb; Free_latent_page; Skip_epoch_advance;
    Drop_retire_batch ]

type oracles = {
  page_reuse : bool;
  early_reuse : bool;
  missed_qs : bool;
  cb_conservation : bool;
}

let all_oracles =
  { page_reuse = true; early_reuse = true; missed_qs = true;
    cb_conservation = true }

type config = {
  scenarios : W.Chaos.scenario list;
  kinds : W.Env.kind list;
  sweeps : int;
  base_shuffle_seed : int;
  seed : int;
  cpus : int;
  duration_ns : int;
  total_pages : int;
  mutation : mutation;
  oracles : oracles;
  plan : Faults.Plan.t option;
  bundle_dir : string option;
}

let default_config =
  {
    scenarios = W.Chaos.all_scenarios;
    kinds = [ W.Env.Baseline; W.Env.Prudence_alloc ];
    sweeps = 20;
    base_shuffle_seed = 1;
    seed = 42;
    cpus = 4;
    duration_ns = Sim.Clock.ms 50;
    total_pages = 8_192;
    mutation = No_mutation;
    oracles = all_oracles;
    plan = None;
    bundle_dir = None;
  }

(* The armed stall-detector timeout scales with the run so it can actually
   fire inside short sweeps (the chaos CLI default of 200 ms never would);
   the missed-QS oracle bound sits at twice the timeout, so on unmutated
   runs a warning always exists before the oracle looks. *)
let stall_timeout_ns cfg = max 1 (cfg.duration_ns / 8)
let stall_bound_ns cfg = 2 * stall_timeout_ns cfg

type case = {
  scenario : W.Chaos.scenario;
  kind : W.Env.kind;
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
  oracle_events : int;
  updates : int;
  survived : bool;
  replay : string;
  bundle : string option;
}

let ok v =
  v.oracle_violations = [] && v.reader_violations = []
  && v.stall_violations = [] && v.cb_violations = []
  && v.audit_failures = [] && v.dropped_violations = 0

let replay_command cfg case =
  Printf.sprintf
    "prudence-repro check %s --alloc=%s --seed=%d --shuffle-seed=%d \
     --sweeps=1 --cpus=%d --duration-ms=%d --pages=%d%s%s"
    (W.Chaos.scenario_name case.scenario)
    (W.Env.kind_label case.kind)
    cfg.seed case.shuffle_seed cfg.cpus
    (cfg.duration_ns / 1_000_000)
    cfg.total_pages
    (match cfg.mutation with
    | No_mutation -> ""
    | m -> " --mutate=" ^ mutation_name m)
    (match cfg.plan with
    | None -> ""
    | Some p -> Printf.sprintf " --plan='%s'" (Faults.Plan.to_compact p))

let chaos_config cfg scenario =
  {
    (W.Chaos.default_config ~scenario) with
    W.Chaos.seed = cfg.seed;
    cpus = cfg.cpus;
    duration_ns = cfg.duration_ns;
    total_pages = cfg.total_pages;
    stall_timeout_ns = stall_timeout_ns cfg;
  }

let plan_for cfg case =
  match cfg.plan with
  | Some p -> p
  | None -> W.Chaos.plan_for (chaos_config cfg case.scenario)

(* Everything in a bundle derives from virtual time and deterministic
   counters, so the same seed and the same violation reproduce it
   byte-for-byte (the bundle-determinism test's contract). The file name
   is the case coordinates, so a sweep directory maps one failing
   schedule to one bundle. *)
let dump_bundle dir cfg env v =
  let reason =
    if v.oracle_violations <> [] then "oracle-violation"
    else if v.reader_violations <> [] then "reader-violation"
    else if v.stall_violations <> [] then "stall-violation"
    else if v.cb_violations <> [] then "cb-violation"
    else if v.audit_failures <> [] then "audit-failure"
    else "dropped-violations"
  in
  let violations =
    List.map Shadow.describe v.oracle_violations
    @ v.reader_violations @ v.stall_violations @ v.cb_violations
    @ v.audit_failures
  in
  let offenders =
    List.rev
      (List.fold_left
         (fun acc (viol : Shadow.violation) ->
           if List.mem_assoc viol.Shadow.oid acc then acc
           else (viol.Shadow.oid, Shadow.describe viol) :: acc)
         [] v.oracle_violations)
  in
  let path =
    Filename.concat dir
      (Printf.sprintf "bundle-%s-%s-s%d%s.ndjson"
         (W.Chaos.scenario_name v.case.scenario)
         (W.Env.kind_label v.case.kind)
         v.case.shuffle_seed
         (match cfg.mutation with
         | No_mutation -> ""
         | m -> "-" ^ mutation_name m))
  in
  Obs.Bundle.write ~path ~reason ~replay:v.replay
    ~scheme:(W.Env.kind_label v.case.kind)
    ~at_ns:(Sim.Engine.now env.W.Env.eng)
    ~tracer:env.W.Env.tracer ~anatomy:(W.Env.anatomy env) ~offenders
    ~violations ~metrics:(Stats.Providers.metrics env) ();
  path

(* The chaos stack ([Workloads.Chaos.env_config]) with the shuffled
   tie-break, the sweep's stall budget and the mutation's unsafe switch;
   [run_case] arms the full verification stack (shadow oracle + pattern
   oracles + auditors) on it. *)
let env_config cfg case chaos =
  let base = W.Chaos.env_config chaos case.kind in
  {
    base with
    W.Env.tiebreak = Sim.Engine.Shuffle case.shuffle_seed;
    (* Bundling needs the flight-recorder window, so it arms the tracer
       and the anatomy recorder — both pure observation, so the verdict
       is identical either way. *)
    trace = (if cfg.bundle_dir = None then None else Some 1_024);
    obs = cfg.bundle_dir <> None;
    rcu_config =
      {
        base.W.Env.rcu_config with
        Rcu.stall_timeout_ns =
          (match cfg.mutation with
          | Drop_stall -> None
          | _ -> base.W.Env.rcu_config.Rcu.stall_timeout_ns);
        unsafe_lose_cb_every =
          (match cfg.mutation with Lose_cb -> Some 64 | _ -> None);
      };
    prudence_config =
      {
        base.W.Env.prudence_config with
        Prudence.unsafe_skip_gp = cfg.mutation = Skip_gp;
      };
    ebr_config =
      { Slab.Ebr.unsafe_no_scan = cfg.mutation = Skip_epoch_advance };
    hyaline_config =
      { Slab.Hyaline.unsafe_drop_refs = cfg.mutation = Drop_retire_batch };
  }

let run_case ?coverage cfg case =
  let chaos = chaos_config cfg case.scenario in
  let env = W.Env.build (env_config cfg case chaos) in
  let oracle =
    Shadow.install ~page_reuse:cfg.oracles.page_reuse
      ~early_reuse:cfg.oracles.early_reuse ?coverage env
  in
  let orc =
    Oracles.install
      {
        Oracles.missed_qs = cfg.oracles.missed_qs;
        cb_conservation = cfg.oracles.cb_conservation;
        stall_bound_ns = stall_bound_ns cfg;
      }
      env
  in
  env.W.Env.fenv.Slab.Frame.unsafe_destroy_latent <-
    cfg.mutation = Free_latent_page;
  let engine = Sim.Machine.engine env.W.Env.machine in
  (match coverage with
  | Some cov ->
      Trace.Tap.subscribe (Sim.Engine.tap env.W.Env.eng)
        (fun kind ~cpu ~label:_ _ _ ->
          let kind_index = Trace.Event.kind_index kind in
          if kind_index >= 0 then Coverage.note_trace cov ~cpu ~kind_index);
      Sim.Engine.set_observer engine
        (Some
           (fun ~time ->
             Coverage.note_event cov ~time;
             Oracles.poll_stall orc))
  | None ->
      if cfg.oracles.missed_qs then
        Sim.Engine.set_observer engine
          (Some (fun ~time:_ -> Oracles.poll_stall orc)));
  let o = W.Chaos.run_env ?plan:cfg.plan chaos env in
  Oracles.finalize orc;
  (match coverage with Some cov -> Coverage.finish cov | None -> ());
  let v =
    {
      case;
      oracle_violations = Shadow.violations oracle;
      reader_violations = W.Env.safety_violations env;
      stall_violations = Oracles.stall_violations orc;
      cb_violations = Oracles.cb_violations orc;
      audit_failures = Audit.env env;
      dropped_violations =
        Shadow.dropped_violations oracle
        + Rcu.Readers.dropped_violations env.W.Env.readers
        + Oracles.dropped_violations orc;
      oracle_events = Shadow.events oracle;
      updates = o.W.Chaos.updates;
      survived = o.W.Chaos.survived;
      replay = replay_command cfg case;
      bundle = None;
    }
  in
  match cfg.bundle_dir with
  | Some dir when not (ok v) -> { v with bundle = Some (dump_bundle dir cfg env v) }
  | Some _ | None -> v

let verdict_json v =
  let module J = Metrics.Json in
  let count l = J.Int (List.length l) in
  J.Obj
    [
      ("type", J.Str "verdict");
      ("scenario", J.Str (W.Chaos.scenario_name v.case.scenario));
      ("alloc", J.Str (W.Env.kind_label v.case.kind));
      ("shuffle_seed", J.Int v.case.shuffle_seed);
      ("ok", J.Bool (ok v));
      ("oracle_violations", count v.oracle_violations);
      ("reader_violations", count v.reader_violations);
      ("stall_violations", count v.stall_violations);
      ("cb_violations", count v.cb_violations);
      ("audit_failures", count v.audit_failures);
      ("dropped_violations", J.Int v.dropped_violations);
      ("oracle_events", J.Int v.oracle_events);
      ("updates", J.Int v.updates);
      ("survived", J.Bool v.survived);
      ("replay", J.Str v.replay);
      ("bundle", match v.bundle with Some p -> J.Str p | None -> J.Null);
    ]

let cases cfg =
  List.concat_map
    (fun scenario ->
      List.concat_map
        (fun kind ->
          List.init cfg.sweeps (fun i ->
              { scenario; kind; shuffle_seed = cfg.base_shuffle_seed + i }))
        cfg.kinds)
    cfg.scenarios

let run ?(progress = fun _ -> ()) cfg =
  List.map
    (fun case ->
      progress case;
      run_case cfg case)
    (cases cfg)

let pp_case ppf case =
  Format.fprintf ppf "%s/%s shuffle=%d"
    (W.Chaos.scenario_name case.scenario)
    (W.Env.kind_label case.kind)
    case.shuffle_seed

let pp_verdict ppf v =
  if ok v then
    Format.fprintf ppf "PASS %a (%d updates, %d probe events%s)" pp_case
      v.case v.updates v.oracle_events
      (if v.survived then "" else ", oom")
  else begin
    Format.fprintf ppf "@[<v 2>FAIL %a:" pp_case v.case;
    let capped label describe items =
      List.iteri
        (fun i x ->
          if i < 5 then Format.fprintf ppf "@,%s: %s" label (describe x))
        items;
      let n = List.length items in
      if n > 5 then Format.fprintf ppf "@,... and %d more %s(s)" (n - 5) label
    in
    capped "oracle" Shadow.describe v.oracle_violations;
    capped "reader-checker" Fun.id v.reader_violations;
    capped "stall-oracle" Fun.id v.stall_violations;
    capped "cb-oracle" Fun.id v.cb_violations;
    capped "audit" Fun.id v.audit_failures;
    if v.dropped_violations > 0 then
      Format.fprintf ppf "@,(plus %d violation(s) past the log bound)"
        v.dropped_violations;
    (match v.bundle with
    | Some p -> Format.fprintf ppf "@,bundle: %s" p
    | None -> ());
    Format.fprintf ppf "@,replay: %s@]" v.replay
  end

let summary ppf verdicts =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let key = (v.case.scenario, v.case.kind) in
      let passed, failed =
        Option.value (Hashtbl.find_opt groups key) ~default:(0, 0)
      in
      Hashtbl.replace groups key
        (if ok v then (passed + 1, failed) else (passed, failed + 1)))
    verdicts;
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun scenario ->
      List.iter
        (fun kind ->
          match Hashtbl.find_opt groups (scenario, kind) with
          | None -> ()
          | Some (passed, failed) ->
              Format.fprintf ppf "%-16s %-9s %3d/%d schedules clean%s@,"
                (W.Chaos.scenario_name scenario)
                (W.Env.kind_label kind) passed (passed + failed)
                (if failed > 0 then "  <-- FAIL" else ""))
        W.Env.all_kinds)
    W.Chaos.all_scenarios;
  let failures = List.filter (fun v -> not (ok v)) verdicts in
  if failures <> [] then begin
    Format.fprintf ppf "@,%d failing schedule(s):@," (List.length failures);
    List.iter (fun v -> Format.fprintf ppf "%a@," pp_verdict v) failures
  end;
  Format.fprintf ppf "@]"
