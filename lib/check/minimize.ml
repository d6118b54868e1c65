type step = {
  action : string;
  candidate : string;
  kept : bool;  (** [true] when the shrunk candidate still fails. *)
}

type result = {
  cfg : Sweep.config;
  case : Sweep.case;
  verdict : Sweep.verdict;
  runs : int;
  steps : step list;
}

exception Not_a_witness

let ms ns = ns / 1_000_000

(* Shrinking re-runs the oracle, not a distance metric: a candidate is
   kept iff the full verification stack still fails on it. Coverage is
   never attached here — the minimizer wants the cheapest possible
   runs. *)
let run ?bundle_dir ?(progress = fun (_ : step) -> ()) cfg case =
  let runs = ref 0 in
  let steps = ref [] in
  let fails cfg =
    incr runs;
    not (Sweep.ok (Sweep.run_case cfg case))
  in
  let try_shrink ~action ~candidate cfg' ~keep ~drop =
    let kept = fails cfg' in
    let step = { action; candidate; kept } in
    steps := step :: !steps;
    progress step;
    if kept then keep cfg' else drop ()
  in
  (* Pin the fault plan: the scenario default becomes an explicit
     override so spec dropping has something concrete to chew on and the
     final replay carries the exact plan. *)
  let cfg = { cfg with Sweep.plan = Some (Sweep.plan_for cfg case) } in
  if not (fails cfg) then raise Not_a_witness;
  (* 1. Greedily drop fault-plan specs, one at a time, restarting after
     each successful drop (a later spec may only matter in combination
     with an earlier one). *)
  let rec drop_specs cfg =
    let plan =
      match cfg.Sweep.plan with Some p -> p | None -> assert false
    in
    let specs = Array.of_list plan.Faults.Plan.specs in
    let rec try_at i =
      if i >= Array.length specs then cfg
      else
        let remaining =
          List.filteri (fun j _ -> j <> i) plan.Faults.Plan.specs
        in
        let cfg' =
          {
            cfg with
            Sweep.plan = Some { plan with Faults.Plan.specs = remaining };
          }
        in
        try_shrink ~action:"drop-spec"
          ~candidate:(Faults.Plan.spec_name specs.(i))
          cfg' ~keep:drop_specs
          ~drop:(fun () -> try_at (i + 1))
    in
    try_at 0
  in
  let cfg = drop_specs cfg in
  (* 2. Binary-search the duration down to millisecond granularity. A
     spec scheduled past the shrunk duration is inert but still
     well-formed, so the plan needs no retouching. *)
  let cfg =
    let rec search cfg lo hi =
      (* Invariant: duration [hi] fails, [lo - 1] ms is untested-or-passes. *)
      if lo >= hi then cfg
      else
        let mid = (lo + hi) / 2 in
        let cfg' = { cfg with Sweep.duration_ns = Sim.Clock.ms mid } in
        try_shrink ~action:"shrink-duration"
          ~candidate:(Printf.sprintf "%d ms" mid)
          cfg'
          ~keep:(fun cfg' -> search cfg' lo mid)
          ~drop:(fun () -> search cfg (mid + 1) hi)
    in
    search cfg 1 (ms cfg.Sweep.duration_ns)
  in
  (* 3. Reduce the CPU count, smallest first. Candidates that would
     orphan a plan spec's CPU target are skipped outright (the plan is
     part of the witness; retargeting it would change the bug). *)
  let cfg =
    let plan =
      match cfg.Sweep.plan with Some p -> p | None -> assert false
    in
    let plan_fits cpus =
      Faults.Plan.validate ~cpus ~duration_ns:cfg.Sweep.duration_ns plan
      = Ok ()
    in
    let rec try_cpus c =
      if c >= cfg.Sweep.cpus then cfg
      else if not (plan_fits c) then try_cpus (c + 1)
      else
        try_shrink ~action:"reduce-cpus"
          ~candidate:(string_of_int c)
          { cfg with Sweep.cpus = c }
          ~keep:(fun cfg' -> cfg')
          ~drop:(fun () -> try_cpus (c + 1))
    in
    try_cpus 2
  in
  (* Final confirmation run: the verdict we report is from the exact
     configuration we print, and it alone writes the witness's bundle. *)
  incr runs;
  let verdict = Sweep.run_case { cfg with Sweep.bundle_dir } case in
  if Sweep.ok verdict then raise Not_a_witness;
  { cfg; case; verdict; runs = !runs; steps = List.rev !steps }

let step_json s =
  let module J = Metrics.Json in
  J.Obj
    [
      ("type", J.Str "shrink");
      ("action", J.Str s.action);
      ("candidate", J.Str s.candidate);
      ("kept", J.Bool s.kept);
    ]

let plan_specs m =
  match m.cfg.Sweep.plan with
  | Some p -> List.length p.Faults.Plan.specs
  | None -> 0

let to_json m =
  let module J = Metrics.Json in
  J.Obj
    [
      ("type", J.Str "minimized");
      ("runs", J.Int m.runs);
      ("duration_ns", J.Int m.cfg.Sweep.duration_ns);
      ("cpus", J.Int m.cfg.Sweep.cpus);
      ("plan_specs", J.Int (plan_specs m));
      ("replay", J.Str m.verdict.Sweep.replay);
    ]
