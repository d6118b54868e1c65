module W = Workloads

type op = Alloc of int | Free of int | Defer of int

type trace = {
  n_slots : int;
  obj_size : int;
  gap_ns : int;
  ops : op array;
}

(* Ops are generated against an occupancy model so the script is always
   valid: allocations target empty slots, frees target occupied ones. A
   slot that is occupied defer-frees twice as often as it frees — the
   interesting paths are the deferred ones. *)
let gen ?(n_slots = 64) ?(n_ops = 2000) ?(obj_size = 512) ?(gap_ns = 20_000)
    ~seed () =
  let rng = Sim.Rng.create ~seed in
  let occupied = Array.make n_slots false in
  let n_occupied = ref 0 in
  let ops =
    Array.init n_ops (fun _ ->
        (* Bias towards filling when empty, draining when full. *)
        let want_alloc =
          !n_occupied = 0
          || (!n_occupied < n_slots && Sim.Rng.int rng n_slots >= !n_occupied)
        in
        if want_alloc then begin
          let slot = ref (Sim.Rng.int rng n_slots) in
          while occupied.(!slot) do
            slot := (!slot + 1) mod n_slots
          done;
          occupied.(!slot) <- true;
          incr n_occupied;
          Alloc !slot
        end
        else begin
          let slot = ref (Sim.Rng.int rng n_slots) in
          while not occupied.(!slot) do
            slot := (!slot + 1) mod n_slots
          done;
          occupied.(!slot) <- false;
          decr n_occupied;
          if Sim.Rng.int rng 3 = 0 then Free !slot else Defer !slot
        end)
  in
  { n_slots; obj_size; gap_ns; ops }

type outcome = Alloc_ok | Alloc_failed | Freed | Deferred_ok | Skipped

let outcome_name = function
  | Alloc_ok -> "alloc-ok"
  | Alloc_failed -> "alloc-failed"
  | Freed -> "freed"
  | Deferred_ok -> "deferred"
  | Skipped -> "skipped"

type replay = {
  label : string;
  outcomes : outcome array;
  oracle_violations : Shadow.violation list;
  reader_violations : string list;
  audit_failures : string list;
  finished : bool;
}

let replay ?(seed = 42) ?(total_pages = 16_384) trace kind =
  let env_cfg =
    {
      W.Env.default_config with
      W.Env.kind;
      cpus = 4;
      seed;
      total_pages;
      track_readers = true;
    }
  in
  let env = W.Env.build env_cfg in
  let oracle = Shadow.install env in
  let backend = env.W.Env.backend in
  let cache =
    backend.Slab.Backend.create_cache ~name:"diff" ~obj_size:trace.obj_size
  in
  let slots = Array.make trace.n_slots None in
  let outcomes = Array.make (Array.length trace.ops) Skipped in
  let finished = ref false in
  let eng = env.W.Env.eng in
  Sim.Process.spawn eng (fun () ->
      Array.iteri
        (fun i op ->
          let cpu = W.Env.cpu env (i mod env_cfg.W.Env.cpus) in
          (match op with
          | Alloc slot -> (
              match backend.Slab.Backend.alloc cache cpu with
              | obj ->
                  slots.(slot) <- Some obj;
                  outcomes.(i) <- Alloc_ok
              | exception Slab.Frame.Oom -> outcomes.(i) <- Alloc_failed)
          | Free slot -> (
              match slots.(slot) with
              | Some obj ->
                  slots.(slot) <- None;
                  backend.Slab.Backend.free cache cpu obj;
                  outcomes.(i) <- Freed
              | None -> outcomes.(i) <- Skipped)
          | Defer slot -> (
              match slots.(slot) with
              | Some obj ->
                  slots.(slot) <- None;
                  backend.Slab.Backend.free_deferred cache cpu obj;
                  outcomes.(i) <- Deferred_ok
              | None -> outcomes.(i) <- Skipped));
          Sim.Process.sleep eng trace.gap_ns)
        trace.ops;
      (* Quiesce: recycle every outstanding deferred object so the final
         audits see a settled allocator. *)
      backend.Slab.Backend.settle ();
      finished := true);
  let horizon =
    (Array.length trace.ops * trace.gap_ns) + Sim.Clock.ms 500
  in
  Sim.Engine.run ~until:horizon eng;
  {
    label = W.Env.kind_label kind;
    outcomes;
    oracle_violations = Shadow.violations oracle;
    reader_violations = W.Env.safety_violations env;
    audit_failures = Audit.env env;
    finished = !finished;
  }

type result = {
  ok : bool;
  mismatches : string list;
  replays : replay list;  (* one per kind, in request order *)
}

let verdict_mismatches r =
  let problems = ref [] in
  let note fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  if not r.finished then note "%s: replay did not finish" r.label;
  List.iter
    (fun v -> note "%s: oracle: %s" r.label (Shadow.describe v))
    r.oracle_violations;
  List.iter
    (fun s -> note "%s: reader-checker: %s" r.label s)
    r.reader_violations;
  List.iter (fun s -> note "%s: audit: %s" r.label s) r.audit_failures;
  List.rev !problems

let run ?seed ?total_pages
    ?(kinds = [ W.Env.Baseline; W.Env.Prudence_alloc ]) trace =
  let replays = List.map (replay ?seed ?total_pages trace) kinds in
  let reference = List.hd replays in
  let mismatches = ref [] in
  List.iter
    (fun r ->
      if r != reference then
        Array.iteri
          (fun i a ->
            let b = r.outcomes.(i) in
            if a <> b then
              mismatches :=
                Printf.sprintf "op %d: %s on %s, %s under %s" i
                  (outcome_name a) reference.label (outcome_name b) r.label
                :: !mismatches)
          reference.outcomes)
    replays;
  let mismatches =
    List.rev !mismatches @ List.concat_map verdict_mismatches replays
  in
  { ok = mismatches = []; mismatches; replays }

let to_json r =
  let module J = Metrics.Json in
  J.Obj
    [
      ("type", J.Str "differential");
      ("ok", J.Bool r.ok);
      ("mismatches", J.Int (List.length r.mismatches));
    ]

let pp_result ppf r =
  if r.ok then
    Format.fprintf ppf
      "differential: OK — %d ops, identical outcomes on %d stack(s) (%s), \
       all verdicts clean"
      (Array.length (List.hd r.replays).outcomes)
      (List.length r.replays)
      (String.concat ", " (List.map (fun x -> x.label) r.replays))
  else begin
    let n = List.length r.mismatches in
    Format.fprintf ppf "@[<v 2>differential: %d problem(s):" n;
    List.iteri
      (fun i s -> if i < 20 then Format.fprintf ppf "@,%s" s)
      r.mismatches;
    if n > 20 then Format.fprintf ppf "@,... and %d more" (n - 20);
    Format.fprintf ppf "@]"
  end
