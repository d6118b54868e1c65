type kind = Baseline | Prudence_alloc | Ebr_debra | Hyaline_alloc

let all_kinds = [ Baseline; Prudence_alloc; Ebr_debra; Hyaline_alloc ]

let kind_label = function
  | Baseline -> "slub"
  | Prudence_alloc -> "prudence"
  | Ebr_debra -> "ebr-debra"
  | Hyaline_alloc -> "hyaline"

let kind_of_string = function
  | "slub" | "baseline" -> Some Baseline
  | "prudence" -> Some Prudence_alloc
  | "ebr-debra" | "ebr" | "debra" -> Some Ebr_debra
  | "hyaline" -> Some Hyaline_alloc
  | _ -> None

type config = {
  kind : kind;
  cpus : int;
  nodes : int;
  seed : int;
  tiebreak : Sim.Engine.tiebreak;
  tick_ns : int;
  total_pages : int;
  rcu_config : Rcu.config;
  prudence_config : Prudence.config;
  ebr_config : Slab.Ebr.config;
  hyaline_config : Slab.Hyaline.config;
  track_readers : bool;
  trace : int option;
  prof : Prof.t;
  debug_checks : bool;
  obs : bool;
}

let default_config =
  {
    kind = Baseline;
    cpus = 8;
    nodes = 1;
    seed = 42;
    tiebreak = Sim.Engine.Fifo;
    tick_ns = 1_000_000;
    total_pages = 65_536;
    rcu_config = Rcu.default_config;
    prudence_config = Prudence.default_config;
    ebr_config = Slab.Ebr.default_config;
    hyaline_config = Slab.Hyaline.default_config;
    track_readers = false;
    trace = None;
    prof = Prof.null;
    debug_checks = true;
    obs = false;
  }

type t = {
  cfg : config;
  eng : Sim.Engine.t;
  machine : Sim.Machine.t;
  buddy : Mem.Buddy.t;
  pressure : Mem.Pressure.t;
  rcu : Rcu.t;
  fenv : Slab.Frame.env;
  readers : Rcu.Readers.t;
  backend : Slab.Backend.t;
  smr : Slab.Smr.t;
  rng : Sim.Rng.t;
  tracer : Trace.t;
  prof : Prof.t;
  obs : Obs.Anatomy.t option;
}

let build cfg =
  let eng = Sim.Engine.create ~seed:cfg.seed ~tiebreak:cfg.tiebreak () in
  let machine =
    Sim.Machine.create eng ~cpus:cfg.cpus ~nodes:cfg.nodes ~tick_ns:cfg.tick_ns
      ()
  in
  let tracer =
    match cfg.trace with
    | None -> Trace.null
    | Some ring_capacity ->
        Trace.create ~ring_capacity ~ncpus:cfg.cpus
          ~now:(fun () -> Sim.Engine.now eng)
          (Sim.Engine.tap eng)
  in
  Sim.Machine.set_prof machine cfg.prof;
  Sim.Machine.start machine;
  let buddy = Mem.Buddy.create ~total_pages:cfg.total_pages () in
  Mem.Buddy.set_prof buddy cfg.prof;
  let pressure = Mem.Pressure.create buddy in
  let rcu = Rcu.create ~config:cfg.rcu_config machine in
  Rcu.attach_pressure rcu pressure;
  let fenv = Slab.Frame.make_env ~pressure machine buddy in
  let readers = Rcu.Readers.create rcu in
  if cfg.track_readers then Rcu.Readers.check_allocs readers ~where:"alloc";
  (* [smr] is the truthful reclamation view: identical to the
     allocator's view except under an unsafe (mutation) config, where
     the allocator consumes the corrupted frontier while oracles keep
     asking the honest one — the same split [unsafe_skip_gp] has always
     had between Prudence's horizon and the shadow heap's [Rcu.poll]. *)
  let wire_epoch_prudence ~label ~backend_smr ~oracle_smr =
    (match (oracle_smr.Slab.Smr.reader_enter, oracle_smr.Slab.Smr.reader_exit)
    with
    | Some enter, Some exit -> Rcu.set_section_hooks rcu (Some (enter, exit))
    | _ -> ());
    let p =
      Prudence.create_smr ~config:cfg.prudence_config ~label fenv backend_smr
    in
    Prudence.attach_pressure p pressure;
    (Prudence.backend p, oracle_smr)
  in
  let backend, smr =
    match cfg.kind with
    | Baseline ->
        (Slab.Slub.backend (Slab.Slub.create fenv rcu), Slab.Smr.of_rcu rcu)
    | Prudence_alloc ->
        let p = Prudence.create ~config:cfg.prudence_config fenv rcu in
        (* No-op unless the config enables emergency_flush. *)
        Prudence.attach_pressure p pressure;
        (Prudence.backend p, Slab.Smr.of_rcu rcu)
    | Ebr_debra ->
        let e = Slab.Ebr.create ~config:cfg.ebr_config ~cpus:cfg.cpus eng in
        wire_epoch_prudence ~label:"ebr-debra" ~backend_smr:(Slab.Ebr.smr e)
          ~oracle_smr:(Slab.Ebr.oracle_smr e)
    | Hyaline_alloc ->
        let h =
          Slab.Hyaline.create ~config:cfg.hyaline_config ~cpus:cfg.cpus eng
        in
        wire_epoch_prudence ~label:"hyaline" ~backend_smr:(Slab.Hyaline.smr h)
          ~oracle_smr:(Slab.Hyaline.oracle_smr h)
  in
  (* The anatomy recorder subscribes to the engine's tap (lineages and
     the backend's detection events) and watches the truthful frontier,
     so it stays honest under frontier-corrupting mutations. Pure
     observation: deterministic counters are identical with it on or
     off. *)
  let obs =
    if cfg.obs then
      Some (Obs.Anatomy.create ~scheme:(kind_label cfg.kind) eng smr)
    else None
  in
  {
    cfg;
    eng;
    machine;
    buddy;
    pressure;
    rcu;
    fenv;
    readers;
    backend;
    smr;
    rng = Sim.Rng.split (Sim.Engine.rng eng);
    tracer;
    prof = cfg.prof;
    obs;
  }

let cpu t i = Sim.Machine.cpu t.machine i

let anatomy t =
  match t.obs with
  | Some a -> a
  | None -> invalid_arg "Env.anatomy: recorder not armed (config.obs = false)"

let used_bytes t = Mem.Buddy.used_bytes t.buddy

let node_lock_stats (cache : Slab.Frame.cache) =
  Array.fold_left
    (fun (c, w) (node : Slab.Frame.node) ->
      ( c + Sim.Simlock.contended node.Slab.Frame.lock,
        w + Sim.Simlock.total_wait_ns node.Slab.Frame.lock ))
    (0, 0) cache.Slab.Frame.nodes

let safety_violations t = Rcu.Readers.violations t.readers
