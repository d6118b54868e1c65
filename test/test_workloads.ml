module W = Workloads

let small_cfg kind =
  {
    W.Env.default_config with
    W.Env.kind;
    cpus = 2;
    seed = 5;
    total_pages = 16_384;
    tick_ns = 250_000;
  }

let test_env_build () =
  let env = W.Env.build (small_cfg W.Env.Baseline) in
  Alcotest.(check string) "label" "slub"
    env.W.Env.backend.Slab.Backend.label;
  Alcotest.(check int) "cpus" 2 (Sim.Machine.nr_cpus env.W.Env.machine);
  Alcotest.(check int) "no memory used yet" 0 (W.Env.used_bytes env);
  let env2 = W.Env.build (small_cfg W.Env.Prudence_alloc) in
  Alcotest.(check string) "label" "prudence"
    env2.W.Env.backend.Slab.Backend.label

let test_kind_parsing () =
  Alcotest.(check bool) "slub" true (W.Env.kind_of_string "slub" = Some W.Env.Baseline);
  Alcotest.(check bool) "prudence" true
    (W.Env.kind_of_string "prudence" = Some W.Env.Prudence_alloc);
  Alcotest.(check bool) "junk" true (W.Env.kind_of_string "junk" = None)

let micro_cfg =
  {
    W.Microbench.default_config with
    W.Microbench.pairs_per_cpu = 3_000;
    obj_size = 512;
  }

let test_microbench_completes_both () =
  List.iter
    (fun kind ->
      let env = W.Env.build (small_cfg kind) in
      let r = W.Microbench.run env micro_cfg in
      Alcotest.(check int)
        (W.Env.kind_label kind ^ " all pairs")
        6_000 r.W.Microbench.pairs;
      Alcotest.(check bool) "no oom" false r.W.Microbench.oom;
      Alcotest.(check bool) "positive rate" true
        (r.W.Microbench.pairs_per_sec > 0.);
      (* settle ran: nothing outstanding *)
      Alcotest.(check int) "rcu drained" 0
        (Rcu.pending_callbacks env.W.Env.rcu))
    [ W.Env.Baseline; W.Env.Prudence_alloc ]

let test_microbench_deterministic () =
  let run () =
    let env = W.Env.build (small_cfg W.Env.Prudence_alloc) in
    let r = W.Microbench.run env micro_cfg in
    (r.W.Microbench.duration_ns, r.W.Microbench.snap.Slab.Slab_stats.grows)
  in
  Alcotest.(check (pair int int)) "same seed, same result" (run ()) (run ())

let test_microbench_stats_consistent () =
  let env = W.Env.build (small_cfg W.Env.Baseline) in
  let r = W.Microbench.run env micro_cfg in
  let s = r.W.Microbench.snap in
  Alcotest.(check int) "allocs = pairs" 6_000 s.Slab.Slab_stats.allocs;
  Alcotest.(check int) "deferred = pairs" 6_000
    s.Slab.Slab_stats.deferred_frees;
  Alcotest.(check int) "hits + misses = allocs" 6_000
    (s.Slab.Slab_stats.hits + s.Slab.Slab_stats.misses)

let test_endurance_prudence_flat () =
  let env = W.Env.build (small_cfg W.Env.Prudence_alloc) in
  let r =
    W.Endurance.run env
      {
        W.Endurance.default_config with
        W.Endurance.duration_ns = Sim.Clock.ms 200;
        update_interval_ns = 20_000;
        list_len = 16;
      }
  in
  Alcotest.(check bool) "samples recorded" true (Array.length r.W.Endurance.series > 10);
  Alcotest.(check bool) "no oom" true (r.W.Endurance.oom_at_ns = None);
  Alcotest.(check bool) "updates happened" true (r.W.Endurance.updates > 1000);
  (* flat: the last sample is within 3x of the 25%-mark sample *)
  let series = r.W.Endurance.series in
  let q = Array.length series / 4 in
  let _, early = series.(q) and _, last = series.(Array.length series - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "equilibrium (%.2f vs %.2f MiB)" early last)
    true
    (last < 3. *. Float.max early 0.5)

let test_endurance_baseline_grows () =
  let cfg =
    {
      (small_cfg W.Env.Baseline) with
      W.Env.tick_ns = 1_000_000;
      rcu_config =
        {
          Rcu.default_config with
          Rcu.blimit = 5;
          expedited_blimit = 10;
          softirq_period_ns = 1_000_000;
          qhimark = max_int;
        };
    }
  in
  let env = W.Env.build cfg in
  let r =
    W.Endurance.run env
      {
        W.Endurance.default_config with
        W.Endurance.duration_ns = Sim.Clock.ms 500;
        update_interval_ns = 10_000;
        list_len = 16;
      }
  in
  let series = r.W.Endurance.series in
  let q = Array.length series / 4 in
  let _, early = series.(q) and _, last = series.(Array.length series - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "memory climbs (%.2f -> %.2f MiB)" early last)
    true
    (last > 1.5 *. early);
  Alcotest.(check bool) "backlog built up" true (r.W.Endurance.max_backlog > 1_000)

let app_test_cfg =
  W.Appmodel.
    {
      bench_name = "mini";
      caches =
        [
          { cache_name = "filp"; obj_size = 256 };
          { cache_name = "kmalloc-64"; obj_size = 64 };
        ];
      standing = [ ("filp", 4) ];
      txns =
        [|
          [
            Acquire "filp";
            Acquire "kmalloc-64";
            Work 500;
            Release_newest "kmalloc-64";
            Release_deferred "filp";
          ];
        |];
      next_txn = (fun _rng -> 0);
      txns_per_cpu = 1_000;
      think_ns_mean = 2_000.;
    }

let test_appmodel_runs () =
  let env = W.Env.build (small_cfg W.Env.Prudence_alloc) in
  let r = W.Appmodel.run env app_test_cfg in
  Alcotest.(check int) "all txns" 2_000 r.W.Appmodel.txns;
  Alcotest.(check bool) "no oom" false r.W.Appmodel.oom;
  Alcotest.(check int) "both caches reported" 2
    (List.length r.W.Appmodel.caches);
  (* one deferred (filp) and one regular (kmalloc) free per txn -> 50% *)
  Alcotest.(check bool)
    (Printf.sprintf "deferred pct ~50 (%.1f)" r.W.Appmodel.deferred_pct)
    true
    (r.W.Appmodel.deferred_pct > 45. && r.W.Appmodel.deferred_pct < 55.)

let test_appmodel_standing_objects_live () =
  let env = W.Env.build (small_cfg W.Env.Prudence_alloc) in
  let r = W.Appmodel.run env app_test_cfg in
  let filp =
    List.find
      (fun (c : W.Appmodel.cache_result) -> c.W.Appmodel.cache_name = "filp")
      r.W.Appmodel.caches
  in
  (* 4 standing objects per cpu x 2 cpus stay live: fragmentation is
     well-defined. *)
  Alcotest.(check bool) "fragmentation defined" false
    (Float.is_nan filp.W.Appmodel.fragmentation);
  Alcotest.(check bool) "fragmentation >= 1" true
    (filp.W.Appmodel.fragmentation >= 1.0)

let test_appmodel_unknown_cache_rejected () =
  let env = W.Env.build (small_cfg W.Env.Baseline) in
  let bad =
    { app_test_cfg with W.Appmodel.txns = [| [ W.Appmodel.Acquire "nope" ] |] }
  in
  (try
     ignore (W.Appmodel.run env bad);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* A release naming no cache would only ever meet an empty pool, so the
   run must reject it up front rather than skip it on every
   transaction; so must an unknown standing cache. Nothing runs first. *)
let test_appmodel_unknown_release_rejected () =
  let rejects what bad =
    let env = W.Env.build (small_cfg W.Env.Baseline) in
    (match W.Appmodel.run env bad with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument msg ->
        Alcotest.(check string) what "Appmodel: unknown cache nope" msg);
    Alcotest.(check int) (what ^ ": no event ran") 0
      (Sim.Engine.executed env.W.Env.eng)
  in
  rejects "release"
    { app_test_cfg with W.Appmodel.txns = [| [ W.Appmodel.Release "nope" ] |] };
  rejects "standing"
    { app_test_cfg with W.Appmodel.standing = [ ("nope", 1) ] }

(* The list interpreter [Appmodel.run] replaced, kept as its model: it
   looks every cache up by name on every op and keeps each pool as a
   plain list, oldest first. *)
module Model = struct
  type frag_meter = { mutable sum : float; mutable n : int }

  let run (env : W.Env.t) (cfg : W.Appmodel.config) : W.Appmodel.result =
    let backend = env.W.Env.backend in
    let caches =
      List.map
        (fun (spec : W.Appmodel.cache_spec) ->
          ( spec.W.Appmodel.cache_name,
            backend.Slab.Backend.create_cache ~name:spec.W.Appmodel.cache_name
              ~obj_size:spec.W.Appmodel.obj_size ))
        cfg.W.Appmodel.caches
    in
    let cache_by_name name =
      match List.assoc_opt name caches with
      | Some c -> c
      | None -> invalid_arg (Printf.sprintf "Appmodel: unknown cache %s" name)
    in
    let ncpus = Sim.Machine.nr_cpus env.W.Env.machine in
    let txns = ref 0 in
    let oom = ref false in
    let finish_times = ref [] in
    let frag_meters =
      List.map (fun (name, _) -> (name, { sum = 0.; n = 0 })) caches
    in
    Sim.Engine.every env.W.Env.eng ~period:1_000_000 (fun () ->
        List.iter
          (fun (name, cache) ->
            let f = Slab.Frame.fragmentation cache in
            if not (Float.is_nan f) then begin
              let m = List.assoc name frag_meters in
              m.sum <- m.sum +. f;
              m.n <- m.n + 1
            end)
          caches;
        true);
    for i = 0 to ncpus - 1 do
      let cpu = W.Env.cpu env i in
      let rng = Sim.Rng.split env.W.Env.rng in
      Sim.Process.spawn env.W.Env.eng (fun () ->
          let pools : (string, Slab.Frame.objekt list) Hashtbl.t =
            Hashtbl.create 8
          in
          let pool name = Option.value ~default:[] (Hashtbl.find_opt pools name) in
          let release name ~newest =
            match pool name with
            | [] -> None
            | objs when newest ->
                let rev = List.rev objs in
                Hashtbl.replace pools name (List.rev (List.tl rev));
                Some (List.hd rev)
            | obj :: rest ->
                Hashtbl.replace pools name rest;
                Some obj
          in
          (try
             List.iter
               (fun (name, count) ->
                 let cache = cache_by_name name in
                 for _ = 1 to count do
                   match backend.Slab.Backend.alloc cache cpu with
                   | Some _obj -> ()
                   | None ->
                       oom := true;
                       raise Exit
                 done)
               cfg.W.Appmodel.standing;
             for _ = 1 to cfg.W.Appmodel.txns_per_cpu do
               let ops = cfg.W.Appmodel.txns.(cfg.W.Appmodel.next_txn rng) in
               List.iter
                 (fun (op : W.Appmodel.op) ->
                   match op with
                   | Acquire name -> (
                       let cache = cache_by_name name in
                       match backend.Slab.Backend.alloc cache cpu with
                       | Some obj -> Hashtbl.replace pools name (pool name @ [ obj ])
                       | None ->
                           oom := true;
                           raise Exit)
                   | Release name -> (
                       match release name ~newest:false with
                       | Some obj ->
                           backend.Slab.Backend.free (cache_by_name name) cpu obj
                       | None -> ())
                   | Release_newest name -> (
                       match release name ~newest:true with
                       | Some obj ->
                           backend.Slab.Backend.free (cache_by_name name) cpu obj
                       | None -> ())
                   | Release_deferred name -> (
                       match release name ~newest:false with
                       | Some obj ->
                           backend.Slab.Backend.free_deferred (cache_by_name name)
                             cpu obj
                       | None -> ())
                   | Work ns -> Sim.Machine.consume cpu ns)
                 ops;
               incr txns;
               Sim.Process.sleep env.W.Env.eng (Sim.Machine.drain cpu);
               let think =
                 int_of_float
                   (Sim.Rng.exponential rng ~mean:cfg.W.Appmodel.think_ns_mean)
               in
               Sim.Machine.idle_sleep env.W.Env.machine cpu think
             done
           with Exit -> ());
          finish_times := Sim.Engine.now env.W.Env.eng :: !finish_times)
    done;
    Sim.Engine.run_until_quiet env.W.Env.eng;
    let duration = max 1 (List.fold_left max 0 !finish_times) in
    Sim.Process.spawn env.W.Env.eng (fun () -> backend.Slab.Backend.settle ());
    Sim.Engine.run_until_quiet env.W.Env.eng;
    let total_frees, total_deferred =
      List.fold_left
        (fun (f, d) (_, cache) ->
          let s = Slab.Slab_stats.snapshot cache.Slab.Frame.stats in
          (f + s.Slab.Slab_stats.frees, d + s.Slab.Slab_stats.deferred_frees))
        (0, 0) caches
    in
    {
      W.Appmodel.label = backend.Slab.Backend.label;
      bench_name = cfg.W.Appmodel.bench_name;
      txns = !txns;
      duration_ns = duration;
      throughput = float_of_int !txns /. (float_of_int duration /. 1e9);
      deferred_pct =
        (if total_frees + total_deferred = 0 then 0.
         else
           100.
           *. float_of_int total_deferred
           /. float_of_int (total_frees + total_deferred));
      caches =
        List.map
          (fun (name, cache) ->
            let contended, wait = W.Env.node_lock_stats cache in
            let meter = List.assoc name frag_meters in
            {
              W.Appmodel.cache_name = name;
              snap = Slab.Slab_stats.snapshot cache.Slab.Frame.stats;
              fragmentation =
                (if meter.n = 0 then Slab.Frame.fragmentation cache
                 else meter.sum /. float_of_int meter.n);
              lock_contended = contended;
              lock_wait_ns = wait;
            })
          caches;
      oom = !oom;
      safety_violations = List.length (W.Env.safety_violations env);
    }
end

(* Random shapes over two or three caches, every op kind, releases that
   may meet empty pools. *)
let gen_app_cfg =
  let open QCheck.Gen in
  let* ncaches = int_range 2 3 in
  let name c = Printf.sprintf "c%d" c in
  let op =
    let* kind = int_bound 4 and* c = int_bound (ncaches - 1) in
    let+ ns = int_bound 2_000 in
    match kind with
    | 0 -> W.Appmodel.Acquire (name c)
    | 1 -> W.Appmodel.Release (name c)
    | 2 -> W.Appmodel.Release_deferred (name c)
    | 3 -> W.Appmodel.Release_newest (name c)
    | _ -> W.Appmodel.Work ns
  in
  let* shapes = array_size (int_range 1 3) (list_size (int_range 1 12) op) in
  let+ standing = list_repeat ncaches (int_bound 3) in
  {
    W.Appmodel.bench_name = "random";
    caches =
      List.init ncaches (fun c ->
          { W.Appmodel.cache_name = name c; obj_size = 64 lsl (2 * c) });
    standing = List.mapi (fun c n -> (name c, n)) standing;
    txns = shapes;
    next_txn = (fun rng -> Sim.Rng.int rng (Array.length shapes));
    txns_per_cpu = 40;
    think_ns_mean = 1_000.;
  }

let print_app_cfg (cfg : W.Appmodel.config) =
  let op = function
    | W.Appmodel.Acquire c -> "Acquire " ^ c
    | Release c -> "Release " ^ c
    | Release_deferred c -> "Release_deferred " ^ c
    | Release_newest c -> "Release_newest " ^ c
    | Work ns -> Printf.sprintf "Work %d" ns
  in
  String.concat "\n"
    (List.map
       (fun (c, n) -> Printf.sprintf "standing %s %d" c n)
       cfg.W.Appmodel.standing
    @ Array.to_list
        (Array.map
           (fun ops -> "[" ^ String.concat "; " (List.map op ops) ^ "]")
           cfg.W.Appmodel.txns))

let prop_appmodel_matches_model =
  QCheck.Test.make ~name:"appmodel matches the list interpreter" ~count:25
    (QCheck.make ~print:print_app_cfg gen_app_cfg)
    (fun cfg ->
      List.for_all
        (fun kind ->
          let observe run =
            let env = W.Env.build (small_cfg kind) in
            let r : W.Appmodel.result = run env cfg in
            ( ( r.W.Appmodel.txns,
                r.W.Appmodel.duration_ns,
                r.W.Appmodel.deferred_pct,
                r.W.Appmodel.oom ),
              List.map
                (fun (c : W.Appmodel.cache_result) ->
                  (c.W.Appmodel.cache_name, c.W.Appmodel.snap))
                r.W.Appmodel.caches,
              Sim.Engine.executed env.W.Env.eng )
          in
          observe W.Appmodel.run = observe Model.run)
        [ W.Env.Baseline; W.Env.Prudence_alloc ])

(* With a backend whose alloc hands back one held object and whose frees
   do nothing, what is left is Appmodel's own cost per transaction (plus
   the engine's ticks): the ops themselves allocate nothing, and each
   transaction's two sleeps allocate a few words each. *)
let test_appmodel_allocation () =
  let env = W.Env.build (small_cfg W.Env.Baseline) in
  let real = env.W.Env.backend in
  let held = ref None in
  let stub =
    {
      real with
      Slab.Backend.alloc =
        (fun cache cpu ->
          (match !held with
          | None -> held := real.Slab.Backend.alloc cache cpu
          | Some _ -> ());
          !held);
      free = (fun _ _ _ -> ());
      free_deferred = (fun _ _ _ -> ());
    }
  in
  let env = { env with W.Env.backend = stub } in
  let cfg = W.Postgresql.config ~txns_per_cpu:5_000 () in
  let before = Gc.minor_words () in
  let r = W.Appmodel.run env cfg in
  let per_txn =
    (Gc.minor_words () -. before) /. float_of_int r.W.Appmodel.txns
  in
  Alcotest.(check int) "all txns" 10_000 r.W.Appmodel.txns;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per transaction <= 24" per_txn)
    true (per_txn <= 24.)

let paper_ratio name lo hi cfg =
  let env = W.Env.build { (small_cfg W.Env.Baseline) with W.Env.cpus = 2 } in
  let r = W.Appmodel.run env cfg in
  Alcotest.(check bool)
    (Printf.sprintf "%s deferred share %.1f%% in [%g, %g]" name
       r.W.Appmodel.deferred_pct lo hi)
    true
    (r.W.Appmodel.deferred_pct >= lo && r.W.Appmodel.deferred_pct <= hi)

let test_fig12_ratios () =
  (* Paper Fig. 12: Postmark 24.4%, Netperf 14%, Apache 18%, PostgreSQL
     4.4%. Allow a couple of points of modelling slack. *)
  paper_ratio "postmark" 19. 29. (W.Postmark.config ~txns_per_cpu:2_000 ());
  paper_ratio "netperf" 11. 17. (W.Netperf.config ~txns_per_cpu:2_000 ());
  paper_ratio "apache" 15. 22. (W.Apache.config ~txns_per_cpu:2_000 ());
  paper_ratio "postgresql" 2.5 7. (W.Postgresql.config ~txns_per_cpu:2_000 ())

let suite =
  [
    Alcotest.test_case "env build" `Quick test_env_build;
    Alcotest.test_case "kind parsing" `Quick test_kind_parsing;
    Alcotest.test_case "microbench completes (both)" `Quick
      test_microbench_completes_both;
    Alcotest.test_case "microbench deterministic" `Quick
      test_microbench_deterministic;
    Alcotest.test_case "microbench stats consistent" `Quick
      test_microbench_stats_consistent;
    Alcotest.test_case "endurance: prudence flat" `Slow
      test_endurance_prudence_flat;
    Alcotest.test_case "endurance: baseline grows" `Slow
      test_endurance_baseline_grows;
    Alcotest.test_case "appmodel runs" `Quick test_appmodel_runs;
    Alcotest.test_case "appmodel standing objects" `Quick
      test_appmodel_standing_objects_live;
    Alcotest.test_case "appmodel unknown cache" `Quick
      test_appmodel_unknown_cache_rejected;
    Alcotest.test_case "appmodel unknown release cache" `Quick
      test_appmodel_unknown_release_rejected;
    QCheck_alcotest.to_alcotest prop_appmodel_matches_model;
    Alcotest.test_case "appmodel allocation" `Quick test_appmodel_allocation;
    Alcotest.test_case "fig12 deferred shares" `Slow test_fig12_ratios;
  ]
