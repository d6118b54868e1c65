module W = Workloads
module T = Metrics.Table
module Report = Metrics.Report

type params = {
  scale : float;
  seed : int;
  cpus : int;
  runs : int;
  trace : int option;
}

let default_params =
  { scale = 1.0; seed = 42; cpus = 8; runs = 1; trace = None }

type experiment = {
  id : string;
  title : string;
  paper_ref : string;
  run : params -> Report.t list;
}

let scaled params n = max 1 (int_of_float (float_of_int n *. params.scale))

let base_env_config params kind =
  {
    W.Env.default_config with
    W.Env.kind;
    cpus = params.cpus;
    seed = params.seed;
    trace = params.trace;
  }

(* ------------------------------------------------------------------ *)
(* Fig. 3: endurance / DoS — used memory over time, OOM on the baseline *)
(* ------------------------------------------------------------------ *)

(* Callback invocation is throttled per softirq pass as in §3.5's kernel
   ([W.Endurance.throttled_rcu]). The knee comes from the pressure
   notifier, not the backlog threshold. *)
let endurance_env params kind =
  {
    (base_env_config params kind) with
    W.Env.total_pages = 262_144 (* 1 GiB *);
    rcu_config = W.Endurance.throttled_rcu;
  }

let endurance_config params =
  {
    W.Endurance.default_config with
    W.Endurance.duration_ns = Sim.Clock.s (scaled params 12);
  }

let endurance_pair params =
  let run kind =
    let env = W.Env.build (endurance_env params kind) in
    W.Endurance.run env (endurance_config params)
  in
  (run W.Env.Baseline, run W.Env.Prudence_alloc)

let fmt_time_opt = function
  | None -> "never"
  | Some t -> Printf.sprintf "%.2fs" (float_of_int t /. 1e9)

let run_fig3 params =
  let slub, prud = endurance_pair params in
  let thin (r : W.Endurance.result) =
    Metrics.Ascii_chart.downsample r.W.Endurance.series ~max_points:68
  in
  let chart =
    Metrics.Ascii_chart.line
      ~series:
        [ ("slub (baseline)", thin slub); ("prudence", thin prud) ]
      ()
  in
  let row (r : W.Endurance.result) =
    [
      r.W.Endurance.label;
      T.fmt_i r.W.Endurance.updates;
      T.fmt_f r.W.Endurance.peak_used_mib;
      T.fmt_f r.W.Endurance.final_used_mib;
      fmt_time_opt r.W.Endurance.oom_at_ns;
      T.fmt_i r.W.Endurance.max_backlog;
      string_of_int r.W.Endurance.expedited_transitions;
      T.fmt_i r.W.Endurance.slab_churns;
    ]
  in
  let table =
    T.render
      ~header:
        [
          "allocator"; "updates"; "peak MiB"; "final MiB"; "OOM at";
          "max cb backlog"; "expedites"; "slab churns";
        ]
      [ row slub; row prud ]
  in
  (* Each allocator's clause comes from its own result. *)
  let pressure (r : W.Endurance.result) =
    Printf.sprintf "peak %.0f MiB, backlog %s cbs" r.W.Endurance.peak_used_mib
      (T.fmt_i r.W.Endurance.max_backlog)
  in
  let clause (r : W.Endurance.result) ~survived =
    match r.W.Endurance.oom_at_ns with
    | Some _ ->
        Printf.sprintf "%s: OOM at %s (%s)" r.W.Endurance.label
          (fmt_time_opt r.W.Endurance.oom_at_ns)
          (pressure r)
    | None -> Printf.sprintf "%s: no OOM, %s" r.W.Endurance.label survived
  in
  let verdict =
    clause slub ~survived:(pressure slub)
    ^ "; "
    ^ clause prud
        ~survived:
          (Printf.sprintf "flat at ~%.0f MiB after the initial grace periods"
             prud.W.Endurance.final_used_mib)
  in
  let metrics =
    let m = Report.metric in
    [
      m "fig3.slub.peak_used_mib" slub.W.Endurance.peak_used_mib;
      m "fig3.slub.max_backlog" (float_of_int slub.W.Endurance.max_backlog);
      m ~direction:Report.Higher_better "fig3.slub.updates"
        (float_of_int slub.W.Endurance.updates);
      m ~direction:Report.Lower_better "fig3.prudence.peak_used_mib"
        prud.W.Endurance.peak_used_mib;
      m ~direction:Report.Lower_better "fig3.prudence.final_used_mib"
        prud.W.Endurance.final_used_mib;
      m ~direction:Report.Higher_better "fig3.prudence.updates"
        (float_of_int prud.W.Endurance.updates);
      (* 1.0 = Prudence survived the whole run; any OOM is a regression. *)
      m ~direction:Report.Higher_better ~tolerance_pct:0.
        "fig3.prudence.survived"
        (match prud.W.Endurance.oom_at_ns with None -> 1. | Some _ -> 0.);
    ]
  in
  [
    Report.make ~metrics ~id:"fig3"
      ~title:
        "Impact of RCU on the allocator: total used memory under continuous \
         list updates (512 B objects, all CPUs)"
      ~paper_claim:
        "SLUB's used memory climbs (extended lifetimes), RCU expedites under \
         pressure (~70s) but cannot keep up, OOM at 196s; Prudence rises \
         briefly, then stays flat (equilibrium; also defeats the §3.4 DoS)"
      ~verdict
      (chart ^ "\n" ^ table);
  ]

(* ------------------------------------------------------------------ *)
(* §3.3: relative cost of hit / refill / grow paths                     *)
(* ------------------------------------------------------------------ *)

let run_costs params =
  let env = W.Env.build (base_env_config params W.Env.Baseline) in
  let backend = env.W.Env.backend in
  let cache =
    backend.Slab.Backend.create_cache ~name:"costs-probe" ~obj_size:512
  in
  let cpu = W.Env.cpu env 0 in
  let hit_cost = ref 0 and refill_cost = ref 0 and grow_cost = ref 0 in
  Sim.Process.spawn env.W.Env.eng (fun () ->
      (* Advance virtual time by each operation's cost, like a real
         workload, so lock hold times do not pile up at one instant. *)
      let measure () =
        ignore (Sim.Machine.drain cpu);
        match backend.Slab.Backend.alloc cache cpu with
        | obj ->
            let cost = Sim.Machine.drain cpu in
            Sim.Process.sleep env.W.Env.eng cost;
            (obj, cost)
        | exception Slab.Frame.Oom -> failwith "costs probe: unexpected OOM"
      in
      let pc = Slab.Frame.pcpu_for cache cpu in
      let stats () = Slab.Slab_stats.snapshot cache.Slab.Frame.stats in
      (* Warm up: allocate a few slabs' worth (touching every object) and
         free them all, so later measurements see warm memory — as a
         kernel in steady state does. *)
      let warm = List.init (3 * cache.Slab.Frame.ocache_cap) (fun _ -> fst (measure ())) in
      List.iter
        (fun o ->
          backend.Slab.Backend.free cache cpu o;
          ignore (Sim.Machine.drain cpu))
        warm;
      (* Hit: served straight from the object cache. *)
      let _o, h = measure () in
      hit_cost := h;
      (* Drain the object cache; the next allocation refills from partial
         slabs without growing. *)
      while pc.Slab.Frame.ocache_n > 0 do
        ignore (measure ())
      done;
      let grows_before = (stats ()).Slab.Slab_stats.grows in
      let _o, r = measure () in
      if (stats ()).Slab.Slab_stats.grows > grows_before then
        failwith "costs probe: refill measurement grew the cache";
      refill_cost := r;
      (* Exhaust the node so the next allocation must grow. *)
      let continue = ref true in
      while !continue do
        let before = (stats ()).Slab.Slab_stats.grows in
        let _o, c = measure () in
        if (stats ()).Slab.Slab_stats.grows > before then begin
          grow_cost := c;
          continue := false
        end
      done);
  Sim.Engine.run_until_quiet env.W.Env.eng;
  let hit_cost = !hit_cost
  and refill_cost = !refill_cost
  and grow_cost = !grow_cost in
  let ratio c = float_of_int c /. float_of_int hit_cost in
  let table =
    T.render
      ~header:[ "allocation path"; "virtual ns"; "x hit" ]
      [
        [ "object-cache hit"; string_of_int hit_cost; T.fmt_f 1.0 ];
        [ "object-cache refill"; string_of_int refill_cost; T.fmt_f (ratio refill_cost) ];
        [ "slab-cache grow"; string_of_int grow_cost; T.fmt_f (ratio grow_cost) ];
      ]
  in
  let verdict =
    Printf.sprintf "refill = %.1fx hit, grow = %.1fx hit (paper: 4x and 14x)"
      (ratio refill_cost) (ratio grow_cost)
  in
  let metrics =
    [
      Report.metric "costs.refill_x_hit" (ratio refill_cost);
      Report.metric "costs.grow_x_hit" (ratio grow_cost);
    ]
  in
  [
    Report.make ~metrics ~id:"costs"
      ~title:"Relative cost of allocation paths (drives the cost model)"
      ~paper_claim:
        "allocation is 4x a cache hit when it refills the object cache and \
         14x when it grows the slab cache (measured in §3.3)"
      ~verdict table;
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 6: microbenchmark across object sizes                           *)
(* ------------------------------------------------------------------ *)

let microbench_sizes = [ 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ]

let microbench_env params kind seed =
  {
    (base_env_config params kind) with
    W.Env.seed;
    total_pages = 1_048_576 (* 4 GiB: the baseline run leaks its whole backlog *);
    (* A faster tick (shorter grace periods) scales the experiment's time
       axis down so the loop spans many grace periods, as the paper's
       5M-pair runs did, at an affordable event count. *)
    tick_ns = 250_000;
    (* The tight loop floods RCU far beyond callback-processing capacity,
       even expedited — the regime of §3.5 (the paper's microbench consumed
       hundreds of GB of headroom). *)
    rcu_config =
      {
        Rcu.default_config with
        Rcu.softirq_period_ns = 250_000;
        blimit = 10;
        expedited_blimit = 30;
        qhimark = max_int;
      };
  }

let microbench_config params ~obj_size =
  { W.Microbench.obj_size; pairs_per_cpu = scaled params 60_000 }

let microbench_pair params ~obj_size =
  let run kind =
    let env = W.Env.build (microbench_env params kind params.seed) in
    W.Microbench.run env (microbench_config params ~obj_size)
  in
  (run W.Env.Baseline, run W.Env.Prudence_alloc)

let run_fig6 params =
  let rows, speedups =
    List.fold_left
      (fun (rows, speedups) obj_size ->
        let per_run kind seed =
          let env = W.Env.build (microbench_env params kind seed) in
          (W.Microbench.run env (microbench_config params ~obj_size))
            .W.Microbench.pairs_per_sec
        in
        let seeds = List.init (max 1 params.runs) (fun i -> params.seed + i) in
        let slub = Sim.Stat.summarize (List.map (per_run W.Env.Baseline) seeds) in
        let prud =
          Sim.Stat.summarize (List.map (per_run W.Env.Prudence_alloc) seeds)
        in
        let speedup = prud.Sim.Stat.mean /. slub.Sim.Stat.mean in
        let mops v = v /. 1e6 in
        ( rows
          @ [
              [
                string_of_int obj_size;
                Printf.sprintf "%.3f +/- %.3f" (mops slub.Sim.Stat.mean)
                  (mops slub.Sim.Stat.stdev);
                Printf.sprintf "%.3f +/- %.3f" (mops prud.Sim.Stat.mean)
                  (mops prud.Sim.Stat.stdev);
                Printf.sprintf "%.1fx" speedup;
              ];
            ],
          speedups @ [ (obj_size, speedup) ] ))
      ([], []) microbench_sizes
  in
  let table =
    T.render
      ~header:
        [ "object size"; "slub Mpairs/s"; "prudence Mpairs/s"; "speedup" ]
      rows
  in
  let min_s = List.fold_left (fun a (_, s) -> Float.min a s) infinity speedups in
  let max_size, max_s =
    List.fold_left
      (fun (bs, b) (sz, s) -> if s > b then (sz, s) else (bs, b))
      (0, 0.) speedups
  in
  let verdict =
    Printf.sprintf
      "prudence is %.1fx to %.1fx faster; the largest win is at %d bytes \
       (paper: 3.9x to 28.6x, peaking at 4096 bytes)"
      min_s max_s max_size
  in
  let metrics =
    (* Per-seed virtual-time runs are deterministic, but speedups compare
       two stacks whose schedules diverge, so allow generous drift. *)
    List.map
      (fun (sz, s) ->
        Report.metric ~direction:Report.Higher_better ~tolerance_pct:25.
          (Printf.sprintf "fig6.speedup.%db" sz)
          s)
      speedups
    @ [
        Report.metric ~direction:Report.Higher_better ~tolerance_pct:25.
          "fig6.speedup.min" min_s;
        Report.metric ~direction:Report.Higher_better ~tolerance_pct:25.
          "fig6.speedup.max" max_s;
      ]
  in
  [
    Report.make ~metrics ~id:"fig6"
      ~title:
        "kmalloc/kfree_deferred pairs per second, tight loop on all CPUs, \
         by object size"
      ~paper_claim:
        "Prudence executes 3.9x to 28.6x more pairs per second than SLUB; \
         the gap grows with object size (fewer cached objects and smaller \
         slabs mean more churn to avoid)"
      ~verdict table;
  ]

(* ------------------------------------------------------------------ *)
(* §5.3/5.4: application benchmarks -> Figs. 7-13                        *)
(* ------------------------------------------------------------------ *)

let app_env params kind =
  {
    (base_env_config params kind) with
    (* Shorter grace periods scale the time axis down so the fixed
       transaction budget spans many grace periods, as the paper's
       5-10 minute runs did. *)
    W.Env.tick_ns = 250_000;
    (* Under a CPU-saturated benchmark, ksoftirqd gets the CPU about once
       per tick and then works through a large batch: callback processing
       keeps up on average but arrives in bursts, well after the grace
       period — §3.1 bursty freeing + §3.2 extended object lifetimes. *)
    rcu_config =
      {
        Rcu.default_config with
        Rcu.softirq_period_ns = 250_000;
        blimit = 100;
        expedited_blimit = 400;
      };
  }

let app_configs params =
  [
    ("postmark", W.Postmark.config ~txns_per_cpu:(scaled params 8_000) ());
    ("netperf", W.Netperf.config ~txns_per_cpu:(scaled params 8_000) ());
    ("apache", W.Apache.config ~txns_per_cpu:(scaled params 8_000) ());
    ("postgresql", W.Postgresql.config ~txns_per_cpu:(scaled params 6_000) ());
  ]

let app_results params =
  List.map
    (fun (name, cfg) ->
      let run kind =
        let env = W.Env.build (app_env params kind) in
        W.Appmodel.run env cfg
      in
      (name, run W.Env.Baseline, run W.Env.Prudence_alloc))
    (app_configs params)

(* Pair up per-cache results of the two allocators, keeping only caches
   with meaningful traffic (the paper reports caches with > 1M operations
   per run; we scale that threshold with the workload). Each pair is
   labelled "<benchmark> <cache>". *)
let paired_caches params apps =
  let threshold = scaled params 3_000 * 2 in
  List.concat_map
    (fun (bench, (slub : W.Appmodel.result), (prud : W.Appmodel.result)) ->
      List.filter_map
        (fun (sc : W.Appmodel.cache_result) ->
          let traffic =
            sc.W.Appmodel.snap.Slab.Slab_stats.allocs
            + sc.W.Appmodel.snap.Slab.Slab_stats.deferred_frees
          in
          if traffic < threshold then None
          else
            List.find_opt
              (fun (pc : W.Appmodel.cache_result) ->
                pc.W.Appmodel.cache_name = sc.W.Appmodel.cache_name)
              prud.W.Appmodel.caches
            |> Option.map (fun pc ->
                   let label = bench ^ " " ^ sc.W.Appmodel.cache_name in
                   (label, sc, pc)))
        slub.W.Appmodel.caches)
    apps

(* Figs. 7-11 each compare one per-cache value between the allocators.
   A figure is a spec; [per_cache_report] builds its rows, table, verdict
   and metrics from the same numbers. *)
type per_cache = {
  fig : string;
  title : string;
  claim : string;
  quantity : string;  (** Verdict: "<quantity>: better for ...". *)
  unit_name : string;  (** Value columns: "slub <unit>", "prudence <unit>". *)
  value : W.Appmodel.cache_result -> float;
  show : float -> string;
  change : float -> float -> string;  (** slub -> prudence -> change cell. *)
  higher_better : bool;
}

type outcome = Better | Unchanged | Worse | No_data

(* Means of equal samples can differ in the last bits when the sample
   counts differ, so values within 1e-9 relative count as equal. *)
let classify ~higher_better slub prud =
  if Float.is_nan slub || Float.is_nan prud then No_data
  else if Float.abs (prud -. slub) <= 1e-9 *. Float.abs slub then Unchanged
  else if prud > slub = higher_better then Better
  else Worse

let per_cache_report pairs spec =
  let values =
    List.map
      (fun (label, sc, pc) -> (label, spec.value sc, spec.value pc))
      pairs
  in
  let table =
    T.render
      ~header:
        [ "benchmark cache"; "slub " ^ spec.unit_name;
          "prudence " ^ spec.unit_name; "change" ]
      (List.map
         (fun (label, s, p) ->
           [ label; spec.show s; spec.show p; spec.change s p ])
         values)
  in
  let count o =
    List.length
      (List.filter
         (fun (_, s, p) -> classify ~higher_better:spec.higher_better s p = o)
         values)
  in
  let better = count Better and worse = count Worse in
  let no_data = count No_data in
  (* A pair that turns worse, or one fewer better pair, fails [regress]. *)
  let gate direction name n =
    Report.metric ~direction ~tolerance_pct:0.
      (Printf.sprintf "%s.pairs_%s" spec.fig name)
      (float_of_int n)
  in
  Report.make
    ~metrics:
      [
        gate Report.Higher_better "better" better;
        gate Report.Lower_better "worse" worse;
      ]
    ~id:spec.fig ~title:spec.title ~paper_claim:spec.claim
    ~verdict:
      (Printf.sprintf
         "%s: better for %d of %d cache/benchmark pairs, unchanged for %d, \
          worse for %d%s"
         spec.quantity better (List.length values) (count Unchanged) worse
         (if no_data = 0 then ""
          else Printf.sprintf ", without data for %d" no_data))
    table

let pct_change s p = T.fmt_pct (if s = 0. then nan else 100. *. (p -. s) /. s)

let per_cache_figs =
  let module S = Slab.Slab_stats in
  let count f (c : W.Appmodel.cache_result) =
    float_of_int (f c.W.Appmodel.snap)
  in
  let show_count v = T.fmt_i (int_of_float v) in
  [
    {
      fig = "fig7";
      title = "Allocation requests served from the object cache (hit rate)";
      claim =
        "Prudence improves cache hits for every reported slab cache: \
         deferred objects merge into the object cache right after the grace \
         period instead of waiting for RCU's callback processing";
      quantity = "hit rate";
      unit_name = "hits";
      value = (fun c -> S.hit_rate c.W.Appmodel.snap);
      show = Printf.sprintf "%.1f%%";
      change = (fun s p -> Printf.sprintf "%+.1f pp" (p -. s));
      higher_better = true;
    };
    {
      fig = "fig8";
      title = "Object cache churns (refill/flush pairs)";
      claim =
        "Prudence cuts object-cache churns by 26-96%, except PostgreSQL \
         kmalloc-64 (+6%): its heavy non-deferred frees interfere with \
         Prudence's latent-cache decisions";
      quantity = "object-cache churns";
      unit_name = "churns";
      value = count S.ocache_churns;
      show = show_count;
      change = pct_change;
      higher_better = false;
    };
    {
      fig = "fig9";
      title = "Slab churns (grow/shrink pairs)";
      claim =
        "Prudence cuts slab churns by 21-98% (Netperf filp collapses from \
         364K to 6K); Postmark dentry improves least (-3.1%)";
      quantity = "slab churns";
      unit_name = "churns";
      value = count S.slab_churns;
      show = show_count;
      change = pct_change;
      higher_better = false;
    };
    {
      fig = "fig10";
      title = "Peak slab usage (maximum memory footprint)";
      claim =
        "Prudence reduces peak slab usage 2.5-30.6% for most caches \
         (deferred objects are reusable right after the grace period, \
         avoiding slab growth), +/-2% elsewhere, Apache kmalloc-64 +5%";
      quantity = "peak slabs";
      unit_name = "peak";
      value = count (fun s -> s.S.peak_slabs);
      show = show_count;
      change = pct_change;
      higher_better = false;
    };
    {
      fig = "fig11";
      title = "Total fragmentation after each run (allocated/requested bytes)";
      claim =
        "Prudence reduces fragmentation 7-33% for many caches (slab \
         selection considers deferred objects, Fig. 5), +/-2% elsewhere; \
         Netperf filp regresses 8.7% (only 10 partial slabs are scanned: \
         latency trade-off)";
      quantity = "fragmentation";
      unit_name = "f_t";
      value = (fun c -> c.W.Appmodel.fragmentation);
      show = (fun v -> T.fmt_f v);
      change = pct_change;
      higher_better = false;
    };
  ]

let report_fig12 apps =
  let rows =
    List.map
      (fun (bench, slub, prud) ->
        [
          bench;
          Printf.sprintf "%.1f%%" slub.W.Appmodel.deferred_pct;
          Printf.sprintf "%.1f%%" prud.W.Appmodel.deferred_pct;
        ])
      apps
  in
  let table =
    T.render ~header:[ "benchmark"; "slub"; "prudence" ] rows
  in
  Report.make
    ~metrics:
      (List.map
         (fun (b, _, p) ->
           Report.metric
             (Printf.sprintf "fig12.%s.deferred_pct" b)
             p.W.Appmodel.deferred_pct)
         apps)
    ~id:"fig12"
    ~title:"Deferred frees as a share of all free operations"
    ~paper_claim:
      "Postmark 24.4%, Apache 18%, Netperf 14%, PostgreSQL 4.4% — the \
       optimization opportunity per benchmark"
    ~verdict:
      (String.concat ", "
         (List.map
            (fun (b, _, p) ->
              Printf.sprintf "%s %.1f%%" b p.W.Appmodel.deferred_pct)
            apps))
    table

let report_fig13 apps =
  let rows =
    List.map
      (fun (bench, slub, prud) ->
        let imp =
          Sim.Stat.percent_change ~baseline:slub.W.Appmodel.throughput
            prud.W.Appmodel.throughput
        in
        [
          bench;
          T.fmt_f slub.W.Appmodel.throughput;
          T.fmt_f prud.W.Appmodel.throughput;
          T.fmt_pct imp;
        ])
      apps
  in
  let table =
    T.render
      ~header:[ "benchmark"; "slub txn/s"; "prudence txn/s"; "improvement" ]
      rows
  in
  Report.make
    ~metrics:
      (List.map
         (fun (b, s, p) ->
           (* Throughput deltas compare two divergent schedules; allow
              generous drift and fail only on a substantial collapse. *)
           Report.metric ~direction:Report.Higher_better ~tolerance_pct:30.
             (Printf.sprintf "fig13.%s.improvement_pct" b)
             (Sim.Stat.percent_change ~baseline:s.W.Appmodel.throughput
                p.W.Appmodel.throughput))
         apps)
    ~id:"fig13" ~title:"Overall benchmark throughput"
    ~paper_claim:
      "Prudence improves end-to-end throughput: Postmark +18% (highest \
       deferred share), Apache +5.6%, PostgreSQL +4.6%, Netperf +4.2%"
    ~verdict:
      (String.concat ", "
         (List.map
            (fun (b, s, p) ->
              Printf.sprintf "%s %s" b
                (T.fmt_pct
                   (Sim.Stat.percent_change
                      ~baseline:s.W.Appmodel.throughput
                      p.W.Appmodel.throughput)))
            apps))
    table

let run_apps params =
  let apps = app_results params in
  List.map (per_cache_report (paired_caches params apps)) per_cache_figs
  @ [ report_fig12 apps; report_fig13 apps ]

(* ------------------------------------------------------------------ *)
(* Extension: RCU tree updates (multi-object deferral, section 3.1)     *)
(* ------------------------------------------------------------------ *)

(* "Tree re-balancing results in multiple deferred objects" (3.1): every
   path-copying update defers O(depth) objects at once, multiplying the
   deferred-free pressure per operation. Each CPU churns its own
   RCU-protected BST; the per-update deferral burst is what distinguishes
   this from the Fig. 6 single-object microbenchmark. *)
let run_tree params =
  let run kind =
    let env = W.Env.build (app_env params kind) in
    let backend = env.W.Env.backend in
    let cache =
      backend.Slab.Backend.create_cache ~name:"tree_node" ~obj_size:64
    in
    let ncpus = Sim.Machine.nr_cpus env.W.Env.machine in
    let keyspace = 255 in
    let updates = ref 0 in
    let finish = ref 0 in
    for i = 0 to ncpus - 1 do
      Sim.Process.spawn env.W.Env.eng (fun () ->
          let cpu = W.Env.cpu env i in
          let rng = Sim.Rng.split env.W.Env.rng in
          let tree =
            Rcudata.Rcutree.create ~backend ~readers:env.W.Env.readers ~cache
              ~name:(Printf.sprintf "t%d" i)
          in
          for k = 1 to keyspace do
            ignore (Rcudata.Rcutree.insert tree cpu ~key:(k * 37 mod 256) ~value:k)
          done;
          for _ = 1 to scaled params 20_000 do
            let key = Sim.Rng.int rng 256 in
            (if Sim.Rng.bool rng then
               ignore (Rcudata.Rcutree.insert tree cpu ~key ~value:key)
             else ignore (Rcudata.Rcutree.delete tree cpu ~key));
            incr updates;
            Sim.Process.sleep env.W.Env.eng (500 + Sim.Machine.drain cpu)
          done;
          finish := max !finish (Sim.Engine.now env.W.Env.eng))
    done;
    Sim.Engine.run_until_quiet env.W.Env.eng;
    Sim.Process.spawn env.W.Env.eng (fun () -> backend.Slab.Backend.settle ());
    Sim.Engine.run_until_quiet env.W.Env.eng;
    let snap = Slab.Slab_stats.snapshot cache.Slab.Frame.stats in
    let rate = float_of_int !updates /. (float_of_int (max 1 !finish) /. 1e9) in
    (snap, rate, !updates)
  in
  let s_snap, s_rate, s_updates = run W.Env.Baseline in
  let p_snap, p_rate, p_updates = run W.Env.Prudence_alloc in
  let row label (snap : Slab.Slab_stats.snapshot) rate updates =
    [
      label;
      Printf.sprintf "%.2f" (rate /. 1e6);
      T.fmt_f
        (float_of_int snap.Slab.Slab_stats.deferred_frees
        /. float_of_int (max 1 updates));
      T.fmt_i (Slab.Slab_stats.ocache_churns snap);
      T.fmt_i snap.Slab.Slab_stats.peak_slabs;
    ]
  in
  let table =
    T.render
      ~header:
        [ "allocator"; "Mupdates/s"; "defers/update"; "ocache churns";
          "peak slabs" ]
      [ row "slub" s_snap s_rate s_updates; row "prudence" p_snap p_rate p_updates ]
  in
  [
    Report.make
      ~metrics:
        [
          Report.metric ~direction:Report.Higher_better ~tolerance_pct:25.
            "tree.speedup" (p_rate /. s_rate);
          Report.metric "tree.defers_per_update"
            (float_of_int p_snap.Slab.Slab_stats.deferred_frees
            /. float_of_int (max 1 p_updates));
        ]
      ~id:"tree"
      ~title:
        "Extension: RCU tree updates (path copying defers several objects \
         per operation)"
      ~paper_claim:
        "section 3.1: real update operations defer multiple objects at once \
         (tree re-balancing), amplifying bursty freeing; the paper's \
         microbenchmark defers one object per operation"
      ~verdict:
        (Printf.sprintf
           "prudence %.2fx faster at %.1f deferred objects per update"
           (p_rate /. s_rate)
           (float_of_int p_snap.Slab.Slab_stats.deferred_frees
           /. float_of_int (max 1 p_updates)))
      table;
  ]

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices called out in DESIGN.md              *)
(* ------------------------------------------------------------------ *)

let ablation_latent_cap params =
  let run latent_cap label =
    let cfg = { Prudence.default_config with Prudence.latent_cap } in
    let env =
      W.Env.build { (app_env params W.Env.Prudence_alloc) with
                    W.Env.prudence_config = cfg }
    in
    let r =
      W.Appmodel.run env (W.Apache.config ~txns_per_cpu:(scaled params 4_000) ())
    in
    let sum f = List.fold_left (fun a c -> a + f c) 0 r.W.Appmodel.caches in
    let hits =
      let h = sum (fun c -> c.W.Appmodel.snap.Slab.Slab_stats.hits) in
      let a = sum (fun c -> c.W.Appmodel.snap.Slab.Slab_stats.allocs) in
      100. *. float_of_int h /. float_of_int (max 1 a)
    in
    [
      label;
      Printf.sprintf "%.2f%%" hits;
      T.fmt_i (sum (fun c -> c.W.Appmodel.snap.Slab.Slab_stats.latent_overflows));
      T.fmt_i (sum (fun c -> c.W.Appmodel.snap.Slab.Slab_stats.premoves));
      T.fmt_f r.W.Appmodel.throughput;
    ]
  in
  let table =
    T.render
      ~header:
        [ "latent cache bound"; "hit rate"; "to latent slab"; "pre-moves";
          "txn/s" ]
      [
        run (Some 0) "0 (disabled)";
        run None "= object cache (paper)";
        run (Some 240) "4x object cache";
      ]
  in
  Report.make ~id:"ablation-latent-cap"
    ~title:"Ablation: latent cache bound (§4.1)"
    ~paper_claim:
      "the bound equals the object-cache size as a proactive measure \
       against overflow when safe objects merge"
    ~verdict:"see table: disabling the latent cache forces every deferred \
              object through the node lists"
    table

let ablation_scan_depth params =
  let run depth =
    let cfg = { Prudence.default_config with Prudence.scan_depth = depth } in
    let env =
      W.Env.build { (microbench_env params W.Env.Prudence_alloc params.seed) with
                    W.Env.prudence_config = cfg }
    in
    let r =
      W.Microbench.run env
        { W.Microbench.obj_size = 512; pairs_per_cpu = scaled params 30_000 }
    in
    [
      string_of_int depth;
      Printf.sprintf "%.2f" (r.W.Microbench.pairs_per_sec /. 1e6);
      T.fmt_i r.W.Microbench.snap.Slab.Slab_stats.peak_slabs;
      T.fmt_i r.W.Microbench.snap.Slab.Slab_stats.grows;
    ]
  in
  let table =
    T.render
      ~header:
        [ "latent slabs scanned"; "Mpairs/s"; "peak slabs"; "grows" ]
      [ run 1; run 10; run 100 ]
  in
  Report.make ~id:"ablation-scan-depth"
    ~title:"Ablation: slab-selection scan depth (§5.4 trade-off)"
    ~paper_claim:
      "Prudence scans only the first 10 partial slabs: deeper scans could \
       reduce fragmentation further but increase refill latency"
    ~verdict:"see table" table

let ablation_preflush params =
  let run preflush_enabled =
    let cfg = { Prudence.default_config with Prudence.preflush_enabled } in
    let env =
      W.Env.build { (app_env params W.Env.Prudence_alloc) with
                    W.Env.prudence_config = cfg }
    in
    let r =
      W.Appmodel.run env (W.Apache.config ~txns_per_cpu:(scaled params 4_000) ())
    in
    let sum f = List.fold_left (fun a c -> a + f c) 0 r.W.Appmodel.caches in
    [
      (if preflush_enabled then "enabled (paper)" else "disabled");
      T.fmt_i (sum (fun c -> c.W.Appmodel.snap.Slab.Slab_stats.preflushed_objs));
      T.fmt_i (sum (fun c -> c.W.Appmodel.snap.Slab.Slab_stats.flushes));
      T.fmt_i (sum (fun c -> c.W.Appmodel.lock_contended));
      T.fmt_f r.W.Appmodel.throughput;
    ]
  in
  let table =
    T.render
      ~header:
        [ "idle pre-flush"; "pre-flushed objs"; "workload flushes";
          "contended lock acq"; "txn/s" ]
      [ run true; run false ]
  in
  Report.make ~id:"ablation-preflush"
    ~title:"Ablation: idle-time latent-cache pre-flush (§4.2)"
    ~paper_claim:
      "pre-flushing during CPU idle time spreads node-lock traffic over \
       time instead of bursting it at grace-period completion"
    ~verdict:"see table" table

let ablation_blimit params =
  let run blimit expedited =
    let rcu_config =
      {
        W.Endurance.throttled_rcu with
        Rcu.blimit;
        expedited_blimit = expedited;
      }
    in
    let env_cfg =
      { (endurance_env params W.Env.Baseline) with W.Env.rcu_config } in
    let env = W.Env.build env_cfg in
    let r =
      W.Endurance.run env
        {
          (endurance_config params) with
          W.Endurance.duration_ns = Sim.Clock.s (scaled params 8);
        }
    in
    [
      Printf.sprintf "%d/%d" blimit expedited;
      fmt_time_opt r.W.Endurance.oom_at_ns;
      T.fmt_f r.W.Endurance.peak_used_mib;
      T.fmt_i r.W.Endurance.max_backlog;
    ]
  in
  let table =
    T.render
      ~header:
        [ "blimit normal/expedited"; "OOM at"; "peak MiB"; "max backlog" ]
      [ run 10 30; run 30 90; run 100 1000 ]
  in
  Report.make ~id:"ablation-blimit"
    ~title:"Ablation: RCU callback throttling vs baseline survival (§3)"
    ~paper_claim:
      "throttling protects latency but delays reclamation; the lower the \
       invocation budget, the sooner the baseline exhausts memory"
    ~verdict:"see table" table

let run_ablations params =
  [
    ablation_latent_cap params;
    ablation_scan_depth params;
    ablation_preflush params;
    ablation_blimit params;
  ]

(* ------------------------------------------------------------------ *)
(* Traced runs: the same workloads with the tracer and recorder armed  *)
(* ------------------------------------------------------------------ *)

let traceable = [ "fig3"; "fig6" ]

let run_traced params id =
  (* Force tracing on (the whole point of the call), keeping any
     caller-chosen ring capacity. *)
  let params =
    { params with trace = Some (Option.value params.trace ~default:65_536) }
  in
  let pair build run_workload =
    List.map
      (fun kind ->
        let env = W.Env.build { (build kind) with W.Env.obs = true } in
        run_workload env;
        env)
      [ W.Env.Baseline; W.Env.Prudence_alloc ]
  in
  match id with
  | "fig3" ->
      Some
        (pair (endurance_env params) (fun env ->
             ignore (W.Endurance.run env (endurance_config params))))
  | "fig6" ->
      Some
        (pair
           (fun kind -> microbench_env params kind params.seed)
           (fun env ->
             ignore
               (W.Microbench.run env (microbench_config params ~obj_size:512))))
  | _ -> None

(* ------------------------------------------------------------------ *)

let all =
  [
    {
      id = "fig3";
      title = "Endurance: used memory over time, baseline OOM vs equilibrium";
      paper_ref = "Fig. 3, §3.5, §5.5";
      run = run_fig3;
    };
    {
      id = "costs";
      title = "Relative allocation-path costs";
      paper_ref = "§3.3";
      run = run_costs;
    };
    {
      id = "fig6";
      title = "Microbenchmark: alloc/defer-free pairs per second by size";
      paper_ref = "Fig. 6, §5.2";
      run = run_fig6;
    };
    {
      id = "apps";
      title = "Application benchmarks (emits Figs. 7-13)";
      paper_ref = "Figs. 7-13, §5.3-5.4";
      run = run_apps;
    };
    {
      id = "tree";
      title = "RCU tree updates: multi-object deferral";
      paper_ref = "section 3.1 (extension)";
      run = run_tree;
    };
    {
      id = "ablations";
      title = "Design-choice ablations";
      paper_ref = "DESIGN.md";
      run = run_ablations;
    };
  ]

let find id =
  (* figN aliases resolve to the apps experiment *)
  let id =
    match id with
    | "fig7" | "fig8" | "fig9" | "fig10" | "fig11" | "fig12" | "fig13" -> "apps"
    | id -> id
  in
  List.find_opt (fun e -> e.id = id) all
