(* The trace library: bounded rings, HDR histograms, the tracer as a tap
   subscriber, Chrome export well-formedness, and a traced mini-run whose
   grace periods must pair up in virtual-time order. *)

(* ---------------- ring buffer ---------------- *)

let test_ring_basic () =
  let r = Trace.Ring.create ~capacity:4 in
  Alcotest.(check int) "empty" 0 (Trace.Ring.length r);
  List.iter (fun i -> Trace.Ring.push r i) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (Trace.Ring.to_list r);
  Alcotest.(check int) "no drops" 0 (Trace.Ring.dropped r)

let test_ring_overflow_drops_oldest () =
  let r = Trace.Ring.create ~capacity:4 in
  List.iter (fun i -> Trace.Ring.push r i) [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check int) "full" 4 (Trace.Ring.length r);
  Alcotest.(check (list int)) "oldest gone" [ 3; 4; 5; 6 ]
    (Trace.Ring.to_list r);
  Alcotest.(check int) "two dropped" 2 (Trace.Ring.dropped r);
  Trace.Ring.clear r;
  Alcotest.(check int) "cleared" 0 (Trace.Ring.length r);
  Trace.Ring.push r 7;
  Alcotest.(check (list int)) "reusable after clear" [ 7 ]
    (Trace.Ring.to_list r)

let test_ring_ordering_preserved () =
  let r = Trace.Ring.create ~capacity:16 in
  for i = 1 to 1000 do
    Trace.Ring.push r i
  done;
  Alcotest.(check (list int)) "last 16 in push order"
    (List.init 16 (fun i -> 985 + i))
    (Trace.Ring.to_list r);
  Alcotest.(check int) "dropped the rest" 984 (Trace.Ring.dropped r)

let test_ring_invalid_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Trace.Ring.create ~capacity:0))

(* ---------------- histogram ---------------- *)

let test_hist_exact_below_32 () =
  let h = Trace.Hist.create () in
  List.iter (Trace.Hist.record h) [ 0; 1; 5; 31 ];
  Alcotest.(check int) "count" 4 (Trace.Hist.count h);
  Alcotest.(check int) "min" 0 (Trace.Hist.min_value h);
  Alcotest.(check int) "max" 31 (Trace.Hist.max_value h);
  Alcotest.(check int) "p100 exact" 31 (Trace.Hist.percentile h 100.);
  Alcotest.(check int) "p25 exact" 0 (Trace.Hist.percentile h 25.)

let test_hist_empty () =
  let h = Trace.Hist.create () in
  Alcotest.(check int) "p50 of empty" 0 (Trace.Hist.percentile h 50.);
  Alcotest.(check int) "count" 0 (Trace.Hist.count h)

(* The _opt variants make "no samples" unambiguous: plain [percentile]
   returns 0 on an empty histogram, indistinguishable from a real 0. *)
let test_hist_opt_queries () =
  let h = Trace.Hist.create () in
  Alcotest.(check (option int)) "p50 of empty" None
    (Trace.Hist.percentile_opt h 50.);
  Alcotest.(check (option int)) "p99.9 of empty" None
    (Trace.Hist.percentile_opt h 99.9);
  Alcotest.(check (option (float 0.0))) "mean of empty" None
    (Trace.Hist.mean_opt h);
  (* A single sample lands in one bucket: every percentile answers. *)
  Trace.Hist.record h 17;
  Alcotest.(check (option int)) "p0 single" (Some 17)
    (Trace.Hist.percentile_opt h 0.);
  Alcotest.(check (option int)) "p50 single" (Some 17)
    (Trace.Hist.percentile_opt h 50.);
  Alcotest.(check (option int)) "p100 single" (Some 17)
    (Trace.Hist.percentile_opt h 100.);
  Alcotest.(check (option (float 0.0))) "mean single" (Some 17.)
    (Trace.Hist.mean_opt h);
  (* Agreement with the non-optional query when samples exist. *)
  Alcotest.(check (option int)) "matches percentile"
    (Some (Trace.Hist.percentile h 50.))
    (Trace.Hist.percentile_opt h 50.)

(* One sample: every percentile must round-trip to within the bucket's
   1/16 relative width. *)
let prop_hist_roundtrip =
  QCheck.Test.make ~name:"hist percentile round-trips within 1/16"
    ~count:500
    QCheck.(int_bound 1_000_000_000)
    (fun v ->
      let h = Trace.Hist.create () in
      Trace.Hist.record h v;
      let r = Trace.Hist.percentile h 50. in
      r <= v && v - r <= (v / 16) + 1)

let prop_hist_percentile_monotonic =
  QCheck.Test.make ~name:"hist percentiles are monotonic in p" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 10_000_000))
    (fun vs ->
      let h = Trace.Hist.create () in
      List.iter (Trace.Hist.record h) vs;
      let ps = [ 1.; 10.; 25.; 50.; 75.; 90.; 99.; 100. ] in
      let rs = List.map (Trace.Hist.percentile h) ps in
      (* pairwise non-decreasing *)
      fst
        (List.fold_left
           (fun (ok, prev) r -> (ok && r >= prev, r))
           (true, List.hd rs) (List.tl rs)))

let prop_hist_mean_bounded =
  QCheck.Test.make ~name:"hist mean lies within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (int_bound 1_000_000))
    (fun vs ->
      let h = Trace.Hist.create () in
      List.iter (Trace.Hist.record h) vs;
      let m = Trace.Hist.mean h in
      float_of_int (Trace.Hist.min_value h) <= m
      && m <= float_of_int (Trace.Hist.max_value h))

(* Reverse iteration and the bounded newest-n window against the list
   model, wraparound included: the ring keeps the last [cap] pushes,
   [iter_rev] visits them newest-first, and [recent n] returns the
   newest [n] in oldest-first order (clamping n to [0, length]). *)
let prop_ring_rev_recent_model =
  QCheck.Test.make ~name:"ring iter_rev/recent match the list model"
    ~count:500
    QCheck.(pair (int_range 1 8) (small_list small_nat))
    (fun (cap, xs) ->
      let r = Trace.Ring.create ~capacity:cap in
      List.iter (Trace.Ring.push r) xs;
      let total = List.length xs in
      let kept = List.filteri (fun i _ -> i >= total - cap) xs in
      let rebuilt = ref [] in
      Trace.Ring.iter_rev r (fun x -> rebuilt := x :: !rebuilt);
      !rebuilt = kept
      && List.for_all
           (fun n ->
             let keep = min (max n 0) (List.length kept) in
             Trace.Ring.recent r n
             = List.filteri (fun i _ -> i >= List.length kept - keep) kept)
           [ -1; 0; 1; (cap / 2) + 1; cap; cap + 3 ])

(* ---------------- the tracer on a tap ---------------- *)

(* A tracer on a bare tap with a hand-set clock. *)
let tapped ?(ring_capacity = 8) ncpus =
  let tap = Trace.Tap.create () and clock = ref 0 in
  let tr = Trace.create ~ring_capacity ~ncpus ~now:(fun () -> !clock) tap in
  let emit time kind ~cpu ?(label = "") a b =
    clock := time;
    Trace.Tap.emit tap kind ~cpu ~label a b
  in
  (tr, emit)

let test_emit_merge_order () =
  let tr, emit = tapped 2 in
  emit 30 Alloc_hit ~cpu:1 0 0;
  emit 10 Alloc_miss ~cpu:0 0 0;
  emit 20 Gp_start ~cpu:(-1) 7 0;
  let times = List.map (fun (e : Trace.Event.t) -> e.Trace.Event.time)
      (Trace.events tr) in
  Alcotest.(check (list int)) "merged by time" [ 10; 20; 30 ] times;
  Alcotest.(check int) "total" 3 (Trace.total_events tr)

(* Only timeline kinds reach the rings, with payload [a] (the token for
   a deferred free); the histograms read Gp_end's latency, the
   contended wait and the allocation cost. *)
let test_rings_and_histograms () =
  let tr, emit = tapped 1 in
  emit 1 Alloc ~cpu:0 ~label:"c" 5 0;
  emit 2 Defer ~cpu:0 ~label:"c" 5 9;
  emit 3 Alloc_cost ~cpu:0 ~label:"c" 40 0;
  emit 4 Lock_contended ~cpu:0 ~label:"c/node0" 60 0;
  emit 5 Gp_end ~cpu:(-1) 2 1_000;
  Alcotest.(check (list (pair string int)))
    "timeline events with their arg"
    [ ("defer-free", 9); ("lock-contended", 60); ("gp-end", 2) ]
    (List.map
       (fun (e : Trace.Event.t) ->
         (Trace.Event.kind_name e.Trace.Event.kind, e.Trace.Event.arg))
       (Trace.events tr));
  let one h = (Trace.Hist.count h, Trace.Hist.sum h) in
  Alcotest.(check (pair int int)) "gp latency" (1, 1_000)
    (one (Trace.gp_latency tr));
  Alcotest.(check (pair int int)) "lock wait" (1, 60)
    (one (Trace.lock_wait tr));
  Alcotest.(check (pair int int)) "alloc cost" (1, 40)
    (one (Trace.alloc_cost tr));
  let null = Trace.null in
  Alcotest.(check (pair int int)) "the null tracer subscribes to nothing"
    (0, 0)
    (Trace.total_events null, Trace.Hist.count (Trace.gp_latency null))

(* The coverage feature ids number the timeline kinds 0..23. *)
let test_kind_index () =
  Alcotest.(check int) "defer keeps defer-free's index" 6
    (Trace.Event.kind_index Defer);
  Alcotest.(check int) "last timeline kind" (Trace.Event.kind_count - 1)
    (Trace.Event.kind_index Emergency_flush);
  Alcotest.(check int) "lifecycle kinds have none" (-1)
    (Trace.Event.kind_index Alloc_cost)

(* ---------------- traced mini-run ---------------- *)

let tiny =
  {
    Core.Experiments.default_params with
    Core.Experiments.scale = 0.03;
    cpus = 2;
  }

let traced_runs = lazy (
  match Core.Experiments.run_traced tiny "fig6" with
  | Some runs -> runs
  | None -> Alcotest.fail "fig6 not traceable")

(* Grace periods are strictly sequential: starts and ends must alternate,
   every end matches the latest start's cookie, and virtual time never
   goes backwards across the pairs. *)
let label (env : Workloads.Env.t) =
  Workloads.Env.kind_label env.Workloads.Env.cfg.Workloads.Env.kind

let test_gp_pairs_nest () =
  List.iter
    (fun env ->
      let label = label env and tr = env.Workloads.Env.tracer in
      let gps =
        List.filter
          (fun (e : Trace.Event.t) ->
            e.Trace.Event.kind = Trace.Event.Gp_start
            || e.Trace.Event.kind = Trace.Event.Gp_end)
          (Trace.events tr)
      in
      Alcotest.(check bool) (label ^ " saw grace periods") true
        (List.length gps > 2);
      let open_gp = ref None in
      let last_time = ref 0 in
      List.iter
        (fun (e : Trace.Event.t) ->
          Alcotest.(check bool)
            (label ^ " time monotone") true
            (e.Trace.Event.time >= !last_time);
          last_time := e.Trace.Event.time;
          match (e.Trace.Event.kind, !open_gp) with
          | Trace.Event.Gp_start, None ->
              open_gp := Some e.Trace.Event.arg
          | Trace.Event.Gp_start, Some _ ->
              Alcotest.failf "%s: nested Gp_start at %d" label
                e.Trace.Event.time
          | Trace.Event.Gp_end, Some seq ->
              Alcotest.(check int) (label ^ " end matches start") seq
                e.Trace.Event.arg;
              open_gp := None
          | Trace.Event.Gp_end, None ->
              Alcotest.failf "%s: Gp_end without start at %d" label
                e.Trace.Event.time
          | _ -> ())
        gps)
    (Lazy.force traced_runs)

(* The defer->reuse lifetimes come from the anatomy recorder the traced
   runs arm. *)
let test_traced_lifetimes () =
  let runs = Lazy.force traced_runs in
  let hist l =
    Obs.Anatomy.total_hist
      (Workloads.Env.anatomy (List.find (fun env -> label env = l) runs))
  in
  Alcotest.(check bool) "prudence reuses deferred objects" true
    (Trace.Hist.count (hist "prudence") > 0);
  (* The headline acceptance shape: deferred objects wait longer under
     the baseline than under Prudence. *)
  if Trace.Hist.count (hist "slub") > 0 then
    Alcotest.(check bool) "slub lifetimes exceed prudence's" true
      (Trace.Hist.percentile (hist "slub") 50.
      >= Trace.Hist.percentile (hist "prudence") 50.)

let test_tracing_is_pure_observation () =
  (* Same experiment, tracing on vs off: virtual results must be bit-
     identical (tracing charges no virtual time). *)
  let run trace =
    let p = { tiny with Core.Experiments.trace } in
    let slub, prud = Core.Experiments.microbench_pair p ~obj_size:512 in
    ( slub.Workloads.Microbench.pairs_per_sec,
      prud.Workloads.Microbench.pairs_per_sec )
  in
  let off = run None and on_ = run (Some 1024) in
  Alcotest.(check (pair (float 0.) (float 0.))) "identical results" off on_

(* ---------------- Chrome export ---------------- *)

(* No JSON parser in the tree: check structure by hand — balanced
   braces/brackets outside strings, expected top-level keys, and the
   pair-slice phase present. *)
let json_balanced s =
  let depth = ref 0 and in_str = ref false and escaped = ref false in
  String.iter
    (fun c ->
      if !in_str then
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_str := false
        else ()
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' -> decr depth
        | _ -> ())
    s;
  (not !in_str) && !depth = 0

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_chrome_export () =
  let json =
    Trace.Chrome.to_string
      (List.map
         (fun env -> (label env, env.Workloads.Env.tracer))
         (Lazy.force traced_runs))
  in
  Alcotest.(check bool) "balanced" true (json_balanced json);
  Alcotest.(check bool) "traceEvents" true (contains ~sub:"\"traceEvents\"" json);
  Alcotest.(check bool) "metadata" true (contains ~sub:"process_name" json);
  Alcotest.(check bool) "gp slices" true (contains ~sub:"grace-period" json);
  Alcotest.(check bool) "instants" true (contains ~sub:"\"ph\":\"i\"" json)

let test_chrome_escape () =
  let tr, emit = tapped 1 in
  emit 1 Alloc_hit ~cpu:0 ~label:"we\"ird\\cache\n" 0 0;
  let json = Trace.Chrome.to_string [ ("r", tr) ] in
  Alcotest.(check bool) "escaped label balanced" true (json_balanced json)

let test_histview_render () =
  let h = Trace.Hist.create () in
  List.iter (Trace.Hist.record h) [ 100; 200; 200; 5_000; 1_000_000 ];
  let s = Metrics.Histview.render ~title:"t" h in
  Alcotest.(check bool) "has summary" true (contains ~sub:"5 samples" s);
  Alcotest.(check bool) "has bars" true (contains ~sub:"|#" s);
  Alcotest.(check string) "empty hist" "e: (no samples)\n"
    (Metrics.Histview.render ~title:"e" (Trace.Hist.create ()));
  (* One bucket: the percentile lines must render without arithmetic on
     absent neighbours. *)
  let one = Trace.Hist.create () in
  Trace.Hist.record one 42;
  let s1 = Metrics.Histview.render ~title:"one" one in
  Alcotest.(check bool) "single bucket summary" true
    (contains ~sub:"1 samples" s1);
  Alcotest.(check bool) "single bucket p50" true (contains ~sub:"p50" s1)

let suite =
  [
    Alcotest.test_case "ring: basic push/iter" `Quick test_ring_basic;
    Alcotest.test_case "ring: overflow drops oldest" `Quick
      test_ring_overflow_drops_oldest;
    Alcotest.test_case "ring: ordering preserved under churn" `Quick
      test_ring_ordering_preserved;
    Alcotest.test_case "ring: rejects capacity <= 0" `Quick
      test_ring_invalid_capacity;
    Alcotest.test_case "hist: exact below 32" `Quick test_hist_exact_below_32;
    Alcotest.test_case "hist: empty" `Quick test_hist_empty;
    Alcotest.test_case "hist: _opt on empty and single bucket" `Quick
      test_hist_opt_queries;
    QCheck_alcotest.to_alcotest prop_ring_rev_recent_model;
    QCheck_alcotest.to_alcotest prop_hist_roundtrip;
    QCheck_alcotest.to_alcotest prop_hist_percentile_monotonic;
    QCheck_alcotest.to_alcotest prop_hist_mean_bounded;
    Alcotest.test_case "emit: events merge in time order" `Quick
      test_emit_merge_order;
    Alcotest.test_case "tracer: timeline kinds to rings, samples to hists"
      `Quick test_rings_and_histograms;
    Alcotest.test_case "event: timeline kinds keep their index" `Quick
      test_kind_index;
    Alcotest.test_case "traced run: GP start/end pairs nest" `Slow
      test_gp_pairs_nest;
    Alcotest.test_case "traced run: recorder lifetimes populated" `Slow
      test_traced_lifetimes;
    Alcotest.test_case "tracing is pure observation" `Slow
      test_tracing_is_pure_observation;
    Alcotest.test_case "chrome: export is well-formed" `Slow test_chrome_export;
    Alcotest.test_case "chrome: labels escaped" `Quick test_chrome_escape;
    Alcotest.test_case "histview: renders summary and bars" `Quick
      test_histview_render;
  ]
