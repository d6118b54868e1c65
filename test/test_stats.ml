(* lib/stats: metric registry, snapshot providers, the virtual-time
   sampler, and the machine-readable bench document + regression gate.

   The cross-checking tests recount allocator state independently of the
   providers (straight from the Buddy/Frame structures and the lib/check
   auditors) so a provider bug cannot hide behind itself. *)

module Registry = Stats.Registry
module Providers = Stats.Providers
module Live = Stats.Live
module B = Stats.Bench_json
module J = Metrics.Json
module R = Metrics.Report
module W = Workloads

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("a", J.Int 42);
        ("b", J.Float 3.5);
        ("c", J.Str "he\"llo\n");
        ("d", J.List [ J.Bool true; J.Null; J.Int (-7) ]);
        ("nested", J.Obj [ ("x", J.Float 0.1 ) ]);
      ]
  in
  match J.of_string (J.to_string v) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok v' ->
      Alcotest.(check string) "compact round-trip" (J.to_string v)
        (J.to_string v');
      (match J.of_string (J.to_string_pretty v) with
      | Error e -> Alcotest.failf "pretty reparse failed: %s" e
      | Ok v'' ->
          Alcotest.(check string) "pretty round-trip" (J.to_string v)
            (J.to_string v''))

let test_json_errors () =
  let bad = [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok _ -> Alcotest.failf "parsed garbage %S" s
      | Error _ -> ())
    bad;
  (* Non-finite floats serialize as null rather than emitting invalid JSON. *)
  Alcotest.(check string) "nan is null" "null" (J.to_string (J.Float nan))

let test_json_accessors () =
  match J.of_string {|{"i":3,"f":2.5,"s":"x","l":[1]}|} with
  | Error e -> Alcotest.fail e
  | Ok j ->
      Alcotest.(check (option int)) "int" (Some 3)
        (Option.bind (J.member "i" j) J.to_int_opt);
      Alcotest.(check (option (float 0.0))) "int as float" (Some 3.)
        (Option.bind (J.member "i" j) J.to_float_opt);
      Alcotest.(check (option (float 0.0))) "float" (Some 2.5)
        (Option.bind (J.member "f" j) J.to_float_opt);
      Alcotest.(check (option string)) "string" (Some "x")
        (Option.bind (J.member "s" j) J.to_string_opt);
      Alcotest.(check (option int)) "missing" None
        (Option.bind (J.member "zzz" j) J.to_int_opt)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_basic () =
  let r = Registry.create () in
  let x = ref 0. in
  Registry.counter r ~name:"a.count" ~help:"first" (fun () -> !x);
  Registry.gauge r ~name:"b.gauge" ~unit_:"pages" (fun () -> 7.);
  Registry.derived r ~name:"c.derived" (fun () -> 0.5);
  Alcotest.(check int) "size" 3 (Registry.size r);
  Alcotest.(check (list string)) "registration order"
    [ "a.count"; "b.gauge"; "c.derived" ]
    (Registry.names r);
  x := 5.;
  (match Registry.find r "a.count" with
  | None -> Alcotest.fail "find"
  | Some m -> Alcotest.(check (float 0.0)) "live read" 5. (m.Registry.read ()));
  Alcotest.(check bool) "dup raises" true
    (try
       Registry.gauge r ~name:"a.count" (fun () -> 0.);
       false
     with Invalid_argument _ -> true);
  let t = Registry.table r in
  Alcotest.(check bool) "table has name" true (contains ~sub:"b.gauge" t);
  Alcotest.(check bool) "table has unit" true (contains ~sub:"pages" t)

let test_registry_attach () =
  let eng = Sim.Engine.create () in
  let s = Sim.Sampler.create eng ~period_ns:100 () in
  let r = Registry.create () in
  Registry.counter r ~name:"m.one" (fun () -> 1.);
  Registry.gauge r ~name:"m.two" (fun () -> 2.);
  let n =
    Registry.attach r ~filter:(fun m -> m.Registry.name = "m.two") s
  in
  Alcotest.(check int) "filtered attach" 1 n;
  Alcotest.(check (list string)) "source names" [ "m.two" ]
    (Sim.Sampler.source_names s)

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

let test_sampler_rings_and_export () =
  let eng = Sim.Engine.create () in
  let s = Sim.Sampler.create eng ~capacity:8 ~period_ns:10 () in
  let ticks = ref 0 in
  Sim.Sampler.add_source s ~name:"ticks" (fun () ->
      incr ticks;
      float_of_int !ticks);
  Alcotest.(check bool) "dup source raises" true
    (try
       Sim.Sampler.add_source s ~name:"ticks" (fun () -> 0.);
       false
     with Invalid_argument _ -> true);
  Sim.Sampler.start s;
  (* Keep the engine alive past the daemon sampler with a real event. *)
  Sim.Engine.schedule eng ~after:200 (fun () -> ());
  Sim.Engine.run_until_quiet eng;
  Alcotest.(check int) "ring bounded" 8 (Sim.Sampler.rows s);
  Alcotest.(check bool) "oldest rows dropped" true (Sim.Sampler.dropped s > 0);
  let csv = Sim.Sampler.to_csv s in
  Alcotest.(check bool) "csv header" true
    (contains ~sub:"time_ns,ticks" csv);
  Alcotest.(check int) "csv rows = header + ring"
    (1 + Sim.Sampler.rows s)
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)));
  (match Sim.Sampler.series s ~name:"ticks" with
  | None -> Alcotest.fail "series missing"
  | Some pts ->
      Alcotest.(check int) "series length" 8 (Array.length pts);
      let times = Array.map fst pts in
      Array.iteri
        (fun i t -> if i > 0 then Alcotest.(check bool) "monotonic" true (t > times.(i - 1)))
        times);
  let nd = Sim.Sampler.to_ndjson s in
  let first_line = List.hd (String.split_on_char '\n' nd) in
  (match J.of_string first_line with
  | Error e -> Alcotest.failf "ndjson line unparseable: %s" e
  | Ok j ->
      Alcotest.(check bool) "ndjson has t" true (J.member "t" j <> None);
      Alcotest.(check bool) "ndjson has source" true
        (J.member "ticks" j <> None))

let test_sampler_wraparound_keeps_newest () =
  (* Overfill the ring 4x: memory must stay bounded at [capacity] rows
     and the retained window must be exactly the newest sweeps, with the
     CSV and NDJSON exports agreeing row for row. The source returns the
     sweep ordinal, so expected values are computable: 32 sweeps into a
     ring of 8 leaves ordinals 25..32 at times 250..320. *)
  let capacity = 8 and period = 10 and sweeps = 32 in
  let eng = Sim.Engine.create () in
  let s = Sim.Sampler.create eng ~capacity ~period_ns:period () in
  let n = ref 0 in
  Sim.Sampler.add_source s ~name:"ordinal" (fun () ->
      incr n;
      float_of_int !n);
  Sim.Sampler.start s;
  (* One tick past the last sweep so the t = sweeps*period daemon event
     runs before the engine quiesces. *)
  Sim.Engine.schedule eng ~after:((period * sweeps) + 1) (fun () -> ());
  Sim.Engine.run_until_quiet eng;
  Alcotest.(check int) "all sweeps fired" sweeps !n;
  Alcotest.(check int) "rows capped at capacity" capacity
    (Sim.Sampler.rows s);
  Alcotest.(check int) "dropped = overflow" (sweeps - capacity)
    (Sim.Sampler.dropped s);
  let rows = Sim.Sampler.to_array s in
  Array.iteri
    (fun i (t, vs) ->
      let ordinal = sweeps - capacity + 1 + i in
      Alcotest.(check int) "newest-window time" (ordinal * period) t;
      Alcotest.(check (float 0.)) "newest-window value"
        (float_of_int ordinal) vs.(0))
    rows;
  (* Both exports carry exactly the retained window, oldest first. *)
  let csv_rows =
    match
      List.filter (fun l -> l <> "") (String.split_on_char '\n'
        (Sim.Sampler.to_csv s))
    with
    | _header :: rows -> rows
    | [] -> Alcotest.fail "empty csv"
  in
  Alcotest.(check int) "csv rows = ring" capacity (List.length csv_rows);
  Alcotest.(check string) "csv first row is oldest retained"
    (Printf.sprintf "%d,%d" ((sweeps - capacity + 1) * period)
       (sweeps - capacity + 1))
    (List.hd csv_rows);
  let nd_rows =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (Sim.Sampler.to_ndjson s))
  in
  Alcotest.(check int) "ndjson rows = ring" capacity (List.length nd_rows);
  List.iteri
    (fun i line ->
      match J.of_string line with
      | Error e -> Alcotest.failf "ndjson row %d unparseable: %s" i e
      | Ok j ->
          let ordinal = sweeps - capacity + 1 + i in
          Alcotest.(check (option int)) "ndjson time"
            (Some (ordinal * period))
            (Option.bind (J.member "t" j) J.to_int_opt);
          Alcotest.(check (option (float 0.))) "ndjson value"
            (Some (float_of_int ordinal))
            (Option.bind (J.member "ordinal" j) J.to_float_opt))
    nd_rows

(* ------------------------------------------------------------------ *)
(* Live runs: determinism and provider-vs-recount agreement            *)
(* ------------------------------------------------------------------ *)

let live_cfg kind =
  {
    Live.kind;
    seed = 11;
    cpus = 2;
    scale = 1.0;
    duration_ns = 30_000_000 (* 30 ms *);
    sample_every_ns = 1_000_000;
    capacity = 256;
    total_pages = 16_384;
  }

let test_live_deterministic () =
  let run () = Live.run (live_cfg W.Env.Prudence_alloc) in
  let a = run () and b = run () in
  Alcotest.(check string) "csv byte-identical"
    (Sim.Sampler.to_csv a.Live.sampler)
    (Sim.Sampler.to_csv b.Live.sampler);
  Alcotest.(check string) "ndjson byte-identical"
    (Sim.Sampler.to_ndjson a.Live.sampler)
    (Sim.Sampler.to_ndjson b.Live.sampler);
  Alcotest.(check string) "snapshot identical"
    (Providers.snapshot a.Live.env)
    (Providers.snapshot b.Live.env);
  Alcotest.(check int) "same updates" a.Live.updates b.Live.updates

let test_live_watch_fires () =
  let count = ref 0 in
  let r =
    Live.run
      ~on_watch:(fun ~time_ns:_ ~snapshot ->
        incr count;
        Alcotest.(check bool) "watch snapshot has rcu" true
          (contains ~sub:"rcu:" snapshot))
      ~watch_every_ns:10_000_000
      (live_cfg W.Env.Prudence_alloc)
  in
  Alcotest.(check bool) "watch fired" true (!count >= 2);
  Alcotest.(check bool) "workload ran" true (r.Live.updates > 0)

(* The providers must agree with independent recounts of the same
   structures — and with the lib/check auditors. *)
let check_env_agreement kind =
  let r = Live.run (live_cfg kind) in
  let env = r.Live.env in
  (* Buddy provider vs Buddy accessors. *)
  let bv = Providers.buddy_view ~pressure:env.W.Env.pressure env.W.Env.buddy in
  Alcotest.(check int) "buddy total" (Mem.Buddy.total_pages env.W.Env.buddy)
    bv.Providers.total_pages;
  Alcotest.(check int) "buddy used" (Mem.Buddy.used_pages env.W.Env.buddy)
    bv.Providers.used_pages;
  Alcotest.(check int) "buddy used+free = total"
    bv.Providers.total_pages
    (bv.Providers.used_pages + bv.Providers.free_pages);
  (* Free pages recounted from the per-order block counts. *)
  let free_from_orders =
    Array.to_list bv.Providers.free_blocks_per_order
    |> List.mapi (fun order blocks -> blocks * (1 lsl order))
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "buddyinfo columns recount free_pages"
    bv.Providers.free_pages free_from_orders;
  (* Slab provider vs a direct walk of the cache structures. *)
  let rows = Providers.slab_rows env.W.Env.backend in
  let live = ref 0 and slabs = ref 0 and latent = ref 0 in
  env.W.Env.backend.Slab.Backend.iter_caches (fun c ->
      live := !live + c.Slab.Frame.live_objs;
      slabs := !slabs + c.Slab.Frame.total_slabs;
      latent := !latent + c.Slab.Frame.latent_count);
  let sum f = List.fold_left (fun a row -> a + f row) 0 rows in
  Alcotest.(check int) "slab active recount" !live
    (sum (fun row -> row.Providers.active_objs));
  Alcotest.(check int) "slab slabs recount" !slabs
    (sum (fun row -> row.Providers.total_slabs));
  Alcotest.(check int) "slab latent recount" !latent
    (sum (fun row -> row.Providers.latent_objs));
  (* Latent views: per-cookie occupancy must sum to the outstanding
     count, which must match the frame counter. *)
  let views = Providers.latent_views ~smr:env.W.Env.smr env.W.Env.backend in
  List.iter
    (fun v ->
      let by_cookie =
        List.fold_left
          (fun a (c : Providers.cookie_row) ->
            a + c.Providers.in_latent_caches + c.Providers.in_latent_slabs)
          0 v.Providers.by_cookie
      in
      Alcotest.(check int)
        (v.Providers.l_cache_name ^ " cookies sum to outstanding")
        v.Providers.outstanding by_cookie)
    views;
  (match kind with
  | W.Env.Baseline ->
      Alcotest.(check int) "no latent views for slub" 0 (List.length views)
  | W.Env.Prudence_alloc | W.Env.Ebr_debra | W.Env.Hyaline_alloc ->
      Alcotest.(check bool) "latent view present" true (views <> []));
  (* Registry totals vs the same recounts. *)
  let reg = r.Live.registry in
  let read name =
    match Registry.find reg name with
    | Some m -> m.Registry.read ()
    | None -> Alcotest.failf "metric %s not registered" name
  in
  Alcotest.(check (float 0.0)) "registry active_objs" (float_of_int !live)
    (read "slab.active_objs");
  Alcotest.(check (float 0.0)) "registry used_pages"
    (float_of_int bv.Providers.used_pages)
    (read "buddy.used_pages");
  if kind = W.Env.Prudence_alloc then
    Alcotest.(check (float 0.0)) "registry latent_outstanding"
      (float_of_int !latent)
      (read "prudence.latent_outstanding");
  (* And the lib/check auditors agree the stack is sane. *)
  Alcotest.(check (list string)) "audit clean" [] (Check.Audit.env env)

let test_agreement_prudence () = check_env_agreement W.Env.Prudence_alloc
let test_agreement_slub () = check_env_agreement W.Env.Baseline

(* ------------------------------------------------------------------ *)
(* Bench document + regression gate                                    *)
(* ------------------------------------------------------------------ *)

let sample_doc =
  B.make
    ~config:{ B.seed = 42; scale = 0.05; cpus = 4; runs = 1 }
    ~metrics:
      [
        R.metric "m.info" 10.;
        R.metric ~direction:R.Lower_better "m.low" 100.;
        R.metric ~direction:R.Higher_better ~tolerance_pct:10. "m.high" 50.;
      ]

let test_bench_json_roundtrip () =
  match B.of_json (B.to_json sample_doc) with
  | Error e -> Alcotest.fail e
  | Ok d ->
      Alcotest.(check string) "json identical"
        (J.to_string (B.to_json sample_doc))
        (J.to_string (B.to_json d));
      let file = Filename.temp_file "bench" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          B.write_file file sample_doc;
          match B.load_file file with
          | Error e -> Alcotest.fail e
          | Ok d' ->
              Alcotest.(check string) "file round-trip"
                (J.to_string (B.to_json sample_doc))
                (J.to_string (B.to_json d')))

let test_bench_json_rejects () =
  (match B.load_file "/nonexistent/bench.json" with
  | Ok _ -> Alcotest.fail "loaded nonexistent file"
  | Error _ -> ());
  match B.of_json (J.Obj [ ("schema", J.Str "wrong/9") ]) with
  | Ok _ -> Alcotest.fail "accepted wrong schema"
  | Error e -> Alcotest.(check bool) "names schema" true (contains ~sub:"schema" e)

let with_metrics metrics = { sample_doc with B.metrics }

let drift_status drifts name =
  match List.find_opt (fun d -> d.B.name = name) drifts with
  | Some d -> d.B.status
  | None -> Alcotest.failf "no drift entry for %s" name

let test_compare_statuses () =
  let current =
    with_metrics
      [
        R.metric "m.info" 10.4 (* +4%: within default 5% *);
        R.metric ~direction:R.Lower_better "m.low" 120. (* +20%: regressed *);
        (* m.high missing from current *)
        R.metric ~direction:R.Higher_better "m.new" 1. (* added *);
      ]
  in
  let drifts = B.compare_runs ~baseline:sample_doc ~current () in
  Alcotest.(check string) "within" "within"
    (B.status_name (drift_status drifts "m.info"));
  Alcotest.(check string) "regressed" "regressed"
    (B.status_name (drift_status drifts "m.low"));
  Alcotest.(check string) "missing" "missing"
    (B.status_name (drift_status drifts "m.high"));
  Alcotest.(check string) "added" "added"
    (B.status_name (drift_status drifts "m.new"));
  Alcotest.(check int) "failures = regressed + missing" 2
    (List.length (B.failures drifts));
  (* Improvements never fail the gate. *)
  let improved =
    with_metrics
      [
        R.metric "m.info" 10.;
        R.metric ~direction:R.Lower_better "m.low" 50.;
        R.metric ~direction:R.Higher_better ~tolerance_pct:10. "m.high" 80.;
      ]
  in
  let drifts = B.compare_runs ~baseline:sample_doc ~current:improved () in
  Alcotest.(check int) "no failures on improvement" 0
    (List.length (B.failures drifts));
  Alcotest.(check string) "lower_better improved" "improved"
    (B.status_name (drift_status drifts "m.low"))

let test_compare_config_mismatch () =
  Alcotest.(check bool) "same config ok" true
    (B.config_mismatch ~baseline:sample_doc ~current:sample_doc = None);
  let other =
    { sample_doc with B.config = { sample_doc.B.config with B.cpus = 8 } }
  in
  match B.config_mismatch ~baseline:sample_doc ~current:other with
  | None -> Alcotest.fail "missed config mismatch"
  | Some msg -> Alcotest.(check bool) "message" true (contains ~sub:"cpus" msg)

let test_report_all_metrics_dup () =
  let mk id =
    R.make ~metrics:[ R.metric "dup.name" 1. ] ~id ~title:"t" ~paper_claim:"c"
      ~verdict:"v" "body"
  in
  Alcotest.(check bool) "duplicate names rejected" true
    (try
       ignore (R.all_metrics [ mk "a"; mk "b" ]);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "json: round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: rejects garbage" `Quick test_json_errors;
    Alcotest.test_case "json: accessors" `Quick test_json_accessors;
    Alcotest.test_case "registry: basics" `Quick test_registry_basic;
    Alcotest.test_case "registry: filtered attach" `Quick test_registry_attach;
    Alcotest.test_case "sampler: bounded ring + export" `Quick
      test_sampler_rings_and_export;
    Alcotest.test_case "sampler: wraparound keeps newest window" `Quick
      test_sampler_wraparound_keeps_newest;
    Alcotest.test_case "live: byte-identical reruns" `Slow
      test_live_deterministic;
    Alcotest.test_case "live: watch hook fires" `Slow test_live_watch_fires;
    Alcotest.test_case "providers agree with recounts (prudence)" `Slow
      test_agreement_prudence;
    Alcotest.test_case "providers agree with recounts (slub)" `Slow
      test_agreement_slub;
    Alcotest.test_case "bench json: round-trip" `Quick
      test_bench_json_roundtrip;
    Alcotest.test_case "bench json: rejects bad input" `Quick
      test_bench_json_rejects;
    Alcotest.test_case "gate: drift statuses" `Quick test_compare_statuses;
    Alcotest.test_case "gate: config mismatch" `Quick
      test_compare_config_mismatch;
    Alcotest.test_case "report: duplicate metric names" `Quick
      test_report_all_metrics_dup;
  ]
