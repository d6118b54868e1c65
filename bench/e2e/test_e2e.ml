(* The benchmark at test size: every workload emits every metric named
   in BENCHMARK.json with its unit, the traced run's rows are
   non-negative with a remainder no larger than the probes cost, and
   the outside spans change no deterministic counter. *)

open E2e

let json =
  lazy
    (let ic = open_in_bin "../../BENCHMARK.json" in
     let s = really_input_string ic (in_channel_length ic) in
     close_in ic;
     match Metrics.Json.of_string s with
     | Ok j -> j
     | Error e -> Alcotest.failf "BENCHMARK.json: %s" e)

let listed key =
  match Metrics.Json.member key (Lazy.force json) with
  | Some (Metrics.Json.List l) -> l
  | _ -> Alcotest.failf "BENCHMARK.json: no %s list" key

let str k j =
  Option.get (Option.bind (Metrics.Json.member k j) Metrics.Json.to_string_opt)

let better_label = function Summary.Higher -> "higher" | Summary.Lower -> "lower"

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* How much one repetition runs, as each workload's [why] states it. *)
let full_size w =
  match w with
  | Scenario.Pgbench ->
      Printf.sprintf "%dk txns per CPU" (Scenario.txns_per_cpu Scenario.Full / 1000)
  | _ ->
      Printf.sprintf "%g s virtual"
        (Sim.Clock.to_s (Scenario.duration_ns w Scenario.Full))

let test_catalogue () =
  let names = List.map (fun j -> str "name" j) (listed "workloads") in
  Alcotest.(check (list string)) "workloads"
    (List.map Scenario.label Scenario.all) names;
  List.iter2
    (fun w j ->
      let size = full_size w in
      Alcotest.(check bool) (Scenario.label w ^ " why states " ^ size) true
        (contains (str "why" j) size))
    Scenario.all (listed "workloads");
  let check_metrics key catalogue ~bound =
    let listed = listed key in
    Alcotest.(check int) (key ^ " count") (List.length catalogue) (List.length listed);
    List.iter2
      (fun (m : Summary.metric) j ->
        Alcotest.(check string) "name" m.Summary.name (str "name" j);
        Alcotest.(check string) (m.Summary.name ^ " unit") m.Summary.unit_ (str "unit" j);
        Alcotest.(check string) (m.Summary.name ^ " better")
          (better_label m.Summary.better) (str "better" j);
        if bound then
          Alcotest.(check (option (float 0.))) (m.Summary.name ^ " bound")
            (Some m.Summary.bound)
            (Option.bind (Metrics.Json.member "bound" j) Metrics.Json.to_float_opt))
      catalogue listed
  in
  check_metrics "end_to_end" (List.map fst Summary.end_to_end) ~bound:true;
  check_metrics "per_layer" (List.map fst Summary.per_layer) ~bound:false

(* One untraced and one traced repetition of each workload, shared by
   the cases below. *)
let runs =
  lazy
    (List.map
       (fun w ->
         let u = Scenario.run w Scenario.Tiny ~seed:42 ~traced:false in
         let t = Scenario.run w Scenario.Tiny ~seed:42 ~traced:true in
         (w, Summary.make w [ u; t ]))
       Scenario.all)

let each f () = List.iter (fun (w, s) -> f (Scenario.label w) s) (Lazy.force runs)

let test_metrics =
  each (fun w s ->
      let finite (m, v, xs) =
        Alcotest.(check bool)
          (Printf.sprintf "%s %s finite" w m.Summary.name)
          true
          (Float.is_finite v && xs <> [])
      in
      List.iter finite (Summary.end_to_end_values s);
      List.iter finite (Summary.per_layer_values s);
      (* End-to-end metrics never read 0: a zero would hide a regression. *)
      List.iter
        (fun (m, v, _) ->
          Alcotest.(check bool) (Printf.sprintf "%s %s > 0" w m.Summary.name) true (v > 0.))
        (Summary.end_to_end_values s))

let test_gate =
  each (fun w s ->
      Alcotest.(check (list string)) (w ^ ": correct, traced counters = untraced")
        [] s.Summary.errors;
      Alcotest.(check int) (w ^ ": no failed ops") 0 (Summary.failed s))

(* Measured, the remainder is 1.0-1.1x the probe cost. *)
let tracing_slack = 2.

(* Host ns of one empty enter/exit pair, as code around it sees it:
   the cost the profiler removes from every frame. *)
let probe_pair_ns () =
  let p = Prof.create ~ncpus:1 () and n = 200_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    Prof.enter p ~cpu:0 Spans.marker;
    Prof.exit p Spans.marker
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n

(* [tracing] is the remainder of the traced wall, so the rows add up to
   it by construction. What can fail: a span counted in two rows pushes
   the others past the wall, and work outside every span inflates the
   remainder beyond what the probes cost. *)
let test_rows =
  each (fun w s ->
      let r = List.hd s.Summary.traced in
      let wall = r.Scenario.wall_s *. 1e9 and rows = Scenario.rows r in
      List.iter
        (fun (l, ns, _) ->
          Alcotest.(check bool) (Printf.sprintf "%s row %s >= 0" w l) true (ns >= 0.))
        rows;
      let attributed =
        List.fold_left
          (fun a (l, ns, _) -> if l = Spans.tracing then a else a +. ns)
          0. rows
      in
      Alcotest.(check bool) (w ^ ": attributed rows stay within the traced wall")
        true (attributed <= wall);
      let tracing = wall -. attributed in
      let calls =
        List.fold_left (fun a (_, st) -> a + st.Spans.calls) 0 r.Scenario.spans
      in
      let probes = float_of_int calls *. probe_pair_ns () in
      Alcotest.(check bool)
        (Printf.sprintf "%s: tracing %.0f ns is probe cost (%d pairs, %.0f ns)" w
           tracing calls probes)
        true
        (tracing <= (tracing_slack *. probes) +. (0.05 *. wall)))

(* The shadow's per-GP scan runs inside rcu.gp but is reported in the
   check row: rcu.gp's self time excludes it. *)
let test_gp_promote_attribution () =
  let _, s = List.find (fun (w, _) -> w = Scenario.Checked) (Lazy.force runs) in
  let r = List.hd s.Summary.traced in
  let span n = List.assoc n r.Scenario.spans in
  let promote = span "check.gp_promote" and gp = span "rcu.gp" in
  Alcotest.(check bool) "promote ran" true (promote.Spans.calls > 0);
  Alcotest.(check bool) "rcu.gp self excludes the promote" true
    (gp.Spans.self_ns <= gp.Spans.incl_ns -. promote.Spans.incl_ns +. 1.)

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) *)
  let q1, q3 = Summary.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "python quartiles" (2.75, 8.25)
    (q1, q3)

let test_compare () =
  let m = fst (List.hd Summary.end_to_end) in
  (* ops_per_s: higher is better *)
  let verdict a b =
    let v, _, _, _, _, _ = Compare.judge m a b in
    Compare.verdict_label v
  in
  let parent = List.init 10 (fun i -> 100. +. float_of_int (i mod 3)) in
  Alcotest.(check string) "same" "unchanged" (verdict parent parent);
  Alcotest.(check string) "gain" "improved"
    (verdict parent (List.map (fun x -> x +. 20.) parent));
  Alcotest.(check string) "gain needs 10 pairs" "unchanged"
    (verdict [ 100.; 101. ] [ 105.; 106. ]);
  Alcotest.(check string) "loss" "worse"
    (verdict parent (List.map (fun x -> x *. (1. -. (2. *. m.Summary.bound))) parent));
  Alcotest.(check string) "noisy parent" "unresolved"
    (verdict [ 50.; 100.; 150.; 100. ] [ 100.; 99.; 101.; 100. ]);
  let gain = List.map (fun x -> x +. 20.) parent in
  Alcotest.(check string) "no gain while more ops fail" "unchanged"
    (let v, _, _, _, _, _ = Compare.judge ~more_failed:true m parent gain in
     Compare.verdict_label v);
  let setup = fst (List.find (fun (m, _) -> m.Summary.name = "setup_s") Summary.end_to_end) in
  let setup_verdict a b =
    let v, _, _, _, _, _ = Compare.judge setup a b in
    Compare.verdict_label v
  in
  (* about 1 ms *)
  let ms = List.map (fun x -> x *. 1e-5) parent in
  Alcotest.(check string) "set-up below the floor" "unchanged"
    (setup_verdict ms (List.map (fun x -> x *. 1.5) ms));
  Alcotest.(check string) "set-up past the floor" "worse"
    (setup_verdict ms (List.map (fun x -> x *. 30.) ms))

let test_failed_frac () =
  let record ~attempted ~ops =
    {
      Record.workload = "pgbench";
      seed = 42;
      trace = false;
      reps = 1;
      digest = "";
      counters = [ ("ops", ops); ("attempted", attempted) ];
      metrics = [];
    }
  in
  let verdict a b =
    let v, _, _ = Compare.failed_frac [ a ] [ b ] in
    Compare.verdict_label v
  in
  let clean = record ~attempted:1000 ~ops:1000 in
  Alcotest.(check string) "none fail" "unchanged" (verdict clean clean);
  Alcotest.(check string) "one more fails" "worse"
    (verdict clean (record ~attempted:1000 ~ops:999));
  Alcotest.(check string) "fewer fail" "unchanged"
    (verdict (record ~attempted:1000 ~ops:990) clean)

let () =
  Alcotest.run "e2e"
    [
      ( "e2e",
        [
          Alcotest.test_case "BENCHMARK.json matches the catalogue" `Quick
            test_catalogue;
          Alcotest.test_case "every metric, finite" `Quick test_metrics;
          Alcotest.test_case "correctness gate" `Quick test_gate;
          Alcotest.test_case "rows within traced wall" `Quick test_rows;
          Alcotest.test_case "gp promote in check row" `Quick
            test_gp_promote_attribution;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "compare verdicts" `Quick test_compare;
          Alcotest.test_case "compare failed ops" `Quick test_failed_frac;
        ] );
    ]
