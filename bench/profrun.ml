(* Profiling harness (the `prof` subcommand).

   Reruns the wall-clock harness's pinned scenarios with a live
   {!Prof} profiler installed on the whole stack (engine, buddy, slab,
   RCU, Prudence) and reports where simulated work and GC allocation
   go: a per-span table, top-N views by self time or self allocation,
   folded call paths for flamegraph tooling, and an NDJSON export.

   The deterministic counters (events, updates) of a profiled run match
   the unprofiled run of the same scenario — profiling reads clocks and
   GC counters but never schedules events — so figures here can be read
   against bench/BENCH_wallclock.json directly. *)

module W = Workloads
module T = Metrics.Table
module J = Metrics.Json

type sort_key = By_time | By_alloc

let sort_key_of_string = function
  | "time" -> Some By_time
  | "alloc" -> Some By_alloc
  | _ -> None

type run = {
  scenario : Wallclock.scenario;
  alloc_label : string;  (** "slub" / "prudence". *)
  prof : Prof.t;
  events : int;  (** Engine events executed. *)
  updates : int;
  wall_s : float;
}

let run_scenario p scenario kind =
  let prof = Prof.create ~ncpus:p.Core.Experiments.cpus () in
  let w0 = Unix.gettimeofday () in
  let env, updates = Wallclock.run_once ~prof p scenario kind in
  let w1 = Unix.gettimeofday () in
  {
    scenario;
    alloc_label = W.Env.kind_label kind;
    prof;
    events = Sim.Engine.executed env.W.Env.eng;
    updates;
    wall_s = w1 -. w0;
  }

let run_all ?(scenarios = Wallclock.all_scenarios) p =
  List.concat_map
    (fun s ->
      List.map
        (fun k -> run_scenario p s k)
        [ W.Env.Baseline; W.Env.Prudence_alloc ])
    scenarios

(* Per-span totals of one run, heaviest first under [by], cut to [top]
   rows when positive. *)
let sorted_totals ?(top = 0) ~by r =
  let key (c : Prof.cell) =
    match by with
    | By_time -> c.Prof.self_ns
    | By_alloc -> c.Prof.self_minor_words
  in
  let cells =
    List.sort (fun a b -> compare (key b) (key a)) (Prof.totals r.prof)
  in
  if top <= 0 then cells
  else List.filteri (fun i _ -> i < top) cells

let per_call v calls = if calls = 0 then 0. else v /. float_of_int calls

let share v total = if total <= 0. then 0. else 100. *. v /. total

let span_table ?top ~by r =
  let total_ns = Prof.total_self_ns r.prof in
  let total_minor = Prof.total_minor_words r.prof in
  let row (c : Prof.cell) =
    [
      Prof.Span.name c.Prof.span;
      T.fmt_i c.Prof.calls;
      Printf.sprintf "%.2f" (c.Prof.self_ns /. 1e6);
      Printf.sprintf "%.0f" (per_call c.Prof.self_ns c.Prof.calls);
      Printf.sprintf "%.2f" (c.Prof.incl_ns /. 1e6);
      Printf.sprintf "%.0f" c.Prof.self_minor_words;
      Printf.sprintf "%.1f" (per_call c.Prof.self_minor_words c.Prof.calls);
      Printf.sprintf "%.1f" (share c.Prof.self_ns total_ns);
      Printf.sprintf "%.1f" (share c.Prof.self_minor_words total_minor);
    ]
  in
  T.render
    ~header:
      [
        "span"; "calls"; "self ms"; "ns/call"; "incl ms"; "minor words";
        "words/call"; "time %"; "alloc %";
      ]
    (List.map row (sorted_totals ?top ~by r))

let subsystem_table r =
  let total_ns = Prof.total_self_ns r.prof in
  let total_minor = Prof.total_minor_words r.prof in
  let row (sub, ns, words) =
    [
      sub;
      Printf.sprintf "%.2f" (ns /. 1e6);
      Printf.sprintf "%.1f" (share ns total_ns);
      Printf.sprintf "%.0f" words;
      Printf.sprintf "%.1f" (share words total_minor);
    ]
  in
  T.render
    ~header:[ "subsystem"; "self ms"; "time %"; "minor words"; "alloc %" ]
    (List.map row (Prof.subsystem_totals r.prof))

let ns_per_event r = per_call (Prof.total_self_ns r.prof) r.events
let allocs_per_event r = per_call (Prof.total_minor_words r.prof) r.events

let render ?top ~by r =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "== %s/%s: %s events in %.1f wall ms\n"
       (Wallclock.scenario_name r.scenario)
       r.alloc_label (T.fmt_i r.events) (r.wall_s *. 1e3));
  Buffer.add_string b
    (Printf.sprintf
       "   spans: %.2f self ms, %.0f minor words -> %.1f words/event, %.0f \
        ns/event%s\n"
       (Prof.total_self_ns r.prof /. 1e6)
       (Prof.total_minor_words r.prof)
       (allocs_per_event r) (ns_per_event r)
       (let tr = Prof.truncated r.prof and dr = Prof.dropped_exits r.prof in
        if tr = 0 && dr = 0 then ""
        else Printf.sprintf " (%d truncated, %d unmatched exits)" tr dr));
  Buffer.add_string b (span_table ?top ~by r);
  Buffer.add_char b '\n';
  Buffer.add_string b (subsystem_table r);
  Buffer.contents b

(* Folded call paths ("a.b;c.d weight" lines), the input format of
   flamegraph.pl / inferno / speedscope. The weight follows the sort
   key: self ns for --by time, self minor words for --by alloc. *)
let folded ~by r =
  let weight = match by with By_time -> `Self_ns | By_alloc -> `Self_minor_words in
  String.concat ""
    (List.map
       (fun (path, w) -> Printf.sprintf "%s %d\n" path w)
       (Prof.folded ~weight r.prof))

let span_json r (c : Prof.cell) =
  J.Obj
    [
      ("type", J.Str "span");
      ("scenario", J.Str (Wallclock.scenario_name r.scenario));
      ("alloc", J.Str r.alloc_label);
      ("span", J.Str (Prof.Span.name c.Prof.span));
      ("subsystem", J.Str (Prof.Span.subsystem c.Prof.span));
      ("calls", J.Int c.Prof.calls);
      ("self_ns", J.Float c.Prof.self_ns);
      ("incl_ns", J.Float c.Prof.incl_ns);
      ("self_minor_words", J.Float c.Prof.self_minor_words);
      ("self_major_words", J.Float c.Prof.self_major_words);
    ]

let summary_json r =
  J.Obj
    [
      ("type", J.Str "scenario_summary");
      ("scenario", J.Str (Wallclock.scenario_name r.scenario));
      ("alloc", J.Str r.alloc_label);
      ("events", J.Int r.events);
      ("updates", J.Int r.updates);
      ("wall_s", J.Float r.wall_s);
      ("total_self_ns", J.Float (Prof.total_self_ns r.prof));
      ("total_minor_words", J.Float (Prof.total_minor_words r.prof));
      ("total_major_words", J.Float (Prof.total_major_words r.prof));
      ("ns_per_event", J.Float (ns_per_event r));
      ("allocs_per_event", J.Float (allocs_per_event r));
      ("truncated", J.Int (Prof.truncated r.prof));
      ("dropped_exits", J.Int (Prof.dropped_exits r.prof));
      ( "subsystems",
        J.List
          (List.map
             (fun (sub, ns, words) ->
               J.Obj
                 [
                   ("subsystem", J.Str sub);
                   ("self_ns", J.Float ns);
                   ("self_minor_words", J.Float words);
                 ])
             (Prof.subsystem_totals r.prof)) );
    ]

(* One NDJSON line per span per run, then one scenario_summary line per
   run, then one trailing summary line — the same layout `check --json`
   and `regress --json` use, so CI tooling can share a parser. *)
let to_ndjson rs =
  let b = Buffer.create 4096 in
  let line j =
    Buffer.add_string b (J.to_string j);
    Buffer.add_char b '\n'
  in
  List.iter
    (fun r ->
      List.iter (fun c -> line (span_json r c)) (Prof.totals r.prof);
      line (summary_json r))
    rs;
  line (J.Obj [ ("type", J.Str "summary"); ("runs", J.Int (List.length rs)) ]);
  Buffer.contents b
