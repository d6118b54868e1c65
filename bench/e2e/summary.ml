(* Metric catalogue, aggregation of repetitions, and the correctness
   gate. BENCHMARK.json at the repository root lists the same metrics;
   the e2e test keeps the two in step. *)

open Scenario

type better = Higher | Lower

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** End-to-end only: allowed worsening, share of median. *)
  floor : float;
      (** End-to-end only: [compare] calls no change worse while both
          medians are below it. *)
}

let fi = float_of_int
let per a b = if b = 0. then 0. else a /. b
let counter (r : rep) k = Option.value (List.assoc_opt k r.counters) ~default:0
let cf r k = fi (counter r k)
let mib_of_words w = fi w *. fi (Sys.word_size / 8) /. 1048576.

(* One workload's repetitions. *)
type t = {
  workload : name;
  untraced : rep list;
  traced : rep list;
  errors : string list;  (** Non-empty: the run is not correct. *)
  digest : string;
}

(* End-to-end metrics, each with its samples: one per untraced
   repetition. *)
let end_to_end =
  let m ?(floor = 0.) name unit_ better bound f =
    ({ name; unit_; better; bound; floor }, fun t -> List.map f t.untraced)
  in
  [
    m "ops_per_s" "ops/s" Higher 0.25 (fun r -> per (fi r.ops) r.wall_s);
    m "gc_words_per_op" "words" Lower 0.02 (fun r ->
        per r.gc.minor_words (fi r.ops));
    m "peak_heap_mib" "MiB" Lower 0.10 (fun r ->
        mib_of_words r.gc.top_heap_words);
    (* Set-up takes 1-2 ms, where host jitter alone moves the median by
       more than the bound. *)
    m ~floor:0.002 "setup_s" "s" Lower 0.25 (fun r -> r.setup_s);
    m "sim_ops_per_vs" "ops/vs" Higher 0.02 (fun r -> per (fi r.ops) r.sim_s);
    m "sim_peak_used_mib" "MiB" Lower 0.15 (fun r ->
        cf r "peak_pages" *. 4096. /. 1048576.);
  ]

(* Per-layer metrics, each a function of one traced repetition and the
   median untraced wall time. Counts are deterministic, so reading them
   from the traced run gives the untraced values (the gate checks). *)
let per_layer =
  let m name unit_ better f =
    ({ name; unit_; better; bound = 0.; floor = 0. }, f)
  in
  let span r n =
    Option.value (List.assoc_opt n r.spans) ~default:Spans.zero
  in
  let row r l =
    match List.find_opt (fun (n, _, _) -> n = l) (rows r) with
    | Some (_, ns, w) -> (ns, w)
    | None -> (0., 0.)
  in
  let ops r = fi r.ops in
  let per_op r v = per v (ops r) in
  let per_kop r v = per (1000. *. v) (ops r) in
  let self_ns n r = per (span r n).Spans.self_ns (fi (span r n).Spans.calls) in
  let incl_ns n r = per (span r n).Spans.incl_ns (fi (span r n).Spans.calls) in
  let self_words n r =
    per (span r n).Spans.self_words (fi (span r n).Spans.calls)
  in
  let calls r ns = fi (List.fold_left (fun a n -> a + (span r n).Spans.calls) 0 ns) in
  let rows =
    List.concat_map
      (fun l ->
        [
          m (l ^ ".ns_per_op") "ns" Lower (fun r _ -> per_op r (fst (row r l)));
          m (l ^ ".words_per_op") "words" Lower (fun r _ ->
              per_op r (snd (row r l)));
        ])
      (Spans.layers @ [ Spans.tracing ])
  in
  [
    m "traced.wall_ns_per_op" "ns" Lower (fun r _ -> per_op r (r.wall_s *. 1e9));
    m "traced.words_per_op" "words" Lower (fun r _ -> per_op r r.gc.minor_words);
    m "traced.slowdown" "ratio" Lower (fun r base -> per r.wall_s base);
  ]
  @ rows
  @ [
      m "engine.events_per_op" "count" Lower (fun r _ -> per_op r (cf r "events"));
      m "engine.cascades_per_kevent" "count" Lower (fun r _ ->
          per (1000. *. cf r "cascades") (cf r "events"));
      m "engine.ns_per_event" "ns" Lower (fun r _ ->
          per (fst (row r "engine")) (cf r "events"));
      m "buddy.allocs_per_kop" "count" Lower (fun r _ ->
          per_kop r (cf r "buddy_allocs"));
      m "buddy.frees_per_kop" "count" Lower (fun r _ ->
          per_kop r (cf r "buddy_frees"));
      m "buddy.failed_allocs" "count" Lower (fun r _ -> cf r "buddy_failed");
      m "buddy.ns_per_call" "ns" Lower (fun r _ ->
          per (fst (row r "buddy")) (calls r [ "buddy.alloc"; "buddy.free" ]));
      m "slab.api.alloc_ns" "ns" Lower (fun r _ -> incl_ns "slab.api.alloc" r);
      m "slab.api.free_ns" "ns" Lower (fun r _ -> incl_ns "slab.api.free" r);
      m "slab.api.free_deferred_ns" "ns" Lower (fun r _ ->
          incl_ns "slab.api.free_deferred" r);
      m "slab.api.calls_per_op" "count" Lower (fun r _ ->
          per_op r
            (calls r
               [ "slab.api.alloc"; "slab.api.free"; "slab.api.free_deferred" ]));
      m "slab.hit_rate" "%" Higher (fun r _ ->
          per (100. *. cf r "hits") (cf r "allocs"));
      m "slab.ocache_churns_per_kop" "count" Lower (fun r _ ->
          per_kop r (cf r "ocache_churns"));
      m "slab.slab_churns_per_kop" "count" Lower (fun r _ ->
          per_kop r (cf r "slab_churns"));
      m "slab.grow_ns" "ns" Lower (fun r _ -> self_ns "slab.grow" r);
      m "slab.grow_words" "words" Lower (fun r _ -> self_words "slab.grow" r);
      m "latq.push_ns" "ns" Lower (fun r _ -> self_ns "slab.latq_push" r);
      m "latq.harvest_ns" "ns" Lower (fun r _ -> self_ns "slab.latq_harvest" r);
      m "latq.words_per_push" "words" Lower (fun r _ ->
          self_words "slab.latq_push" r);
      m "latq.harvests_per_push" "ratio" Lower (fun r _ ->
          per (calls r [ "slab.latq_harvest" ]) (calls r [ "slab.latq_push" ]));
      m "prudence.defer_ns" "ns" Lower (fun r _ -> self_ns "prudence.defer" r);
      m "prudence.scan_ns" "ns" Lower (fun r _ -> self_ns "prudence.scan" r);
      m "prudence.merged_per_deferred" "ratio" Higher (fun r _ ->
          per (cf r "merged_objs") (cf r "deferred_frees"));
      m "prudence.latent_overflow_share" "ratio" Lower (fun r _ ->
          per (cf r "latent_overflows") (cf r "deferred_frees"));
      m "rcu.gp_ns" "ns" Lower (fun r _ -> self_ns "rcu.gp" r);
      m "rcu.cb_drain_ns" "ns" Lower (fun r _ -> self_ns "rcu.cb_drain" r);
      m "rcu.qs_ns" "ns" Lower (fun r _ -> self_ns "rcu.qs" r);
      m "rcu.cbs_invoked_per_op" "count" Lower (fun r _ ->
          per_op r (cf r "cbs_invoked"));
      m "rcu.max_backlog" "count" Lower (fun r _ -> cf r "max_backlog");
      m "smr.frontier_per_vs" "1/vs" Higher (fun r _ ->
          per (cf r "frontier") r.sim_s);
      m "rcudata.lookup_ns" "ns" Lower (fun r _ -> incl_ns "rcudata.lookup" r);
      m "rcudata.update_ns" "ns" Lower (fun r _ -> incl_ns "rcudata.update" r);
      m "check.probe_ns" "ns" Lower (fun r _ -> self_ns "check.probe" r);
      m "check.probe_words" "words" Lower (fun r _ -> self_words "check.probe" r);
      m "check.gp_promote_ns" "ns" Lower (fun r _ ->
          incl_ns "check.gp_promote" r);
      m "check.poll_ns_per_event" "ns" Lower (fun r _ ->
          per (span r "check.poll").Spans.incl_ns (cf r "events"));
      m "check.tracked_objects" "count" Lower (fun r _ ->
          cf r "tracked_objects");
      m "gc.minor_collections_per_kop" "count" Lower (fun r _ ->
          per_kop r (fi r.gc.minor_collections));
      m "gc.major_collections" "count" Lower (fun r _ ->
          fi r.gc.major_collections);
      m "gc.promoted_words_per_op" "words" Lower (fun r _ ->
          per_op r r.gc.promoted_words);
    ]

(* -- statistics -- *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] gives them
   (its default "exclusive" method). Needs two values. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld < 2 then (nan, nan)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. fi (4 - delta)) +. (a.(j) *. fi delta)) /. 4.
    in
    (q 1, q 3)

(* -- gate and aggregation -- *)

let digest_of counters =
  String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters)
  |> Digest.string |> Digest.to_hex
  |> fun h -> String.sub h 0 16

let kind (r : rep) = if r.traced then "traced" else "untraced"

(* The gate: violations and wrong outputs from any repetition, and
   deterministic counters that differ between repetitions (untraced
   against each other, and traced against untraced: profiling and the
   outside spans must be pure observation). *)
let gate (reps : rep list) =
  let errors = List.concat_map (fun (r : rep) -> r.errors) reps in
  match reps with
  | [] -> [ "no repetitions ran" ]
  | first :: rest ->
      errors
      @ List.concat_map
          (fun r ->
            List.filter_map
              (fun (k, v) ->
                let v' = counter r k in
                if v = v' then None
                else
                  Some
                    (Printf.sprintf
                       "counter %s differs between repetitions: %d (%s) vs %d (%s)"
                       k v (kind first) v' (kind r)))
              first.counters)
          rest

let make workload reps =
  let untraced, traced = List.partition (fun (r : rep) -> not r.traced) reps in
  let digest =
    match reps with r :: _ -> digest_of r.counters | [] -> ""
  in
  { workload; untraced; traced; errors = gate reps; digest }

let counters t =
  match t.untraced @ t.traced with (r : rep) :: _ -> r.counters | [] -> []

let attempted t =
  List.fold_left (fun a (r : rep) -> a + r.attempted) 0 (t.untraced @ t.traced)

let failed t = List.fold_left (fun a (r : rep) -> a + r.failed) 0 (t.untraced @ t.traced)

(* [(metric, median, samples)] *)
let end_to_end_values t =
  List.map
    (fun (m, samples) ->
      let xs = samples t in
      (m, median xs, xs))
    end_to_end

let per_layer_values t =
  let base = median (List.map (fun r -> r.wall_s) t.untraced) in
  List.map
    (fun (m, f) ->
      let xs = List.map (fun r -> f r base) t.traced in
      (m, median xs, xs))
    per_layer

(* What a run reports: per-layer metrics when traced, else end-to-end. *)
let values ~trace t = if trace then per_layer_values t else end_to_end_values t
