(* One workload's result from one [run], as a line of an NDJSON results
   file: the input of [compare] and the format of baseline.ndjson. *)

type t = {
  workload : string;
  seed : int;
  trace : bool;
  reps : int;
  digest : string;
  counters : (string * int) list;
  metrics : (string * float) list;  (** Medians. *)
}

let of_summary ~seed ~trace (s : Summary.t) =
  {
    workload = Scenario.label s.Summary.workload;
    seed;
    trace;
    reps = List.length s.Summary.untraced;
    digest = s.Summary.digest;
    counters = Summary.counters s;
    metrics =
      List.map (fun (m, v, _) -> (m.Summary.name, v)) (Summary.values ~trace s);
  }

let to_line t =
  let open Metrics.Json in
  to_string
    (Obj
       [
         ("workload", Str t.workload);
         ("seed", Int t.seed);
         ("trace", Int (if t.trace then 1 else 0));
         ("reps", Int t.reps);
         ("sim_digest", Str t.digest);
         ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) t.counters));
         ("metrics", Obj (List.map (fun (k, v) -> (k, Float v)) t.metrics));
       ])

let of_line line =
  let open Metrics.Json in
  let fields key conv j =
    match member key j with
    | Some (Obj kv) ->
        List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (conv v)) kv
    | _ -> []
  in
  match of_string line with
  | Error e -> Error e
  | Ok j -> (
      let get key conv = Option.bind (member key j) conv in
      match (get "workload" to_string_opt, get "seed" to_int_opt, get "trace" to_int_opt) with
      | Some workload, Some seed, Some trace ->
          Ok
            {
              workload;
              seed;
              trace = trace <> 0;
              reps = Option.value ~default:0 (get "reps" to_int_opt);
              digest = Option.value ~default:"" (get "sim_digest" to_string_opt);
              counters = fields "counters" to_int_opt j;
              metrics = fields "metrics" to_float_opt j;
            }
      | _ -> Error "missing workload, seed or trace")

let load path =
  let ic = open_in path in
  let rec go n acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | l when String.trim l = "" -> go (n + 1) acc
    | l -> (
        match of_line l with
        | Ok r -> go (n + 1) (r :: acc)
        | Error e -> failwith (Printf.sprintf "%s:%d: %s" path n e))
  in
  go 1 []

(* Ops that were attempted but did not complete (OOM'd or refused), and
   ops attempted, over the records' first repetitions. *)
let failed_of rs =
  let c k r = Option.value (List.assoc_opt k r.counters) ~default:0 in
  List.fold_left
    (fun (f, a) r -> (f + c "attempted" r - c "ops" r, a + c "attempted" r))
    (0, 0) rs

(* Counters whose values differ between two records (either side's
   keys). *)
let differing a b =
  let keys = List.sort_uniq compare (List.map fst a.counters @ List.map fst b.counters) in
  List.filter
    (fun k -> List.assoc_opt k a.counters <> List.assoc_opt k b.counters)
    keys
