(* End-to-end benchmark.

     main.exe [run] [--workload W]... [--seed N] [--reps N] [--seconds S]
                    [--trace 0|1] [--out FILE]
     main.exe compare A.ndjson B.ndjson

   [run] repeats each workload in a fresh child process, round-robin
   across workloads, one child at a time. It prints every metric with
   its unit and, as the last line of standard output, one JSON object
   {correct, attempted, failed, metrics}. With --trace 0 the metrics are
   the end-to-end ones from untraced repetitions; with --trace 1 each
   round adds a traced repetition and the metrics are the per-layer
   ones. It exits 1 when a correctness check fails. *)

open E2e

type opts = {
  workloads : Scenario.name list;
  seed : int;
  reps : int;
  seconds : float;
  trace : bool;
  out : string option;
}

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt

let workload_of_label s =
  match Scenario.of_label s with
  | Some w -> w
  | None ->
      die "unknown workload %s (%s)" s
        (String.concat "|" (List.map Scenario.label Scenario.all))

(* -- children: one full-size repetition each, marshalled to stdout -- *)

let child = function
  | [ w; seed; mode ] ->
      let w = workload_of_label w and seed = int_of_string seed in
      Marshal.to_channel stdout
        (Scenario.run w Scenario.Full ~seed ~traced:(mode = "traced") : Scenario.rep)
        [];
      flush stdout
  | _ -> die "child: expected WORKLOAD SEED MODE"

(* Runs one child to completion. *)
let spawn o w mode : Scenario.rep =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "child"; Scenario.label w; string_of_int o.seed; mode |]
  in
  let result = try Some (Marshal.from_channel ic) with _ -> None in
  match (Unix.close_process_in ic, result) with
  | Unix.WEXITED 0, Some r -> r
  | _ -> die "%s repetition of %s failed" mode (Scenario.label w)

(* -- output -- *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit_) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (num v)
              unit_)
          metrics))

let pct b = Printf.sprintf "%g%%" (100. *. b)

let print_summary o ~baseline (s : Summary.t) =
  let w = Scenario.label s.Summary.workload in
  Printf.printf "%s: %d untraced, %d traced repetitions, sim_digest %s\n" w
    (List.length s.Summary.untraced)
    (List.length s.Summary.traced)
    s.Summary.digest;
  let line (m : Summary.metric) v xs extra =
    Printf.printf "  %-32s %14.6g %-6s [min %.6g, max %.6g, n %d]%s\n"
      m.Summary.name v m.Summary.unit_
      (List.fold_left Float.min infinity xs)
      (List.fold_left Float.max neg_infinity xs)
      (List.length xs) extra
  in
  List.iter
    (fun (m, v, xs) ->
      line m v xs
        (if o.trace then ""
         else
           Printf.sprintf " %s is better, bound %s"
             (if m.Summary.better = Summary.Higher then "higher" else "lower")
             (pct m.Summary.bound)))
    (Summary.values ~trace:o.trace s);
  let recorded =
    List.find_opt
      (fun r -> r.Record.workload = w && r.Record.seed = o.seed && not r.Record.trace)
      baseline
  in
  (match recorded with
  | None -> ()
  | Some b -> (
      match Record.differing b (Record.of_summary ~seed:o.seed ~trace:o.trace s) with
      | [] -> Printf.printf "  counters match the recorded seed-%d baseline\n" o.seed
      | ks ->
          Printf.printf "  counters differ from the recorded seed-%d baseline: %s\n"
            o.seed (String.concat ", " ks)));
  List.iter (fun e -> Printf.printf "  INCORRECT: %s\n" e) s.Summary.errors

let baseline_path = "bench/e2e/baseline.ndjson"

let run o =
  let t0 = Unix.gettimeofday () in
  let reps = Hashtbl.create 4 in
  let add w r =
    Hashtbl.replace reps w (r :: Option.value ~default:[] (Hashtbl.find_opt reps w))
  in
  let round () =
    List.iter
      (fun w ->
        add w (spawn o w "untraced");
        if o.trace then add w (spawn o w "traced"))
      o.workloads
  in
  (* At least [reps] rounds; more while another fits in [seconds]. *)
  let rec loop n =
    round ();
    let elapsed = Unix.gettimeofday () -. t0 in
    if n < o.reps || elapsed +. (elapsed /. float_of_int n) <= o.seconds then
      loop (n + 1)
  in
  loop 1;
  let summaries =
    List.map (fun w -> Summary.make w (List.rev (Hashtbl.find reps w))) o.workloads
  in
  let baseline =
    if Sys.file_exists baseline_path then Record.load baseline_path else []
  in
  List.iter (print_summary o ~baseline) summaries;
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      List.iter
        (fun s ->
          output_string oc
            (Record.to_line (Record.of_summary ~seed:o.seed ~trace:o.trace s) ^ "\n"))
        summaries;
      close_out oc)
    o.out;
  let correct = List.for_all (fun s -> s.Summary.errors = []) summaries in
  let prefix s (m : Summary.metric) =
    match o.workloads with
    | [ _ ] -> m.Summary.name
    | _ -> Scenario.label s.Summary.workload ^ "." ^ m.Summary.name
  in
  let metrics =
    List.concat_map
      (fun s ->
        List.map
          (fun (m, v, _) -> (prefix s m, v, m.Summary.unit_))
          (Summary.values ~trace:o.trace s))
      summaries
  in
  let sum f = List.fold_left (fun a s -> a + f s) 0 summaries in
  print_endline
    (result_line ~correct ~attempted:(sum Summary.attempted)
       ~failed:(sum Summary.failed) metrics);
  if not correct then exit 1

let parse_run args =
  let workloads = ref [] and seed = ref 42 and reps = ref 5 in
  let seconds = ref 0. and trace = ref 0 in
  let out = ref None in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workloads := workload_of_label s :: !workloads),
       "W  workload to run (repeatable; default all)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 42)");
      ("--reps", Arg.Set_int reps, "N  minimum rounds (default 5)");
      ("--seconds", Arg.Set_float seconds, "S  keep adding rounds while they fit in S seconds");
      ("--trace", Arg.Set_int trace, "0|1  add traced repetitions, report per-layer metrics");
      ("--out", Arg.String (fun f -> out := Some f), "FILE  append one NDJSON record per workload");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0) (Array.of_list ("run" :: args)) spec
       (fun a -> die "unexpected argument %s" a)
       "main.exe run [options]"
   with
  | Arg.Help msg -> print_string msg; exit 0
  | Arg.Bad msg -> prerr_string msg; exit 2);
  {
    workloads =
      (match List.rev !workloads with [] -> Scenario.all | ws -> ws);
    seed = !seed;
    reps = max 1 !reps;
    seconds = !seconds;
    trace = !trace <> 0;
    out = !out;
  }

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "child" :: rest -> child rest
  | [ "compare"; a; b ] -> exit (Compare.main a b)
  | "compare" :: _ -> die "usage: main.exe compare A.ndjson B.ndjson"
  | "run" :: rest -> run (parse_run rest)
  | rest -> run (parse_run rest)
