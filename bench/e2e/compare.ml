(* [compare A B]: judge a change (B) against its parent (A) on every
   end-to-end metric x workload, from NDJSON files written by
   [run --out]. The i-th record of a workload in A is paired with the
   i-th in B, so alternate which side runs first when producing them.

   - improved: at least 10 pairs, B wins at least 9 in 10 of them (ties
     count for neither), the medians differ by more than A's
     interquartile range, and B fails no larger share of its ops than A;
   - worse: B's median is worse than A's by more than the metric's
     bound, unless both medians are below the metric's floor;
   - unresolved: A's own spread is wider than the bound and not every
     B run beats every A run;
   - unchanged: otherwise.

   Each workload also gets a [failed_frac] row, the share of attempted
   ops that failed: worse when B's share is above A's at all. *)

open Summary

type verdict = Improved | Unchanged | Worse | Unresolved

let verdict_label = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let judge ?(more_failed = false) m a b =
  let beats x y = match m.better with Higher -> x > y | Lower -> x < y in
  let ma = median a and mb = median b in
  let q1, q3 = quartiles a in
  let iqr = if List.length a < 2 then 0. else q3 -. q1 in
  let rec zip xs ys =
    match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> []
  in
  let pairs = zip a b in
  let n = List.length pairs in
  let wins = List.length (List.filter (fun (x, y) -> beats y x) pairs) in
  let worsening =
    let d = match m.better with Higher -> ma -. mb | Lower -> mb -. ma in
    if ma <> 0. then d /. Float.abs ma
    else if d > 0. then infinity
    else 0.
  in
  let all_better = List.for_all (fun y -> List.for_all (beats y) a) b in
  let v =
    if (not more_failed) && n >= 10 && 10 * wins >= 9 * n && beats mb ma
       && Float.abs (mb -. ma) > iqr
    then Improved
    else if worsening > m.bound && (ma >= m.floor || mb >= m.floor) then Worse
    else if ma <> 0. && iqr /. Float.abs ma > m.bound && not all_better then
      Unresolved
    else Unchanged
  in
  (v, ma, mb, iqr, n, wins)

(* [(verdict, share A, share B)]: B may fail no larger share of its
   attempted ops than A. *)
let failed_frac ra rb =
  let share rs =
    let f, a = Record.failed_of rs in
    if a = 0 then 0. else float_of_int f /. float_of_int a
  in
  let fa = share ra and fb = share rb in
  ((if fb > fa then Worse else Unchanged), fa, fb)

let main path_a path_b =
  let untraced path = List.filter (fun r -> not r.Record.trace) (Record.load path) in
  let a = untraced path_a and b = untraced path_b in
  let worse = ref false in
  Printf.printf "%-10s %-18s %14s %14s %14s %5s %5s  %s\n" "workload" "metric"
    "parent" "change" "parent IQR" "pairs" "wins" "verdict";
  List.iter
    (fun w ->
      let of_w = List.filter (fun r -> r.Record.workload = Scenario.label w) in
      match (of_w a, of_w b) with
      | (ra0 :: _ as ra), (rb0 :: _ as rb) ->
          let fv, fa, fb = failed_frac ra rb in
          let more_failed = fv = Worse in
          if more_failed then worse := true;
          Printf.printf "%-10s %-18s %14.6g %14.6g %14s %5s %5s  %s\n"
            (Scenario.label w) "failed_frac" fa fb "" "" "" (verdict_label fv);
          List.iter
            (fun (m, _) ->
              let values = List.filter_map (fun r -> List.assoc_opt m.name r.Record.metrics) in
              match (values ra, values rb) with
              | [], _ | _, [] -> ()
              | xa, xb ->
                  let v, ma, mb, iqr, n, wins = judge ~more_failed m xa xb in
                  if v = Worse then worse := true;
                  Printf.printf "%-10s %-18s %14.6g %14.6g %14.6g %5d %5d  %s\n"
                    (Scenario.label w) m.name ma mb iqr n wins (verdict_label v))
            end_to_end;
          Printf.printf "%-10s %-18s %s\n" (Scenario.label w) "sim_digest"
            (if ra0.Record.seed <> rb0.Record.seed then "not compared: different seeds"
             else
               match Record.differing ra0 rb0 with
               | [] -> "identical"
               | ks -> "DIFFERS in " ^ String.concat ", " ks)
      | _ -> ())
    Scenario.all;
  if !worse then 1 else 0
