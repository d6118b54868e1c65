let test_series_push_order () =
  let s = Sim.Series.create () in
  Sim.Series.push s ~time:10 1.0;
  Sim.Series.push s ~time:20 2.0;
  Sim.Series.push s ~time:20 3.0;
  Alcotest.(check int) "length" 3 (Sim.Series.length s);
  let a = Sim.Series.to_array s in
  Alcotest.(check (pair int (float 0.001))) "first" (10, 1.0) a.(0);
  Alcotest.(check (pair int (float 0.001))) "last" (20, 3.0) a.(2);
  Alcotest.(check (float 0.001)) "max" 3.0 (Sim.Series.max_value s)

let test_series_sampler () =
  let eng = Sim.Engine.create () in
  let s = Sim.Series.create () in
  let v = ref 0.0 in
  Sim.Series.sample_every eng s ~period:1_000 (fun () ->
      v := !v +. 1.0;
      !v);
  (* Keep the engine busy to the horizon so the sampler keeps firing. *)
  ignore (Sim.Engine.schedule eng ~after:10_500 ignore);
  Sim.Engine.run ~until:10_500 eng;
  Alcotest.(check int) "10 samples" 10 (Sim.Series.length s);
  match Sim.Series.last s with
  | Some (t, value) ->
      Alcotest.(check int) "last time" 10_000 t;
      Alcotest.(check (float 0.001)) "last value" 10.0 value
  | None -> Alcotest.fail "no samples"

let test_downsample () =
  let s = Sim.Series.create () in
  for i = 0 to 99 do
    Sim.Series.push s ~time:i (float_of_int i)
  done;
  let thin = Sim.Series.downsample s ~max_points:5 in
  Alcotest.(check int) "5 points" 5 (Array.length thin);
  Alcotest.(check int) "keeps first" 0 (fst thin.(0));
  Alcotest.(check int) "keeps last" 99 (fst thin.(4));
  let full = Sim.Series.downsample s ~max_points:200 in
  Alcotest.(check int) "no-op when under budget" 100 (Array.length full)

let test_summarize () =
  let s = Sim.Stat.summarize [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check int) "n" 8 s.Sim.Stat.n;
  Alcotest.(check (float 0.001)) "mean" 5.0 s.Sim.Stat.mean;
  Alcotest.(check (float 0.01)) "stdev (sample)" 2.138 s.Sim.Stat.stdev;
  Alcotest.(check (float 0.001)) "min" 2.0 s.Sim.Stat.min;
  Alcotest.(check (float 0.001)) "max" 9.0 s.Sim.Stat.max

let test_summarize_singleton () =
  let s = Sim.Stat.summarize [ 3.5 ] in
  Alcotest.(check (float 0.001)) "mean" 3.5 s.Sim.Stat.mean;
  Alcotest.(check (float 0.001)) "stdev 0 for n=1" 0.0 s.Sim.Stat.stdev

let test_summarize_empty_rejected () =
  try
    ignore (Sim.Stat.summarize []);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_percent_change_and_speedup () =
  Alcotest.(check (float 0.001)) "+50%" 50.0
    (Sim.Stat.percent_change ~baseline:100.0 150.0);
  Alcotest.(check (float 0.001)) "-25%" (-25.0)
    (Sim.Stat.percent_change ~baseline:100.0 75.0);
  Alcotest.(check (float 0.001)) "2x" 2.0 (Sim.Stat.speedup ~baseline:50.0 100.0)

let suite =
  [
    Alcotest.test_case "series push/order" `Quick test_series_push_order;
    Alcotest.test_case "series sampler" `Quick test_series_sampler;
    Alcotest.test_case "downsample" `Quick test_downsample;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "summarize singleton" `Quick test_summarize_singleton;
    Alcotest.test_case "summarize empty rejected" `Quick
      test_summarize_empty_rejected;
    Alcotest.test_case "percent change / speedup" `Quick
      test_percent_change_and_speedup;
  ]
