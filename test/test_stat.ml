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
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "summarize singleton" `Quick test_summarize_singleton;
    Alcotest.test_case "summarize empty rejected" `Quick
      test_summarize_empty_rejected;
    Alcotest.test_case "percent change / speedup" `Quick
      test_percent_change_and_speedup;
  ]
