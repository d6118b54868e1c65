let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_basic () =
  let out =
    Metrics.Table.render ~header:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "header + separator + 2 rows" 4 (List.length lines);
  (* all lines equal width *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "uniform width" true
    (List.for_all (fun w -> w = List.hd widths) widths);
  Alcotest.(check bool) "contains alpha" true (contains out "alpha")

let test_table_alignment () =
  let out =
    Metrics.Table.render
      ~align:[ Metrics.Table.L; Metrics.Table.R ]
      ~header:[ "k"; "v" ]
      [ [ "x"; "1" ] ]
  in
  Alcotest.(check bool) "right aligned value" true (contains out " 1")

let test_table_pads_short_rows () =
  let out = Metrics.Table.render ~header:[ "a"; "b"; "c" ] [ [ "only" ] ] in
  Alcotest.(check bool) "renders" true (String.length out > 0)

let test_fmt_i () =
  Alcotest.(check string) "thousands" "1,234,567" (Metrics.Table.fmt_i 1234567);
  Alcotest.(check string) "small" "42" (Metrics.Table.fmt_i 42);
  Alcotest.(check string) "negative" "-1,000" (Metrics.Table.fmt_i (-1000));
  Alcotest.(check string) "zero" "0" (Metrics.Table.fmt_i 0)

let test_fmt_f_pct () =
  Alcotest.(check string) "float" "3.14" (Metrics.Table.fmt_f 3.14159);
  Alcotest.(check string) "nan" "-" (Metrics.Table.fmt_f nan);
  Alcotest.(check string) "pos pct" "+12.3%" (Metrics.Table.fmt_pct 12.34);
  Alcotest.(check string) "neg pct" "-4.0%" (Metrics.Table.fmt_pct (-4.0));
  Alcotest.(check string) "nan pct" "-" (Metrics.Table.fmt_pct nan)

let test_chart_renders_series () =
  let series =
    [
      ("up", Array.init 20 (fun i -> (i * 1000, float_of_int i)));
      ("flat", Array.init 20 (fun i -> (i * 1000, 1.0)));
    ]
  in
  let out = Metrics.Ascii_chart.line ~width:40 ~height:8 ~series () in
  Alcotest.(check bool) "has legend up" true (contains out "* = up");
  Alcotest.(check bool) "has legend flat" true (contains out "o = flat");
  Alcotest.(check bool) "has axis" true (contains out "+----")

let test_chart_downsample () =
  let points = Array.init 100 (fun i -> (i, float_of_int i)) in
  let thin = Metrics.Ascii_chart.downsample points ~max_points:5 in
  Alcotest.(check int) "5 points" 5 (Array.length thin);
  Alcotest.(check int) "keeps first" 0 (fst thin.(0));
  Alcotest.(check int) "keeps last" 99 (fst thin.(4));
  let full = Metrics.Ascii_chart.downsample points ~max_points:200 in
  Alcotest.(check int) "no-op when under budget" 100 (Array.length full)

(* Thinning keeps whole (time, value) samples at evenly spaced indices,
   in time order; Fig. 3 charts its endurance samples through it. *)
let test_chart_downsample_spacing () =
  let points = Array.init 100 (fun i -> (10 * i, float_of_int (i * i))) in
  let pick idx = List.map (fun i -> points.(i)) idx in
  let thin max_points =
    Array.to_list (Metrics.Ascii_chart.downsample points ~max_points)
  in
  Alcotest.(check (list (pair int (float 0.))))
    "indices 0, 24, 49, 74, 99" (pick [ 0; 24; 49; 74; 99 ]) (thin 5);
  Alcotest.(check (list (pair int (float 0.))))
    "two points: the endpoints" (pick [ 0; 99 ]) (thin 2);
  Alcotest.(check int) "at budget: unchanged" 100 (List.length (thin 100))

let test_chart_empty () =
  Alcotest.(check string) "empty data" "(no data)"
    (Metrics.Ascii_chart.line ~series:[ ("x", [||]) ] ())

let test_report_print () =
  let r =
    Metrics.Report.make ~id:"fig0" ~title:"Test figure"
      ~paper_claim:"the paper says X" ~verdict:"we measured Y" "BODY"
  in
  let out = Format.asprintf "%a" Metrics.Report.print r in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" frag) true
        (contains out frag))
    [ "FIG0"; "Test figure"; "the paper says X"; "we measured Y"; "BODY" ]

let suite =
  [
    Alcotest.test_case "table basic" `Quick test_table_basic;
    Alcotest.test_case "table alignment" `Quick test_table_alignment;
    Alcotest.test_case "table pads short rows" `Quick test_table_pads_short_rows;
    Alcotest.test_case "fmt_i thousands" `Quick test_fmt_i;
    Alcotest.test_case "fmt_f / fmt_pct" `Quick test_fmt_f_pct;
    Alcotest.test_case "chart renders series" `Quick test_chart_renders_series;
    Alcotest.test_case "chart downsample" `Quick test_chart_downsample;
    Alcotest.test_case "chart downsample spacing" `Quick
      test_chart_downsample_spacing;
    Alcotest.test_case "chart empty" `Quick test_chart_empty;
    Alcotest.test_case "report print" `Quick test_report_print;
  ]
