let test_initial_state () =
  let b = Mem.Buddy.create ~total_pages:1024 () in
  Alcotest.(check int) "total" 1024 (Mem.Buddy.total_pages b);
  Alcotest.(check int) "used" 0 (Mem.Buddy.used_pages b);
  Alcotest.(check int) "free" 1024 (Mem.Buddy.free_pages b);
  Alcotest.(check int) "page size" 4096 Mem.Buddy.page_size;
  Test_util.audit_clean (Check.Audit.buddy b)

let test_alloc_free_roundtrip () =
  let b = Mem.Buddy.create ~total_pages:1024 () in
  let blk = Mem.Buddy.alloc_exn b ~order:3 in
  Alcotest.(check int) "used 8 pages" 8 (Mem.Buddy.used_pages b);
  Alcotest.(check int) "aligned" 0 (blk.Mem.Buddy.page land 7);
  Mem.Buddy.free b blk;
  Alcotest.(check int) "all free again" 0 (Mem.Buddy.used_pages b);
  Test_util.audit_clean (Check.Audit.buddy b)

let test_no_overlap () =
  let b = Mem.Buddy.create ~total_pages:256 () in
  let seen = Hashtbl.create 256 in
  let blocks = ref [] in
  (try
     while true do
       let blk = Mem.Buddy.alloc_exn b ~order:1 in
       blocks := blk :: !blocks;
       for p = blk.Mem.Buddy.page to blk.Mem.Buddy.page + 1 do
         if Hashtbl.mem seen p then Alcotest.failf "page %d allocated twice" p;
         Hashtbl.add seen p ()
       done
     done
   with Mem.Buddy.Out_of_memory -> ());
  Alcotest.(check int) "all pages handed out" 256 (Hashtbl.length seen);
  List.iter (Mem.Buddy.free b) !blocks;
  Alcotest.(check int) "all returned" 0 (Mem.Buddy.used_pages b);
  Test_util.audit_clean (Check.Audit.buddy b)

let test_coalescing () =
  let b = Mem.Buddy.create ~total_pages:16 ~max_order:4 () in
  (* Fill with order-0, free all, then the whole region must be allocable
     as one order-4 block again. *)
  let blocks = List.init 16 (fun _ -> Mem.Buddy.alloc_exn b ~order:0) in
  Alcotest.(check int) "full" 0 (Mem.Buddy.free_pages b);
  List.iter (Mem.Buddy.free b) blocks;
  let big = Mem.Buddy.alloc_exn b ~order:4 in
  Alcotest.(check int) "coalesced to max order" 0 big.Mem.Buddy.page;
  Mem.Buddy.free b big;
  Test_util.audit_clean (Check.Audit.buddy b)

let test_split_accounting () =
  let b = Mem.Buddy.create ~total_pages:16 ~max_order:4 () in
  let blk = Mem.Buddy.alloc_exn b ~order:0 in
  Alcotest.(check int) "one page used" 1 (Mem.Buddy.used_pages b);
  Test_util.audit_clean (Check.Audit.buddy b);
  Mem.Buddy.free b blk;
  Test_util.audit_clean (Check.Audit.buddy b)

let test_oom () =
  let b = Mem.Buddy.create ~total_pages:8 ~max_order:3 () in
  let _blk = Mem.Buddy.alloc_exn b ~order:3 in
  Alcotest.(check (option reject)) "exhausted" None
    (Option.map (fun _ -> ()) (Mem.Buddy.alloc b ~order:0));
  Alcotest.(check int) "failure counted" 1 (Mem.Buddy.failed_allocs b);
  try
    ignore (Mem.Buddy.alloc_exn b ~order:0);
    Alcotest.fail "expected Out_of_memory"
  with Mem.Buddy.Out_of_memory -> ()

let test_double_free_rejected () =
  let b = Mem.Buddy.create ~total_pages:64 () in
  let blk = Mem.Buddy.alloc_exn b ~order:2 in
  Mem.Buddy.free b blk;
  try
    Mem.Buddy.free b blk;
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_peak_tracking () =
  let b = Mem.Buddy.create ~total_pages:64 () in
  let b1 = Mem.Buddy.alloc_exn b ~order:4 in
  let b2 = Mem.Buddy.alloc_exn b ~order:4 in
  Mem.Buddy.free b b1;
  Mem.Buddy.free b b2;
  Alcotest.(check int) "peak" 32 (Mem.Buddy.peak_used_pages b);
  Alcotest.(check int) "used now" 0 (Mem.Buddy.used_pages b)

let test_non_power_of_two_total () =
  let b = Mem.Buddy.create ~total_pages:1000 () in
  Test_util.audit_clean (Check.Audit.buddy b);
  let blocks = ref [] in
  (try
     while true do
       blocks := Mem.Buddy.alloc_exn b ~order:0 :: !blocks
     done
   with Mem.Buddy.Out_of_memory -> ());
  Alcotest.(check int) "all 1000 pages usable" 1000 (List.length !blocks);
  List.iter (Mem.Buddy.free b) !blocks;
  Test_util.audit_clean (Check.Audit.buddy b)

let test_largest_free_order () =
  let b = Mem.Buddy.create ~total_pages:16 ~max_order:4 () in
  Alcotest.(check int) "whole region" 4 (Mem.Buddy.largest_free_order b);
  let _b1 = Mem.Buddy.alloc_exn b ~order:3 in
  Alcotest.(check int) "half left" 3 (Mem.Buddy.largest_free_order b);
  let _b2 = Mem.Buddy.alloc_exn b ~order:3 in
  Alcotest.(check int) "exhausted" (-1) (Mem.Buddy.largest_free_order b)

let test_injected_vs_genuine_failures () =
  let b = Mem.Buddy.create ~total_pages:8 ~max_order:3 () in
  (* A refusing hook: failures are injected, not genuine exhaustion. *)
  Mem.Buddy.set_fail_hook b (Some (fun ~order:_ -> true));
  Alcotest.(check bool) "refused" true (Mem.Buddy.alloc b ~order:0 = None);
  Alcotest.(check bool) "refused again" true (Mem.Buddy.alloc b ~order:1 = None);
  Alcotest.(check int) "injected counted" 2 (Mem.Buddy.injected_failures b);
  Alcotest.(check int) "genuine untouched" 0 (Mem.Buddy.failed_allocs b);
  Alcotest.(check bool) "memory was actually available" true
    (Mem.Buddy.would_satisfy b ~order:0);
  (* Hook removed: allocation works and nothing new is counted. *)
  Mem.Buddy.set_fail_hook b None;
  let blk = Mem.Buddy.alloc_exn b ~order:3 in
  Alcotest.(check int) "no new injected" 2 (Mem.Buddy.injected_failures b);
  (* Genuine exhaustion (no hook): failed_allocs, not injected_failures. *)
  Alcotest.(check bool) "exhausted" true (Mem.Buddy.alloc b ~order:0 = None);
  Alcotest.(check int) "genuine counted" 1 (Mem.Buddy.failed_allocs b);
  Alcotest.(check int) "injected unchanged" 2 (Mem.Buddy.injected_failures b);
  Alcotest.(check bool) "nothing would satisfy" false
    (Mem.Buddy.would_satisfy b ~order:0);
  Mem.Buddy.free b blk;
  Test_util.audit_clean (Check.Audit.buddy b)

let test_would_satisfy_orders () =
  let b = Mem.Buddy.create ~total_pages:16 ~max_order:4 () in
  Alcotest.(check bool) "whole region free" true
    (Mem.Buddy.would_satisfy b ~order:4);
  let blk = Mem.Buddy.alloc_exn b ~order:3 in
  Alcotest.(check bool) "half gone: order 4 unsatisfiable" false
    (Mem.Buddy.would_satisfy b ~order:4);
  Alcotest.(check bool) "order 3 still satisfiable" true
    (Mem.Buddy.would_satisfy b ~order:3);
  Alcotest.(check bool) "smaller orders split from it" true
    (Mem.Buddy.would_satisfy b ~order:0);
  Mem.Buddy.free b blk

let prop_random_alloc_free =
  QCheck.Test.make ~name:"random alloc/free keeps invariants" ~count:60
    QCheck.(list (pair (int_bound 3) bool))
    (fun ops ->
      let b = Mem.Buddy.create ~total_pages:512 () in
      let held = ref [] in
      List.iter
        (fun (order, do_free) ->
          if do_free then (
            match !held with
            | blk :: rest ->
                Mem.Buddy.free b blk;
                held := rest
            | [] -> ())
          else
            match Mem.Buddy.alloc b ~order with
            | Some blk -> held := blk :: !held
            | None -> ())
        ops;
      Test_util.audit_clean (Check.Audit.buddy b);
      List.iter (Mem.Buddy.free b) !held;
      Test_util.audit_clean (Check.Audit.buddy b);
      Mem.Buddy.used_pages b = 0)

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "alloc/free roundtrip" `Quick test_alloc_free_roundtrip;
    Alcotest.test_case "no overlapping blocks" `Quick test_no_overlap;
    Alcotest.test_case "coalescing" `Quick test_coalescing;
    Alcotest.test_case "split accounting" `Quick test_split_accounting;
    Alcotest.test_case "out of memory" `Quick test_oom;
    Alcotest.test_case "double free rejected" `Quick test_double_free_rejected;
    Alcotest.test_case "peak tracking" `Quick test_peak_tracking;
    Alcotest.test_case "non-power-of-two total" `Quick
      test_non_power_of_two_total;
    Alcotest.test_case "largest free order" `Quick test_largest_free_order;
    Alcotest.test_case "injected vs genuine failures" `Quick
      test_injected_vs_genuine_failures;
    Alcotest.test_case "would_satisfy orders" `Quick test_would_satisfy_orders;
    QCheck_alcotest.to_alcotest prop_random_alloc_free;
  ]
