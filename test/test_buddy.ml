(* The first page of a fresh block; fails the test on exhaustion. *)
let alloc_exn b ~order =
  let page = Mem.Buddy.alloc b ~order in
  if page < 0 then Alcotest.failf "no free block of order %d" order;
  page

(* Every block [alloc] hands out until it returns -1, newest first. *)
let alloc_all b ~order =
  let rec go acc =
    let page = Mem.Buddy.alloc b ~order in
    if page < 0 then acc else go (page :: acc)
  in
  go []

let test_initial_state () =
  let b = Mem.Buddy.create ~total_pages:1024 () in
  Alcotest.(check int) "total" 1024 (Mem.Buddy.total_pages b);
  Alcotest.(check int) "used" 0 (Mem.Buddy.used_pages b);
  Alcotest.(check int) "free" 1024 (Mem.Buddy.free_pages b);
  Alcotest.(check int) "page size" 4096 Mem.Buddy.page_size;
  Test_util.audit_clean (Check.Audit.buddy b)

let test_alloc_free_roundtrip () =
  let b = Mem.Buddy.create ~total_pages:1024 () in
  let page = alloc_exn b ~order:3 in
  Alcotest.(check int) "used 8 pages" 8 (Mem.Buddy.used_pages b);
  Alcotest.(check int) "aligned" 0 (page land 7);
  Mem.Buddy.free b ~page ~order:3;
  Alcotest.(check int) "all free again" 0 (Mem.Buddy.used_pages b);
  Test_util.audit_clean (Check.Audit.buddy b)

let test_no_overlap () =
  let b = Mem.Buddy.create ~total_pages:256 () in
  let seen = Hashtbl.create 256 in
  let blocks = alloc_all b ~order:1 in
  List.iter
    (fun page ->
      for p = page to page + 1 do
        if Hashtbl.mem seen p then Alcotest.failf "page %d allocated twice" p;
        Hashtbl.add seen p ()
      done)
    blocks;
  Alcotest.(check int) "all pages handed out" 256 (Hashtbl.length seen);
  List.iter (fun page -> Mem.Buddy.free b ~page ~order:1) blocks;
  Alcotest.(check int) "all returned" 0 (Mem.Buddy.used_pages b);
  Test_util.audit_clean (Check.Audit.buddy b)

let test_coalescing () =
  let b = Mem.Buddy.create ~total_pages:16 ~max_order:4 () in
  (* Fill with order-0, free all, then the whole region must be allocable
     as one order-4 block again. *)
  let blocks = List.init 16 (fun _ -> alloc_exn b ~order:0) in
  Alcotest.(check int) "full" 0 (Mem.Buddy.free_pages b);
  List.iter (fun page -> Mem.Buddy.free b ~page ~order:0) blocks;
  let big = alloc_exn b ~order:4 in
  Alcotest.(check int) "coalesced to max order" 0 big;
  Mem.Buddy.free b ~page:big ~order:4;
  Test_util.audit_clean (Check.Audit.buddy b)

let test_split_accounting () =
  let b = Mem.Buddy.create ~total_pages:16 ~max_order:4 () in
  let page = alloc_exn b ~order:0 in
  Alcotest.(check int) "one page used" 1 (Mem.Buddy.used_pages b);
  Test_util.audit_clean (Check.Audit.buddy b);
  Mem.Buddy.free b ~page ~order:0;
  Test_util.audit_clean (Check.Audit.buddy b)

let test_oom () =
  let b = Mem.Buddy.create ~total_pages:8 ~max_order:3 () in
  ignore (alloc_exn b ~order:3);
  Alcotest.(check int) "exhausted" (-1) (Mem.Buddy.alloc b ~order:0);
  Alcotest.(check int) "failure counted" 1 (Mem.Buddy.failed_allocs b)

let test_double_free_rejected () =
  let b = Mem.Buddy.create ~total_pages:64 () in
  let page = alloc_exn b ~order:2 in
  Mem.Buddy.free b ~page ~order:2;
  Alcotest.check_raises "double free"
    (Invalid_argument
       (Printf.sprintf "Buddy.free: page %d is not an allocated block" page))
    (fun () -> Mem.Buddy.free b ~page ~order:2)

let test_wrong_order_rejected () =
  let b = Mem.Buddy.create ~total_pages:64 () in
  let page = alloc_exn b ~order:2 in
  Alcotest.check_raises "wrong order"
    (Invalid_argument
       (Printf.sprintf "Buddy.free: block at page %d has order 2, not 1" page))
    (fun () -> Mem.Buddy.free b ~page ~order:1);
  Alcotest.check_raises "inside the block"
    (Invalid_argument
       (Printf.sprintf "Buddy.free: page %d is not an allocated block"
          (page + 1)))
    (fun () -> Mem.Buddy.free b ~page:(page + 1) ~order:0);
  Alcotest.check_raises "past the arena"
    (Invalid_argument "Buddy.free: page 64 is not an allocated block")
    (fun () -> Mem.Buddy.free b ~page:64 ~order:0);
  Mem.Buddy.free b ~page ~order:2;
  Test_util.audit_clean (Check.Audit.buddy b)

let test_peak_tracking () =
  let b = Mem.Buddy.create ~total_pages:64 () in
  let b1 = alloc_exn b ~order:4 in
  let b2 = alloc_exn b ~order:4 in
  Mem.Buddy.free b ~page:b1 ~order:4;
  Mem.Buddy.free b ~page:b2 ~order:4;
  Alcotest.(check int) "peak" 32 (Mem.Buddy.peak_used_pages b);
  Alcotest.(check int) "used now" 0 (Mem.Buddy.used_pages b)

let test_non_power_of_two_total () =
  let b = Mem.Buddy.create ~total_pages:1000 () in
  Test_util.audit_clean (Check.Audit.buddy b);
  let blocks = alloc_all b ~order:0 in
  Alcotest.(check int) "all 1000 pages usable" 1000 (List.length blocks);
  List.iter (fun page -> Mem.Buddy.free b ~page ~order:0) blocks;
  Test_util.audit_clean (Check.Audit.buddy b)

let test_largest_free_order () =
  let b = Mem.Buddy.create ~total_pages:16 ~max_order:4 () in
  Alcotest.(check int) "whole region" 4 (Mem.Buddy.largest_free_order b);
  ignore (alloc_exn b ~order:3);
  Alcotest.(check int) "half left" 3 (Mem.Buddy.largest_free_order b);
  ignore (alloc_exn b ~order:3);
  Alcotest.(check int) "exhausted" (-1) (Mem.Buddy.largest_free_order b)

let test_injected_vs_genuine_failures () =
  let b = Mem.Buddy.create ~total_pages:8 ~max_order:3 () in
  (* A refusing hook: failures are injected, not genuine exhaustion. *)
  Mem.Buddy.set_fail_hook b (Some (fun ~order:_ -> true));
  Alcotest.(check int) "refused" (-1) (Mem.Buddy.alloc b ~order:0);
  Alcotest.(check int) "refused again" (-1) (Mem.Buddy.alloc b ~order:1);
  Alcotest.(check int) "injected counted" 2 (Mem.Buddy.injected_failures b);
  Alcotest.(check int) "genuine untouched" 0 (Mem.Buddy.failed_allocs b);
  Alcotest.(check bool) "memory was actually available" true
    (Mem.Buddy.would_satisfy b ~order:0);
  (* Hook removed: allocation works and nothing new is counted. *)
  Mem.Buddy.set_fail_hook b None;
  let page = alloc_exn b ~order:3 in
  Alcotest.(check int) "no new injected" 2 (Mem.Buddy.injected_failures b);
  (* Genuine exhaustion (no hook): failed_allocs, not injected_failures. *)
  Alcotest.(check int) "exhausted" (-1) (Mem.Buddy.alloc b ~order:0);
  Alcotest.(check int) "genuine counted" 1 (Mem.Buddy.failed_allocs b);
  Alcotest.(check int) "injected unchanged" 2 (Mem.Buddy.injected_failures b);
  Alcotest.(check bool) "nothing would satisfy" false
    (Mem.Buddy.would_satisfy b ~order:0);
  Mem.Buddy.free b ~page ~order:3;
  Test_util.audit_clean (Check.Audit.buddy b)

let test_would_satisfy_orders () =
  let b = Mem.Buddy.create ~total_pages:16 ~max_order:4 () in
  Alcotest.(check bool) "whole region free" true
    (Mem.Buddy.would_satisfy b ~order:4);
  let page = alloc_exn b ~order:3 in
  Alcotest.(check bool) "half gone: order 4 unsatisfiable" false
    (Mem.Buddy.would_satisfy b ~order:4);
  Alcotest.(check bool) "order 3 still satisfiable" true
    (Mem.Buddy.would_satisfy b ~order:3);
  Alcotest.(check bool) "smaller orders split from it" true
    (Mem.Buddy.would_satisfy b ~order:0);
  Mem.Buddy.free b ~page ~order:3

let prop_random_alloc_free =
  QCheck.Test.make ~name:"random alloc/free keeps invariants" ~count:60
    QCheck.(list (pair (int_bound 3) bool))
    (fun ops ->
      let b = Mem.Buddy.create ~total_pages:512 () in
      let held = ref [] in
      let free (page, order) = Mem.Buddy.free b ~page ~order in
      List.iter
        (fun (order, do_free) ->
          if do_free then (
            match !held with
            | blk :: rest ->
                free blk;
                held := rest
            | [] -> ())
          else
            let page = Mem.Buddy.alloc b ~order in
            if page >= 0 then held := (page, order) :: !held)
        ops;
      Test_util.audit_clean (Check.Audit.buddy b);
      List.iter free !held;
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
    Alcotest.test_case "wrong order and foreign pages rejected" `Quick
      test_wrong_order_rejected;
    Alcotest.test_case "peak tracking" `Quick test_peak_tracking;
    Alcotest.test_case "non-power-of-two total" `Quick
      test_non_power_of_two_total;
    Alcotest.test_case "largest free order" `Quick test_largest_free_order;
    Alcotest.test_case "injected vs genuine failures" `Quick
      test_injected_vs_genuine_failures;
    Alcotest.test_case "would_satisfy orders" `Quick test_would_satisfy_orders;
    QCheck_alcotest.to_alcotest prop_random_alloc_free;
  ]
