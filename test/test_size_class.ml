module Sc = Slab.Size_class

let test_kmalloc_class_rounds_up () =
  Alcotest.(check int) "1 -> 8" 8 (Sc.kmalloc_class 1);
  Alcotest.(check int) "8 -> 8" 8 (Sc.kmalloc_class 8);
  Alcotest.(check int) "9 -> 16" 16 (Sc.kmalloc_class 9);
  Alcotest.(check int) "65 -> 96" 96 (Sc.kmalloc_class 65);
  Alcotest.(check int) "100 -> 128" 128 (Sc.kmalloc_class 100);
  Alcotest.(check int) "4096 -> 4096" 4096 (Sc.kmalloc_class 4096);
  Alcotest.(check int) "8192 -> 8192" 8192 (Sc.kmalloc_class 8192)

let test_kmalloc_class_rejects () =
  (try
     ignore (Sc.kmalloc_class 0);
     Alcotest.fail "expected reject for 0"
   with Invalid_argument _ -> ());
  try
    ignore (Sc.kmalloc_class 8193);
    Alcotest.fail "expected reject for oversize"
  with Invalid_argument _ -> ()

let test_cache_name () =
  Alcotest.(check string) "name" "kmalloc-64" (Sc.kmalloc_cache_name 60)

let test_slab_order_monotone () =
  let prev = ref (-1) in
  Array.iter
    (fun size ->
      let o = Sc.slab_order ~obj_size:size ~page_size:4096 in
      Alcotest.(check bool) "order in range" true (o >= 0 && o <= 3);
      Alcotest.(check bool) "order monotone" true (o >= !prev);
      prev := o)
    Sc.kmalloc_sizes

let test_slab_order_small_objects_order0 () =
  Alcotest.(check int) "64B order 0" 0 (Sc.slab_order ~obj_size:64 ~page_size:4096);
  Alcotest.(check int) "4096B capped at 3" 3
    (Sc.slab_order ~obj_size:4096 ~page_size:4096)

let test_objs_per_slab () =
  Alcotest.(check int) "64B order0" 64
    (Sc.objs_per_slab ~obj_size:64 ~page_size:4096 ~order:0);
  Alcotest.(check int) "4096B order3" 8
    (Sc.objs_per_slab ~obj_size:4096 ~page_size:4096 ~order:3);
  Alcotest.(check int) "at least one" 1
    (Sc.objs_per_slab ~obj_size:9000 ~page_size:4096 ~order:0)

let test_object_cache_capacity_decreasing () =
  let prev = ref max_int in
  Array.iter
    (fun size ->
      let c = Sc.object_cache_capacity ~obj_size:size in
      Alcotest.(check bool) "positive" true (c > 0);
      Alcotest.(check bool)
        (Printf.sprintf "capacity non-increasing at %d" size)
        true (c <= !prev);
      prev := c)
    Sc.kmalloc_sizes;
  (* the Fig. 6 driver: large objects have few cached objects *)
  Alcotest.(check bool) "4096 much smaller than 64" true
    (Sc.object_cache_capacity ~obj_size:4096 * 4
    < Sc.object_cache_capacity ~obj_size:64)

let test_batch_count () =
  Alcotest.(check int) "half" 60 (Sc.batch_count ~capacity:120);
  Alcotest.(check int) "at least one" 1 (Sc.batch_count ~capacity:1)

let test_costs_ratios () =
  (* Full-path arithmetic for a 512-byte cache (order-1 slabs, batch 15),
     matching what the `costs` experiment measures. *)
  let c = Slab.Costs.default in
  let open Slab.Costs in
  let refill_path = c.hit + c.node_lock_hold + c.refill + (15 * c.refill_per_obj) in
  let ratio = float_of_int refill_path /. float_of_int c.hit in
  Alcotest.(check bool)
    (Printf.sprintf "refill ~4x hit (%.1f)" ratio)
    true
    (ratio >= 3.0 && ratio <= 6.0);
  let cold = c.cold_touch + (512 / 256 * c.cold_touch_per_256b) in
  let page = c.page_lock_hold + (2 * c.page_zero_per_page) in
  let grow_path = refill_path + c.node_lock_hold + c.grow + page + cold in
  let gratio = float_of_int grow_path /. float_of_int c.hit in
  Alcotest.(check bool)
    (Printf.sprintf "grow ~14x hit (%.1f)" gratio)
    true
    (gratio >= 10.0 && gratio <= 20.0)

let suite =
  [
    Alcotest.test_case "kmalloc class rounds up" `Quick
      test_kmalloc_class_rounds_up;
    Alcotest.test_case "kmalloc class rejects" `Quick test_kmalloc_class_rejects;
    Alcotest.test_case "cache name" `Quick test_cache_name;
    Alcotest.test_case "slab order monotone" `Quick test_slab_order_monotone;
    Alcotest.test_case "slab order extremes" `Quick
      test_slab_order_small_objects_order0;
    Alcotest.test_case "objs per slab" `Quick test_objs_per_slab;
    Alcotest.test_case "object cache capacity decreasing" `Quick
      test_object_cache_capacity_decreasing;
    Alcotest.test_case "batch count" `Quick test_batch_count;
    Alcotest.test_case "cost model ratios (4x / 14x)" `Quick test_costs_ratios;
  ]
