(* The profiler's two contracts: (1) a live profiler attributes wall
   time and GC allocation words to spans exactly — including across
   nesting, suspension-style unbalanced exits and per-CPU rows — and
   (2) the null profiler is a true no-op: instrumented runs with
   profiling off replay byte-identically, and the metric registry gains
   prof.* names only when a live profiler is installed. *)

module P = Prof
module S = Prof.Span

(* ------------------------------------------------------------------ *)
(* Null sink                                                           *)
(* ------------------------------------------------------------------ *)

let test_null_noop () =
  Alcotest.(check bool) "null disabled" false (P.enabled P.null);
  P.enter P.null ~cpu:0 S.Slab_alloc;
  P.exit P.null S.Slab_alloc;
  P.exit P.null S.Buddy_free;
  Alcotest.(check int) "no cells" 0 (List.length (P.cells P.null));
  Alcotest.(check int) "no totals" 0 (List.length (P.totals P.null));
  Alcotest.(check int) "no folded paths" 0 (List.length (P.folded P.null));
  Alcotest.(check (float 0.)) "no time" 0. (P.total_self_ns P.null);
  Alcotest.(check (float 0.)) "no words" 0. (P.total_minor_words P.null)

(* ------------------------------------------------------------------ *)
(* Attribution                                                         *)
(* ------------------------------------------------------------------ *)

let cell_of t span =
  List.find_opt (fun (c : P.cell) -> c.P.span = span) (P.totals t)

let test_nesting_and_rows () =
  let t = P.create ~ncpus:2 () in
  Alcotest.(check bool) "enabled" true (P.enabled t);
  for _ = 1 to 5 do
    P.enter t ~cpu:0 S.Engine_dispatch;
    P.enter t ~cpu:1 S.Rcu_qs;
    P.exit t S.Rcu_qs;
    P.exit t S.Engine_dispatch
  done;
  P.enter t ~cpu:(-1) S.Rcu_gp;
  P.exit t S.Rcu_gp;
  (match cell_of t S.Engine_dispatch with
  | None -> Alcotest.fail "dispatch cell missing"
  | Some c -> Alcotest.(check int) "dispatch calls" 5 c.P.calls);
  (match cell_of t S.Rcu_qs with
  | None -> Alcotest.fail "qs cell missing"
  | Some c ->
      Alcotest.(check int) "qs calls" 5 c.P.calls;
      Alcotest.(check bool) "incl >= self" true (c.P.incl_ns >= c.P.self_ns));
  (* Per-row cells: qs on CPU 1, gp on the global row. *)
  let row span =
    List.filter_map
      (fun (c : P.cell) -> if c.P.span = span then Some c.P.cpu else None)
      (P.cells t)
  in
  Alcotest.(check (list int)) "qs on cpu 1" [ 1 ] (row S.Rcu_qs);
  Alcotest.(check (list int)) "gp on global row" [ -1 ] (row S.Rcu_gp);
  (* Folded paths intern parent;child with root-first joining. *)
  let folded = P.folded t in
  Alcotest.(check bool) "nested path present" true
    (List.mem_assoc "engine.dispatch;rcu.qs" folded);
  Alcotest.(check (option int)) "nested path weight" (Some 5)
    (List.assoc_opt "engine.dispatch;rcu.qs" folded);
  Alcotest.(check int) "truncated" 0 (P.truncated t);
  Alcotest.(check int) "dropped exits" 0 (P.dropped_exits t)

let test_alloc_exactness () =
  let t = P.create ~ncpus:1 () in
  let sink = ref [||] in
  for _ = 1 to 1_000 do
    (* Empty inner span nested in an allocating outer span: the probe
       compensation must keep the inner span at zero words while the
       outer sees exactly its own 9-word array (8 slots + header). *)
    P.enter t ~cpu:0 S.Buddy_alloc;
    P.enter t ~cpu:0 S.Buddy_free;
    P.exit t S.Buddy_free;
    sink := Sys.opaque_identity (Array.make 8 0);
    P.exit t S.Buddy_alloc
  done;
  ignore (Sys.opaque_identity !sink);
  let words span =
    match cell_of t span with
    | None -> Alcotest.failf "missing cell %s" (S.name span)
    | Some c -> c.P.self_minor_words /. float_of_int c.P.calls
  in
  (* Attribution is word-exact modulo calibration residue; allow < 1
     word per call of slack against compiler-version codegen noise. *)
  Alcotest.(check bool) "outer sees its 9 words" true
    (Float.abs (words S.Buddy_alloc -. 9.) < 1.);
  Alcotest.(check bool) "empty inner span sees ~0 words" true
    (Float.abs (words S.Buddy_free) < 1.)

(* Native code keeps the minor-heap pointer in a register and writes it
   back only on a C call or a GC entry, so a probe that reads it without
   a real C call sees a stale value. Then a span that allocates inline
   (no C call of its own) reads ~0 words, and the words land on the
   next span that makes an allocating C call. Each span here must see
   exactly its own allocation: 100 conses (300 words), and the 2-word
   float the sibling boxes. *)
let test_inline_alloc_attribution () =
  let t = P.create ~ncpus:1 () in
  let rec cons n acc = if n = 0 then acc else cons (n - 1) (n :: acc) in
  let sink = ref [] and fsink = ref 0. in
  for _ = 1 to 1_000 do
    P.enter t ~cpu:0 S.Buddy_alloc;
    sink := Sys.opaque_identity (cons 100 []);
    P.exit t S.Buddy_alloc;
    P.enter t ~cpu:0 S.Buddy_free;
    fsink := Sys.opaque_identity (Gc.minor_words ());
    P.exit t S.Buddy_free
  done;
  ignore (Sys.opaque_identity (!sink, !fsink));
  let words span =
    match cell_of t span with
    | None -> Alcotest.failf "missing cell %s" (S.name span)
    | Some c -> c.P.self_minor_words /. float_of_int c.P.calls
  in
  Alcotest.(check bool)
    (Printf.sprintf "inline consing sees its 300 words (got %.1f)"
       (words S.Buddy_alloc))
    true
    (Float.abs (words S.Buddy_alloc -. 300.) < 1.);
  Alcotest.(check bool)
    (Printf.sprintf "C-call sibling sees its 2-word float (got %.1f)"
       (words S.Buddy_free))
    true
    (Float.abs (words S.Buddy_free -. 2.) < 1.)

let test_unwind_and_orphan_exits () =
  let t = P.create ~ncpus:1 () in
  (* A suspended process abandons Slab_grow; the enclosing dispatch
     exit must unwind it rather than corrupt the stack. *)
  P.enter t ~cpu:0 S.Engine_dispatch;
  P.enter t ~cpu:0 S.Slab_grow;
  P.exit t S.Engine_dispatch;
  (* The resumed process's own exit then matches nothing. *)
  P.exit t S.Slab_grow;
  Alcotest.(check int) "one orphan exit" 1 (P.dropped_exits t);
  (match cell_of t S.Slab_grow with
  | None -> Alcotest.fail "grow cell missing"
  | Some c -> Alcotest.(check int) "grow still counted once" 1 c.P.calls);
  (* The stack is clean: a fresh balanced pair still pairs up. *)
  P.enter t ~cpu:0 S.Slab_alloc;
  P.exit t S.Slab_alloc;
  Alcotest.(check int) "no further orphans" 1 (P.dropped_exits t)

let test_reset () =
  let t = P.create ~ncpus:1 () in
  P.enter t ~cpu:0 S.Slab_alloc;
  P.exit t S.Slab_alloc;
  Alcotest.(check bool) "has cells" true (P.totals t <> []);
  P.reset t;
  Alcotest.(check int) "reset clears totals" 0 (List.length (P.totals t));
  Alcotest.(check int) "reset clears paths" 0 (List.length (P.folded t));
  P.enter t ~cpu:0 S.Slab_alloc;
  P.exit t S.Slab_alloc;
  Alcotest.(check int) "usable after reset" 1 (List.length (P.totals t))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_enum () =
  Alcotest.(check int) "all spans" S.count (List.length S.all);
  List.iteri
    (fun i s -> Alcotest.(check int) "index round-trip" i (S.index s))
    S.all;
  List.iter
    (fun s ->
      let sub = S.subsystem s in
      Alcotest.(check bool)
        (Printf.sprintf "subsystem %s listed" sub)
        true
        (List.mem sub S.subsystems))
    S.all

(* ------------------------------------------------------------------ *)
(* Replay acceptance: profiling off must not perturb the simulation,   *)
(* and profiling on must not perturb the deterministic counters.       *)
(* ------------------------------------------------------------------ *)

let small_params =
  {
    Core.Experiments.default_params with
    Core.Experiments.scale = 0.01;
    cpus = 2;
  }

let registry_table env =
  let r = Stats.Registry.create () in
  Stats.Providers.register_env r env;
  Stats.Registry.table r

let test_replay_identical () =
  let run prof =
    let env, updates =
      Wallclock.run_once ~prof small_params Wallclock.Endurance
        Workloads.Env.Prudence_alloc
    in
    (Wallclock.counters_of env updates, registry_table env)
  in
  let c_off1, table_off1 = run P.null in
  let c_off2, table_off2 = run P.null in
  Alcotest.(check bool) "prof-off counters replay-stable" true
    (c_off1 = c_off2);
  Alcotest.(check string) "prof-off registry byte-identical" table_off1
    table_off2;
  let c_on, _table_on = run (P.create ~ncpus:2 ()) in
  Alcotest.(check bool) "prof-on counters equal prof-off" true
    (c_off1 = c_on)

let suite =
  [
    Alcotest.test_case "null profiler is a no-op" `Quick test_null_noop;
    Alcotest.test_case "nesting, rows and folded paths" `Quick
      test_nesting_and_rows;
    Alcotest.test_case "allocation attribution is word-exact" `Quick
      test_alloc_exactness;
    Alcotest.test_case "inline allocation charged to its own span" `Quick
      test_inline_alloc_attribution;
    Alcotest.test_case "unbalanced exits unwind safely" `Quick
      test_unwind_and_orphan_exits;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "span enum closed over subsystems" `Quick
      test_span_enum;
    Alcotest.test_case "replay: prof off is byte-identical, prof on \
                        preserves counters" `Slow test_replay_identical;
  ]
