(* Cross-cutting property-based tests on the synchronization core. *)

open Test_util
module W = Workloads

(* The fundamental RCU contract: a callback enqueued at time T runs only
   after every read-side critical section active at T has ended. Random
   reader schedules + random enqueue points must never violate it. *)
let prop_callback_waits_for_overlapping_readers =
  QCheck.Test.make ~name:"call_rcu waits for all overlapping readers"
    ~count:60
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 6)
           (pair (int_bound 5_000_000) (int_bound 8_000_000)))
        (int_bound 6_000_000))
    (fun (readers, enqueue_at) ->
      let env = make_env ~cpus:4 () in
      (* Reader i runs on cpu (i mod 3) + 1; the enqueue happens on cpu0. *)
      let violations = ref [] in
      let reader_windows = ref [] in
      List.iteri
        (fun i (start, len) ->
          let cpu = cpu env (1 + (i mod 3)) in
          Sim.Process.spawn env.eng (fun () ->
              Sim.Process.sleep env.eng start;
              Rcu.read_lock env.rcu cpu;
              let entered = Sim.Engine.now env.eng in
              Sim.Process.sleep env.eng (1 + len);
              Rcu.read_unlock env.rcu cpu;
              reader_windows :=
                (entered, Sim.Engine.now env.eng) :: !reader_windows))
        readers;
      let invoked_at = ref None in
      ignore
        (Sim.Engine.schedule env.eng ~after:enqueue_at (fun () ->
             Rcu.call_rcu env.rcu (cpu0 env) (fun () ->
                 invoked_at := Some (Sim.Engine.now env.eng))));
      Sim.Engine.run_until_quiet ~horizon:(Sim.Clock.s 2) env.eng;
      Sim.Engine.run ~until:(Sim.Clock.s 2) env.eng;
      (match !invoked_at with
      | None -> violations := "callback never ran" :: !violations
      | Some t ->
          List.iter
            (fun (entered, exited) ->
              (* overlapping: the section was active when the callback was
                 enqueued *)
              if entered <= enqueue_at && exited >= enqueue_at && t < exited
              then
                violations :=
                  Printf.sprintf
                    "callback at %d inside overlapping section [%d, %d]" t
                    entered exited
                  :: !violations)
            !reader_windows);
      !violations = [])

(* Rculist against a model association list. *)
let prop_rculist_matches_model =
  QCheck.Test.make ~name:"rculist behaves like an association list" ~count:60
    QCheck.(list (pair (int_bound 3) (int_bound 15)))
    (fun ops ->
      let env = make_env ~cpus:2 () in
      let readers = Rcu.Readers.create env.rcu in
      let backend = Prudence.backend (Prudence.create env.fenv env.rcu) in
      let cache =
        backend.Slab.Backend.create_cache ~name:"model" ~obj_size:64
      in
      let l = Rcudata.Rculist.create ~backend ~readers ~cache ~name:"m" in
      let c = cpu0 env in
      let model = ref [] in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 ->
              if Rcudata.Rculist.insert l c ~key:k ~value:k then
                model := (k, k) :: !model
          | 1 -> (
              match Rcudata.Rculist.update l c ~key:k ~value:(k * 2) with
              | `Updated ->
                  let rec upd = function
                    | [] -> []
                    | (k', _) :: rest when k' = k -> (k, k * 2) :: rest
                    | kv :: rest -> kv :: upd rest
                  in
                  model := upd !model
              | `Absent | `Oom -> ())
          | 2 ->
              if Rcudata.Rculist.delete l c ~key:k then begin
                let rec del = function
                  | [] -> []
                  | (k', _) :: rest when k' = k -> rest
                  | kv :: rest -> kv :: del rest
                in
                model := del !model
              end
          | _ -> (
              let got = Rcudata.Rculist.lookup l c ~key:k in
              let expect = List.assoc_opt k !model in
              if got <> expect then raise Exit))
        ops;
      List.length !model = Rcudata.Rculist.length l
      && List.for_all
           (fun (k, v) -> Rcudata.Rculist.lookup l c ~key:k = Some v)
           (* newest-shadows semantics: only check keys whose first binding
              is this one *)
           (List.filteri
              (fun i (k, _) ->
                not (List.exists (fun (k', _) -> k' = k)
                       (List.filteri (fun j _ -> j < i) !model)))
              !model))

(* NUMA: objects always return to their home node's slabs, wherever they
   are freed, and accounting stays exact with multiple nodes. *)
let test_numa_objects_return_home () =
  let env = make_env ~cpus:4 ~nodes:2 () in
  let slub = Slab.Slub.create env.fenv env.rcu in
  let cache = Slab.Slub.create_cache slub ~name:"numa" ~obj_size:512 in
  let c_node0 = cpu env 0 and c_node1 = cpu env 3 in
  Alcotest.(check int) "cpu0 on node0" 0 c_node0.Sim.Machine.node;
  Alcotest.(check int) "cpu3 on node1" 1 c_node1.Sim.Machine.node;
  (* Allocate enough on node 0 to go through several slabs. *)
  let objs =
    List.init 100 (fun _ ->
        Option.get (Slab.Slub.alloc slub cache c_node0))
  in
  List.iter
    (fun (o : Slab.Frame.objekt) ->
      Alcotest.(check int) "slab homed on node0" 0 o.Slab.Frame.parent.Slab.Frame.node_id)
    objs;
  (* Free them all from a node-1 CPU: flushes must route each object back
     to its node-0 slab. *)
  List.iter (Slab.Slub.free slub cache c_node1) objs;
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache);
  let node0 = cache.Slab.Frame.nodes.(0) and node1 = cache.Slab.Frame.nodes.(1) in
  let slabs_on n =
    n.Slab.Frame.full.Slab.Frame.len
    + n.Slab.Frame.partial.Slab.Frame.len
    + n.Slab.Frame.free_slabs.Slab.Frame.len
  in
  Alcotest.(check bool) "node0 owns the slabs" true (slabs_on node0 > 0);
  Alcotest.(check int) "node1 owns none" 0 (slabs_on node1);
  (* The freeing CPU's object cache legitimately retains some node-0
     objects; once those are consumed, a fresh allocation on node 1 must
     grow a node-1 slab (node lists are not shared). *)
  let pc = Slab.Frame.pcpu_for cache c_node1 in
  let leftovers = pc.Slab.Frame.ocache_n in
  let later =
    List.init (leftovers + 1) (fun _ ->
        Option.get (Slab.Slub.alloc slub cache c_node1))
  in
  let last = List.nth later leftovers in
  Alcotest.(check int) "new slab homed on node1" 1
    last.Slab.Frame.parent.Slab.Frame.node_id;
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_numa_prudence_latent_per_node () =
  let env = make_env ~cpus:4 ~nodes:2 () in
  let pr = Prudence.create env.fenv env.rcu in
  let cache = Prudence.create_cache pr ~name:"numa-l" ~obj_size:512 in
  let c0 = cpu env 0 and c3 = cpu env 3 in
  (* Push deferred objects past the latent-cache bound so they land in
     latent slabs; the latent-slab lists are per node. *)
  let alloc_on c n =
    List.init n (fun _ -> Option.get (Prudence.alloc pr ~may_wait:false cache c))
  in
  let a = alloc_on c0 80 and b = alloc_on c3 80 in
  List.iter (Prudence.free_deferred pr cache c0) a;
  List.iter (Prudence.free_deferred pr cache c3) b;
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache);
  let lat n =
    cache.Slab.Frame.nodes.(n).Slab.Frame.latent_slabs.Slab.Frame.len
  in
  Alcotest.(check bool) "latent slabs on both nodes" true
    (lat 0 > 0 && lat 1 > 0);
  (* After grace periods + settle everything reclaims. *)
  let finished = run_process env (fun () -> Prudence.settle pr) in
  check_completed "settle" finished;
  Alcotest.(check int) "all recycled" 0 (Prudence.latent_outstanding pr);
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

(* Buddy allocator: any interleaving of alloc / free / would_satisfy
   keeps the block sets tiling the arena exactly (coverage, no overlap,
   split/merge conservation — delegated to the [Check.Audit] walker), and
   [would_satisfy] answers exactly as a real allocation would. *)
let prop_buddy_coverage_and_conservation =
  QCheck.Test.make ~name:"buddy: coverage + conservation under random ops"
    ~count:80
    QCheck.(list_of_size Gen.(1 -- 60) (pair bool (int_bound 3)))
    (fun ops ->
      let b = Mem.Buddy.create ~total_pages:64 () in
      let held = ref [] in
      let step (want_alloc, order) =
        (if want_alloc || !held = [] then begin
           let promised = Mem.Buddy.would_satisfy b ~order in
           match Mem.Buddy.alloc b ~order with
           | Some blk ->
               if not promised then raise Exit;
               held := blk :: !held
           | None -> if promised then raise Exit
         end
         else
           match !held with
           | blk :: rest ->
               Mem.Buddy.free b blk;
               held := rest
           | [] -> ());
        Check.Audit.buddy b = []
      in
      List.for_all step ops
      &&
      begin
        (* Conservation end state: freeing everything re-merges the whole
           arena into max-order blocks. *)
        List.iter (Mem.Buddy.free b) !held;
        Check.Audit.buddy b = []
        && Mem.Buddy.used_pages b = 0
        && Mem.Buddy.would_satisfy b ~order:(Mem.Buddy.largest_free_order b)
      end)

(* Segmented callback list: segment counts always sum, and no callback is
   ever lost or double-invoked across random enqueue / advance / drain
   interleavings. *)
let prop_cblist_conserves_callbacks =
  QCheck.Test.make ~name:"cblist: no callback lost across GP advance"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) (pair (int_bound 2) (int_bound 3)))
    (fun ops ->
      let cbl = Rcu.Cblist.create () in
      let enqueued = ref 0 and invoked = ref 0 and taken = ref 0 in
      let cookie = ref 1 and completed = ref 0 in
      let step (op, arg) =
        (match op with
        | 0 ->
            (* Enqueue with a non-decreasing cookie. *)
            cookie := !cookie + arg;
            incr enqueued;
            Rcu.Cblist.enqueue cbl ~cookie:!cookie (fun () -> incr invoked)
        | 1 ->
            completed := !completed + arg;
            ignore (Rcu.Cblist.advance cbl ~completed:!completed)
        | _ ->
            let n = Rcu.Cblist.drain cbl ~max:(1 + arg) ~f:(fun f -> f ()) in
            taken := !taken + n);
        Rcu.Cblist.waiting cbl + Rcu.Cblist.ready cbl = Rcu.Cblist.total cbl
        && Rcu.Cblist.total cbl + !taken = !enqueued
        && !invoked = !taken
      in
      List.for_all step ops
      &&
      begin
        (* Drain completely: everything enqueued must run exactly once. *)
        ignore (Rcu.Cblist.advance cbl ~completed:max_int);
        ignore (Rcu.Cblist.drain cbl ~max:max_int ~f:(fun f -> f ()));
        !invoked = !enqueued && Rcu.Cblist.total cbl = 0
      end)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_callback_waits_for_overlapping_readers;
    QCheck_alcotest.to_alcotest prop_rculist_matches_model;
    QCheck_alcotest.to_alcotest prop_buddy_coverage_and_conservation;
    QCheck_alcotest.to_alcotest prop_cblist_conserves_callbacks;
    Alcotest.test_case "numa: objects return home" `Quick
      test_numa_objects_return_home;
    Alcotest.test_case "numa: prudence latent per node" `Quick
      test_numa_prudence_latent_per_node;
  ]
