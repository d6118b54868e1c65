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
      Sim.Engine.schedule env.eng ~after:enqueue_at (fun () ->
          Rcu.call_rcu env.rcu (cpu0 env)
            (fun _ _ -> invoked_at := Some (Sim.Engine.now env.eng))
            0);
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
        Slab.Slub.alloc slub cache c_node0)
  in
  List.iter
    (fun (o : Slab.Frame.objekt) ->
      Alcotest.(check int) "slab homed on node0" 0
        (Slab.Frame.node_id cache (Slab.Frame.parent cache o)))
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
        Slab.Slub.alloc slub cache c_node1)
  in
  let last = List.nth later leftovers in
  Alcotest.(check int) "new slab homed on node1" 1
    (Slab.Frame.node_id cache (Slab.Frame.parent cache last));
  audit_clean (Check.Audit.slab ~rcu:env.rcu cache)

let test_numa_prudence_latent_per_node () =
  let env = make_env ~cpus:4 ~nodes:2 () in
  let pr = Prudence.create env.fenv env.rcu in
  let cache = Prudence.create_cache pr ~name:"numa-l" ~obj_size:512 in
  let c0 = cpu env 0 and c3 = cpu env 3 in
  (* Push deferred objects past the latent-cache bound so they land in
     latent slabs; the latent-slab lists are per node. *)
  let alloc_on c n =
    List.init n (fun _ -> Prudence.alloc pr ~may_wait:false cache c)
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
      let free (page, order) = Mem.Buddy.free b ~page ~order in
      let step (want_alloc, order) =
        (if want_alloc || !held = [] then begin
           let promised = Mem.Buddy.would_satisfy b ~order in
           let page = Mem.Buddy.alloc b ~order in
           if page >= 0 <> promised then raise Exit;
           if page >= 0 then held := (page, order) :: !held
         end
         else
           match !held with
           | blk :: rest ->
               free blk;
               held := rest
           | [] -> ());
        Check.Audit.buddy b = []
      in
      List.for_all step ops
      &&
      begin
        (* Conservation end state: freeing everything re-merges the whole
           arena into max-order blocks. *)
        List.iter free !held;
        Check.Audit.buddy b = []
        && Mem.Buddy.used_pages b = 0
        && Mem.Buddy.would_satisfy b ~order:(Mem.Buddy.largest_free_order b)
      end)

(* The buddy against a list model of its pick rule. Each order keeps its
   free blocks most recently inserted first. An allocation takes the
   front block of the smallest order that fits and pushes the upper
   halves it splits off; a free unlinks a free buddy and merges with it,
   repeatedly, then pushes the result. *)
module Buddy_model = struct
  type t = {
    max_order : int;
    free : int list array;
    mutable held : (int * int) list;  (* allocated (page, order) *)
    mutable used : int;
    mutable peak : int;
    mutable allocs : int;
    mutable frees : int;
    mutable failures : int;
  }

  let push t order page = t.free.(order) <- page :: t.free.(order)

  (* Carve the arena into the largest aligned blocks that fit. *)
  let create ~total ~max_order =
    let t =
      {
        max_order;
        free = Array.make (max_order + 1) [];
        held = [];
        used = 0;
        peak = 0;
        allocs = 0;
        frees = 0;
        failures = 0;
      }
    in
    let rec carve page =
      if page < total then begin
        let rec fit o =
          if
            o > 0
            && (page land ((1 lsl o) - 1) <> 0 || page + (1 lsl o) > total)
          then fit (o - 1)
          else o
        in
        let o = fit max_order in
        push t o page;
        carve (page + (1 lsl o))
      end
    in
    carve 0;
    t

  let alloc t ~order =
    let rec find o =
      if o > t.max_order then None
      else
        match t.free.(o) with
        | page :: rest ->
            t.free.(o) <- rest;
            Some (page, o)
        | [] -> find (o + 1)
    in
    match find order with
    | None ->
        t.failures <- t.failures + 1;
        -1
    | Some (page, o) ->
        for h = o - 1 downto order do
          push t h (page + (1 lsl h))
        done;
        t.held <- (page, order) :: t.held;
        t.used <- t.used + (1 lsl order);
        t.peak <- max t.peak t.used;
        t.allocs <- t.allocs + 1;
        page

  let rec coalesce t page order =
    let buddy = page lxor (1 lsl order) in
    if order < t.max_order && List.mem buddy t.free.(order) then begin
      t.free.(order) <- List.filter (( <> ) buddy) t.free.(order);
      coalesce t (min page buddy) (order + 1)
    end
    else push t order page

  (* [None], or the message the allocator must raise. *)
  let free t ~page ~order =
    match List.assoc_opt page t.held with
    | Some o when o = order ->
        t.held <- List.remove_assoc page t.held;
        t.used <- t.used - (1 lsl order);
        t.frees <- t.frees + 1;
        coalesce t page order;
        None
    | Some o ->
        Some
          (Printf.sprintf "Buddy.free: block at page %d has order %d, not %d"
             page o order)
    | None ->
        Some
          (Printf.sprintf "Buddy.free: page %d is not an allocated block" page)

  let blocks t =
    let free o l = List.map (fun p -> (p, o, true)) l in
    List.sort compare
      (List.map (fun (p, o) -> (p, o, false)) t.held
      @ List.concat (Array.to_list (Array.mapi free t.free)))
end

(* Random programs on a 1,000-page arena with max_order 5: allocations
   of orders 0-3, frees of held blocks, and frees of random pages (most
   of them invalid). After each step the returned page or -1, the raised
   message, the block listing, the five counters, [would_satisfy] at
   every order and [largest_free_order] must match the model. *)
let prop_buddy_matches_model =
  QCheck.Test.make ~name:"buddy: LIFO pick rule matches a list model"
    ~count:200
    QCheck.(
      list_of_size Gen.(1 -- 400)
        (triple (int_bound 9) (int_bound 1023) (int_bound 3)))
    (fun ops ->
      let total = 1000 and max_order = 5 in
      let b = Mem.Buddy.create ~max_order ~total_pages:total () in
      let m = Buddy_model.create ~total ~max_order in
      let free ~page ~order =
        let expect = Buddy_model.free m ~page ~order in
        match Mem.Buddy.free b ~page ~order with
        | () -> expect = None
        | exception Invalid_argument msg -> expect = Some msg
      in
      let same_state () =
        Mem.Buddy.blocks b = Buddy_model.blocks m
        && Mem.Buddy.used_pages b = m.used
        && Mem.Buddy.peak_used_pages b = m.peak
        && Mem.Buddy.alloc_count b = m.allocs
        && Mem.Buddy.free_count b = m.frees
        && Mem.Buddy.failed_allocs b = m.failures
        && Mem.Buddy.largest_free_order b
           = List.fold_left
               (fun acc (_, o, is_free) -> if is_free then max acc o else acc)
               (-1) (Buddy_model.blocks m)
        && List.for_all
             (fun order ->
               Mem.Buddy.would_satisfy b ~order
               = Array.exists (fun l -> l <> [])
                   (Array.sub m.free order (max_order + 1 - order)))
             (List.init (max_order + 1) Fun.id)
      in
      List.for_all
        (fun (kind, a, order) ->
          (match (kind, m.held) with
          | (5 | 6 | 7 | 8), (_ :: _ as held) ->
              let page, order = List.nth held (a mod List.length held) in
              free ~page ~order
          | 9, _ -> free ~page:a ~order
          | _ -> Mem.Buddy.alloc b ~order = Buddy_model.alloc m ~order)
          && same_state ())
        ops)

(* The callback ring against a list model: random enqueue bursts,
   advances, drains and drains whose callbacks enqueue more. Bursts of up
   to 8 grow the ring past 16 and 32 while it holds entries, usually
   wrapped. Every callback runs exactly once, in enqueue order; a drain
   invokes exactly the model's ready prefix, capped by its [max], so
   callbacks enqueued from inside a drain wait for a later pass; the
   ready and waiting counts match the model after every step. *)
let prop_cblist_conserves_callbacks =
  QCheck.Test.make ~name:"cblist: no callback lost across GP advance"
    ~count:200
    QCheck.(list_of_size Gen.(1 -- 60) (pair (int_bound 3) (int_bound 7)))
    (fun ops ->
      let cbl = Rcu.Cblist.create () in
      (* The model: (id, cookie) in enqueue order, the first [ready] of
         them invocable. *)
      let model = Queue.create () and ready = ref 0 in
      let ran = ref [] and next_id = ref 0 in
      let cookie = ref 1 and completed = ref 0 in
      let rec enqueue ~nested =
        let id = !next_id in
        incr next_id;
        Queue.push (id, !cookie) model;
        Rcu.Cblist.enqueue cbl ~cookie:!cookie
          (fun () id ->
            ran := id :: !ran;
            if nested then enqueue ~nested:false)
          id
      in
      let drain ~max =
        let n = min max !ready in
        let expected = List.init n (fun _ -> fst (Queue.pop model)) in
        ready := !ready - n;
        ran := [];
        let drained = Rcu.Cblist.drain cbl ~max () in
        drained = n && List.rev !ran = expected
      in
      let step (op, arg) =
        let ok =
          match op with
          | 0 | 3 ->
              (* A burst with a non-decreasing cookie. *)
              cookie := !cookie + (arg mod 3);
              for _ = 0 to arg do
                enqueue ~nested:(arg mod 2 = 1)
              done;
              true
          | 1 ->
              completed := !completed + (arg mod 3);
              let moved = Rcu.Cblist.advance cbl ~completed:!completed in
              let before = !ready and i = ref 0 in
              Queue.iter
                (fun (_, c) ->
                  if !i = !ready && c <= !completed then incr ready;
                  incr i)
                model;
              moved = !ready - before
          | _ -> drain ~max:(1 + arg)
        in
        ok
        && Rcu.Cblist.ready cbl = !ready
        && Rcu.Cblist.total cbl = Queue.length model
        && Rcu.Cblist.waiting cbl + Rcu.Cblist.ready cbl = Rcu.Cblist.total cbl
      in
      List.for_all step ops
      &&
      begin
        (* Drain completely: what is left runs once, in enqueue order,
           and nested enqueues run on the next pass. *)
        let rec flush () =
          ignore (Rcu.Cblist.advance cbl ~completed:max_int);
          ready := Queue.length model;
          Queue.is_empty model || (drain ~max:max_int && flush ())
        in
        flush () && Rcu.Cblist.total cbl = 0
      end)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_callback_waits_for_overlapping_readers;
    QCheck_alcotest.to_alcotest prop_rculist_matches_model;
    QCheck_alcotest.to_alcotest prop_buddy_coverage_and_conservation;
    QCheck_alcotest.to_alcotest prop_buddy_matches_model;
    QCheck_alcotest.to_alcotest prop_cblist_conserves_callbacks;
    Alcotest.test_case "numa: objects return home" `Quick
      test_numa_objects_return_home;
    Alcotest.test_case "numa: prudence latent per node" `Quick
      test_numa_prudence_latent_per_node;
  ]
