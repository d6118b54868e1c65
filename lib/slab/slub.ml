type t = {
  env : Frame.env;
  rcu : Rcu.t;
  by_name : (string, Frame.cache) Hashtbl.t;
  mutable caches : Frame.cache list;  (* newest first (insertion order) *)
  reclaim : Sim.Machine.cpu -> int -> unit;
      (* The deferred-free callback, made once: its payload is the
         object's handle, and the handle names the cache. *)
}

let env t = t.env
let rcu t = t.rcu

let create_cache t ~name ~obj_size =
  match Hashtbl.find_opt t.by_name name with
  | Some c -> c
  | None ->
      let c = Frame.create_cache t.env ~name ~obj_size () in
      Hashtbl.replace t.by_name name c;
      t.caches <- c :: t.caches;
      c

let charge (cpu : Sim.Machine.cpu) ns = Sim.Machine.consume cpu ns

let alloc_inner (cache : Frame.cache) cpu =
  let costs = Costs.default in
  let pc = Frame.pcpu_for cache cpu in
  Slab_stats.alloc cache.Frame.stats;
  charge cpu costs.Costs.hit;
  if pc.Frame.ocache_n > 0 then Frame.alloc_hit cache cpu pc
  else begin
      Slab_stats.miss cache.Frame.stats;
      Frame.event cache cpu Alloc_miss 0;
      if
        Frame.refill_from_node cache cpu ~want:cache.Frame.batch
          ~select:Frame.select_slub
        = 0
      then
        ignore
          (match Frame.grow cache cpu with
          | _slab ->
              Frame.refill_from_node cache cpu ~want:cache.Frame.batch
                ~select:Frame.select_slub
          | exception Frame.Oom -> 0);
      if pc.Frame.ocache_n > 0 then begin
        let obj = Frame.pop_ocache_exn pc in
        Frame.hand_to_user cache cpu obj;
        obj
      end
      else raise_notrace Frame.Oom
  end

(* A failed allocation is priced and its span closed like a successful
   one; the handler only does that, then passes [Oom] on. *)
let alloc (_ : t) (cache : Frame.cache) (cpu : Sim.Machine.cpu) =
  Prof.enter (Frame.prof cache) ~cpu:cpu.Sim.Machine.id Prof.Span.Slab_alloc;
  let pend0 = cpu.Sim.Machine.pending_ns in
  match alloc_inner cache cpu with
  | obj ->
      Frame.event cache cpu Alloc_cost (cpu.Sim.Machine.pending_ns - pend0);
      Prof.exit (Frame.prof cache) Prof.Span.Slab_alloc;
      obj
  | exception Frame.Oom ->
      Frame.event cache cpu Alloc_cost (cpu.Sim.Machine.pending_ns - pend0);
      Prof.exit (Frame.prof cache) Prof.Span.Slab_alloc;
      raise_notrace Frame.Oom

(* The reclamation path shared by immediate frees and RCU callbacks. *)
let release (cache : Frame.cache) cpu obj =
  let costs = Costs.default in
  let pc = Frame.pcpu_for cache cpu in
  charge cpu costs.Costs.free_to_cache;
  Frame.push_ocache cache pc obj;
  if pc.Frame.ocache_n > cache.Frame.ocache_cap then
    (* Overflow: flush half the object cache (§3.3). *)
    Frame.flush_to_node cache cpu
      ~count:(pc.Frame.ocache_n - (cache.Frame.ocache_cap / 2))

let free (_ : t) cache cpu obj =
  Prof.enter (Frame.prof cache) ~cpu:cpu.Sim.Machine.id Prof.Span.Slab_free;
  Slab_stats.free cache.Frame.stats;
  Frame.release_from_user cache cpu obj;
  release cache cpu obj;
  Prof.exit (Frame.prof cache) Prof.Span.Slab_free

let reclaim env cpu payload =
  let obj = Frame.of_int env payload in
  release (Frame.cache_of env obj) cpu obj

let create env rcu =
  {
    env;
    rcu;
    by_name = Hashtbl.create 8;
    caches = [];
    reclaim = reclaim env;
  }

let free_deferred t (cache : Frame.cache) cpu obj =
  Prof.enter (Frame.prof cache) ~cpu:cpu.Sim.Machine.id Prof.Span.Slab_defer;
  let costs = Costs.default in
  Slab_stats.deferred_free cache.Frame.stats;
  let cookie = Rcu.snapshot t.rcu in
  Frame.stamp_deferred cache cpu obj ~cookie;
  charge cpu costs.Costs.defer_enqueue;
  (* Listing 1: the allocator never sees the object until RCU invokes the
     callback, possibly long after the grace period. Like the kernel's
     embedded [rcu_head], the entry is the shared callback plus the
     object's handle, so the deferral allocates nothing. *)
  Rcu.call_rcu t.rcu cpu t.reclaim (obj :> int);
  Prof.exit (Frame.prof cache) Prof.Span.Slab_defer

let settle t =
  let rec loop budget =
    if budget = 0 then
      failwith "Slub.settle: deferred callbacks failed to drain"
    else if Rcu.pending_callbacks t.rcu > 0 then begin
      Rcu.synchronize t.rcu;
      Rcu.barrier_drain t.rcu;
      loop (budget - 1)
    end
  in
  loop 1_000

let backend t =
  {
    Backend.label = "slub";
    create_cache = (fun ~name ~obj_size -> create_cache t ~name ~obj_size);
    alloc = (fun cache cpu -> alloc t cache cpu);
    free = (fun cache cpu obj -> free t cache cpu obj);
    free_deferred = (fun cache cpu obj -> free_deferred t cache cpu obj);
    settle = (fun () -> settle t);
    iter_caches = (fun f -> List.iter f t.caches);
  }
