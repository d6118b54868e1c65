module Frame = Slab.Frame
module Latq = Slab.Latq
module Smr = Slab.Smr
module Costs = Slab.Costs
module Stats = Slab.Slab_stats

type config = {
  scan_depth : int;
  preflush_enabled : bool;
  latent_cap : int option;
  wait_on_oom : bool;
  emergency_flush : bool;
  unsafe_skip_gp : bool;
}

let default_config =
  {
    scan_depth = 10;
    preflush_enabled = true;
    latent_cap = None;
    wait_on_oom = true;
    emergency_flush = false;
    unsafe_skip_gp = false;
  }

type t = {
  env : Frame.env;
  smr : Smr.t;
  label : string;
  cfg : config;
  by_name : (string, Frame.cache) Hashtbl.t;
      (* O(1) name lookup on the cache-creation path. *)
  mutable caches : Frame.cache list;
      (* Newest first (insertion order), the iteration order the old
         assoc list gave. *)
  select : Frame.node -> Frame.slab option;
      (* The refill selector, made once so a refill allocates no
         closure. *)
}

let env t = t.env
let smr t = t.smr
let config t = t.cfg

(* The reclamation horizon used for ripeness tests. The fault-injection
   mode pretends everything is ripe immediately. *)
let completed t =
  if t.cfg.unsafe_skip_gp then max_int else t.smr.Smr.ripe_upto ()

let charge (cpu : Sim.Machine.cpu) ns = Sim.Machine.consume cpu ns

let latent_outstanding t =
  List.fold_left (fun acc c -> acc + Frame.latent_total c) 0 t.caches

(* Harvest [slab]'s ripe latent objects and move it to the list its new
   counts dictate; returns how many were freed. A harvest that empties
   the slab's latent list also takes it off the node's latent-slab list,
   so walks read the next slab first. *)
let reap slab ~horizon =
  let n = Frame.slab_harvest_ripe slab ~completed:horizon in
  if n > 0 then ignore (Frame.relocate slab.Frame.cache slab);
  n

let rec refresh_first ~horizon depth = function
  | Some slab when depth > 0 ->
      let next = slab.Frame.latent_links.Frame.next in
      ignore (reap slab ~horizon);
      refresh_first ~horizon (depth - 1) next
  | _ -> ()

(* Harvest ripe latent objects from the slabs the selector is about to
   examine, so their free counts reflect completed grace periods. The
   node's latent-slab list is ordered oldest-first, so the slabs most
   likely to have ripe objects are at the front. *)
let refresh_node_heads t node =
  let prof = Sim.Machine.prof t.env.Frame.machine in
  Prof.enter prof ~cpu:(-1) Prof.Span.Prudence_scan;
  refresh_first ~horizon:(completed t) t.cfg.scan_depth
    node.Frame.latent_slabs.Frame.head;
  Prof.exit prof Prof.Span.Prudence_scan

let select t node =
  refresh_node_heads t node;
  Frame.select_prudence ~scan_depth:t.cfg.scan_depth node

(* Algorithm 1 MERGE_CACHES (l.60-65): move grace-period-complete objects
   from the latent cache into the object cache, stopping at capacity. *)
let merge_caches t (cache : Frame.cache) (pc : Frame.pcpu) =
  let horizon = completed t in
  let limit = cache.Frame.ocache_cap - pc.Frame.ocache_n in
  let moved =
    if limit <= 0 then 0
    else Frame.latent_cache_merge_ripe cache pc ~completed:horizon ~limit
  in
  if moved > 0 then begin
    Stats.merge cache.Frame.stats ~n:moved;
    Frame.event cache pc.Frame.cpu Latent_merge moved;
    charge pc.Frame.cpu
      (Costs.default.merge + (moved * Costs.default.merge_per_obj))
  end;
  moved

(* Move one latent-cache object to its slab's latent list, pre-moving the
   slab if its future state changed (Algorithm 1 l.49-51). Returns the cost
   to charge (the caller decides whether it runs on workload or idle time). *)
let demote_to_latent_slab t (cache : Frame.cache) (pc : Frame.pcpu) obj =
  Frame.obj_to_latent_slab cache obj;
  let slab = Frame.parent cache obj in
  let costs = Costs.default in
  let cost = ref costs.Costs.latent_put in
  (* Pre-movement needs the node-list lock only when the list changes. *)
  if Frame.relocate cache slab then begin
    Stats.premove cache.Frame.stats;
    Frame.event cache pc.Frame.cpu Premove 0;
    let node = cache.Frame.nodes.(slab.Frame.node_id) in
    let delay =
      Sim.Simlock.acquire node.Frame.lock ~cpu:pc.Frame.cpu.Sim.Machine.id
        ~now:(Sim.Engine.now (Sim.Machine.engine t.env.Frame.machine))
        ~hold:costs.Costs.node_lock_hold
    in
    cost := !cost + delay + costs.Costs.premove;
    (* Pre-moving onto the free list can push the node over its free-slab
       threshold (Algorithm 1 l.59). *)
    if
      slab.Frame.on_list = Frame.L_free
      && node.Frame.free_slabs.Frame.len > Slab.Size_class.min_free_slabs
    then ignore (Frame.shrink_node cache pc.Frame.cpu node)
  end;
  !cost

(* Push every ripe latent-cache object of [pc] down to its slab. *)
let rec demote_ripe t cache pc ~horizon =
  match Frame.latent_cache_pop_ripe cache pc ~completed:horizon with
  | Some obj ->
      ignore (demote_to_latent_slab t cache pc obj);
      demote_ripe t cache pc ~horizon
  | None -> ()

(* Graceful degradation under Critical pressure: give back everything that
   is already safe — drain ripe latent-cache objects down to their slabs,
   harvest every ripe latent-slab object, and eagerly shrink free slabs to
   the floor — before the allocator resorts to the OOM-delay path. Never
   waits (no process context required): only objects whose grace period has
   already completed move. Returns the number of latent objects freed. *)
let emergency_reclaim t =
  Prof.enter (Sim.Machine.prof t.env.Frame.machine) ~cpu:(-1)
    Prof.Span.Prudence_flush;
  let horizon = completed t in
  let total = ref 0 in
  List.iter
    (fun (cache : Frame.cache) ->
      Array.iter (fun pc -> demote_ripe t cache pc ~horizon) cache.Frame.pcpus;
      let freed = ref 0 in
      Array.iter
        (fun (node : Frame.node) ->
          Frame.iter_latent
            (fun slab -> freed := !freed + reap slab ~horizon)
            node;
          let cpu = cache.Frame.pcpus.(0).Frame.cpu in
          while Frame.shrink_node ~keep:0 cache cpu node > 0 do
            ()
          done)
        cache.Frame.nodes;
      if !freed > 0 then begin
        Stats.emergency_flush cache.Frame.stats ~n:!freed;
        Frame.event cache cache.Frame.pcpus.(0).Frame.cpu Emergency_flush
          !freed
      end;
      total := !total + !freed)
    t.caches;
  Prof.exit (Sim.Machine.prof t.env.Frame.machine) Prof.Span.Prudence_flush;
  !total

let attach_pressure t pressure =
  if t.cfg.emergency_flush then begin
    Mem.Pressure.on_level_change pressure (fun level ->
        match level with
        | Mem.Pressure.Critical -> ignore (emergency_reclaim t)
        | Mem.Pressure.Normal | Mem.Pressure.Low -> ());
    Mem.Pressure.on_oom pressure (fun () -> emergency_reclaim t > 0)
  end

(* Idle-time pre-flush (§4.2 "latent cache pre-flush"). Runs as idle work:
   costs are not charged to the workload, but lock holds still occupy the
   node lock. In the less aggressive mode a pass migrates at most
   [preflush_chunk] objects; passes are [preflush_interval_ns] apart. *)
let preflush_chunk = 8
let preflush_interval_ns = 5_000

let rec preflush_pass t (cache : Frame.cache) (pc : Frame.pcpu) =
  Frame.set_preflush_scheduled pc false;
  let excess () =
    pc.Frame.ocache_n + Latq.Fifo.length pc.Frame.latent
    - cache.Frame.ocache_cap
  in
  (* Merge ripe latent objects proactively while idle — §4.2: doing it here
     "avoids the merging of deferred objects ... during an allocation
     request" (the next allocations become plain hits). *)
  ignore (merge_caches t cache pc);
  if excess () > 0 then begin
    let aggressive = pc.Frame.recent_allocs < pc.Frame.recent_releases in
    let budget = if aggressive then max_int else preflush_chunk in
    let moved = ref 0 in
    while excess () > 0 && !moved < budget do
      if Latq.Fifo.length pc.Frame.latent > 0 then begin
        let obj = Frame.latent_cache_pop_newest cache pc in
        ignore (demote_to_latent_slab t cache pc obj);
        incr moved
      end
      else
        (* Only object-cache overflow remains; leave it to the flush
           path. *)
        Frame.flush_to_node cache pc.Frame.cpu ~count:(max 0 (excess ()))
    done;
    if !moved > 0 then begin
      Stats.preflush_pass cache.Frame.stats ~n:!moved;
      Frame.event cache pc.Frame.cpu Preflush !moved
    end;
    (* If work remains and the CPU is still idle, continue in a later
       chunk; otherwise re-arm for the next idle window. *)
    if excess () > 0 then schedule_preflush_delayed t cache pc
  end

and schedule_preflush_delayed t cache pc =
  if not pc.Frame.preflush_scheduled then begin
    Frame.set_preflush_scheduled pc true;
    Sim.Engine.schedule
      (Sim.Machine.engine t.env.Frame.machine)
      ~after:preflush_interval_ns
      (fun () ->
        if Sim.Machine.is_idle pc.Frame.cpu then preflush_pass t cache pc
        else begin
          (* The idle window closed: wait for the next one. *)
          Frame.set_preflush_scheduled pc false;
          schedule_preflush t cache pc
        end)
  end

and schedule_preflush t cache (pc : Frame.pcpu) =
  if t.cfg.preflush_enabled && not pc.Frame.preflush_scheduled then begin
    Frame.set_preflush_scheduled pc true;
    Sim.Machine.submit_idle t.env.Frame.machine pc.Frame.cpu (fun () ->
        preflush_pass t cache pc)
  end

(* Algorithm 1 MALLOC (l.1-12) + REFILL_OBJECT_CACHE (l.13-33). *)
let rec alloc_inner t ~may_wait (cache : Frame.cache) cpu =
  let costs = Costs.default in
  let pc = Frame.pcpu_for cache cpu in
  Stats.alloc cache.Frame.stats;
  Frame.note_alloc pc;
  charge cpu costs.Costs.hit;
  if pc.Frame.ocache_n > 0 then begin
    let obj = Frame.pop_ocache_exn pc in
    Stats.hit cache.Frame.stats;
    Frame.event cache cpu Alloc_hit 0;
    Frame.hand_to_user cache cpu obj;
    obj
  end
  else alloc_slow t ~may_wait cache cpu pc

and alloc_slow t ~may_wait (cache : Frame.cache) cpu (pc : Frame.pcpu) =
  (* l.8-11: merge ripe latent objects and retry. A request satisfied
     after the merge is still served from the object cache (no node-list
     traffic), so it counts as a hit, as in Fig. 7. *)
  ignore (merge_caches t cache pc);
  if pc.Frame.ocache_n > 0 then begin
    let obj = Frame.pop_ocache_exn pc in
    Stats.hit cache.Frame.stats;
    Frame.event cache cpu Alloc_hit 0;
    Frame.hand_to_user cache cpu obj;
    obj
  end
  else begin
      Stats.miss cache.Frame.stats;
      Frame.event cache cpu Alloc_miss 0;
      (* l.13-25: partial refill, leaving room for the latent objects that
         will merge after the grace period. The paper subtracts the whole
         latent count; we subtract only the ripe prefix (the merge is
         capacity-capped, and unripe objects cannot merge before the next
         grace period, by which time the cache has drained again), which
         keeps refills batched under a full latent cache. *)
      let horizon = completed t in
      let ripe = Latq.Fifo.ripe_count pc.Frame.latent ~completed:horizon in
      let want =
        max 1 (min cache.Frame.batch (cache.Frame.ocache_cap - ripe))
      in
      if Frame.refill_from_node cache cpu ~want ~select:t.select = 0 then
        ignore
          (match Frame.grow cache cpu with
          | Some _slab ->
              (* l.29: add more slabs. *)
              Frame.refill_from_node cache cpu ~want ~select:t.select
          | None ->
              (* Cannot grow: relax the slab-selection filter (a mostly
                 deferred slab is better than failing). *)
              Frame.refill_from_node cache cpu ~want ~select:Frame.select_slub);
      if
        pc.Frame.ocache_n > 0
        (* Degradation ladder: before suspending for a grace period,
           emergency-flush whatever is already ripe and eagerly shrink,
           then retry the refill — reclaim that needs no waiting. *)
        || t.cfg.emergency_flush
           && emergency_reclaim t > 0
           && (Frame.refill_from_node cache cpu ~want:1
                 ~select:Frame.select_slub
               > 0
              ||
              match Frame.grow cache cpu with
              | Some _ ->
                  Frame.refill_from_node cache cpu ~want:1
                    ~select:Frame.select_slub
                  > 0
              | None -> false)
      then begin
        let obj = Frame.pop_ocache_exn pc in
        Frame.hand_to_user cache cpu obj;
        obj
      end
      else if
        (* l.31-33: delay OOM if deferred objects will become free. *)
        may_wait && t.cfg.wait_on_oom && latent_outstanding t > 0
      then begin
        Stats.oom_delayed cache.Frame.stats;
        t.smr.Smr.request ();
        t.smr.Smr.wait ();
        alloc_inner t ~may_wait:false cache cpu
      end
      else raise_notrace Frame.Oom
  end

(* May suspend mid-span on the wait-on-OOM path (Rcu.synchronize);
   Prof.exit's unwind semantics keep the span stack consistent, and the
   suspended continuation keeps the [Oom] handler. A failed allocation
   is priced and its span closed like a successful one. *)
let alloc t ?(may_wait = true) (cache : Frame.cache) (cpu : Sim.Machine.cpu) =
  Prof.enter (Frame.prof cache) ~cpu:cpu.Sim.Machine.id Prof.Span.Slab_alloc;
  let pend0 = cpu.Sim.Machine.pending_ns in
  match alloc_inner t ~may_wait cache cpu with
  | obj ->
      Frame.event cache cpu Alloc_cost (cpu.Sim.Machine.pending_ns - pend0);
      Prof.exit (Frame.prof cache) Prof.Span.Slab_alloc;
      obj
  | exception Frame.Oom ->
      Frame.event cache cpu Alloc_cost (cpu.Sim.Machine.pending_ns - pend0);
      Prof.exit (Frame.prof cache) Prof.Span.Slab_alloc;
      raise_notrace Frame.Oom

(* Algorithm 1 FREE_DEFERRED (l.34-51). *)
let free_deferred t (cache : Frame.cache) cpu obj =
  Prof.enter (Frame.prof cache) ~cpu:cpu.Sim.Machine.id
    Prof.Span.Prudence_defer;
  let costs = Costs.default in
  let pc = Frame.pcpu_for cache cpu in
  Stats.deferred_free cache.Frame.stats;
  Frame.note_release pc;
  (* l.35: capture the reclamation-scheme state (under RCU: the
     grace-period cookie from [Rcu.snapshot]). *)
  let cookie = t.smr.Smr.defer ~cpu:cpu.Sim.Machine.id in
  Frame.stamp_deferred cache cpu obj ~cookie;
  t.smr.Smr.request ();
  charge cpu costs.Costs.defer_enqueue;
  let latent_n = Latq.Fifo.length pc.Frame.latent in
  if latent_n < cache.Frame.latent_cap then begin
    (* l.39-44: fast path. The idle pass is armed whenever latent objects
       exist: it pre-flushes if an overflow is foreseen and pre-merges
       ripe objects either way. *)
    Frame.obj_to_latent_cache cache pc obj;
    charge cpu costs.Costs.latent_put;
    schedule_preflush t cache pc
  end
  else begin
    (* l.45-51: flush the object cache, merge, retry; overflow goes to the
       latent slab with slab pre-movement. *)
    if pc.Frame.ocache_n > 0 then
      Frame.flush_to_node cache cpu
        ~count:(pc.Frame.ocache_n - (cache.Frame.ocache_cap / 2));
    ignore (merge_caches t cache pc);
    if Latq.Fifo.length pc.Frame.latent < cache.Frame.latent_cap then begin
      Frame.obj_to_latent_cache cache pc obj;
      charge cpu costs.Costs.latent_put
    end
    else begin
      Stats.latent_overflow cache.Frame.stats;
      charge cpu (demote_to_latent_slab t cache pc obj)
    end
  end;
  Prof.exit (Frame.prof cache) Prof.Span.Prudence_defer

(* Regular free: like the baseline, but the overflow flush accounts for the
   latent objects that will need object-cache room after the grace period
   (§4.2 "object cache flush"). *)
let free (_ : t) (cache : Frame.cache) cpu obj =
  Prof.enter (Frame.prof cache) ~cpu:cpu.Sim.Machine.id Prof.Span.Slab_free;
  let costs = Costs.default in
  let pc = Frame.pcpu_for cache cpu in
  Stats.free cache.Frame.stats;
  Frame.note_release pc;
  Frame.release_from_user cache cpu obj;
  charge cpu costs.Costs.free_to_cache;
  Frame.push_ocache cache pc obj;
  (if pc.Frame.ocache_n > cache.Frame.ocache_cap then begin
     let latent_n = Latq.Fifo.length pc.Frame.latent in
     let keep = max 0 ((cache.Frame.ocache_cap / 2) - latent_n) in
     Frame.flush_to_node cache cpu ~count:(pc.Frame.ocache_n - keep)
   end);
  Prof.exit (Frame.prof cache) Prof.Span.Slab_free

let create_cache t ~name ~obj_size =
  match Hashtbl.find_opt t.by_name name with
  | Some c -> c
  | None ->
      let c =
        Frame.create_cache t.env ~name ~obj_size ~latent_aware:true
          ?latent_cap:t.cfg.latent_cap ()
      in
      (* Hints about the future (§3.6): outstanding deferred objects plus
         the recent per-grace-period allocation volume are allocations
         waiting to happen, so keep that many objects' worth of free slabs
         per node instead of returning pages that would be re-requested
         within a grace period. *)
      Frame.set_free_target c (fun () ->
          let recent_demand =
            Array.fold_left
              (fun acc (pc : Frame.pcpu) -> acc + pc.Frame.recent_allocs)
              0 c.Frame.pcpus
          in
          (* The decayed counter holds ~8x one grace period's allocations;
             keep ~2 grace periods' worth of free slabs. *)
          let demand_objs = (recent_demand / 4) + (2 * Frame.latent_total c) in
          demand_objs
          / (c.Frame.objs_per_slab
            * Array.length c.Frame.nodes));
      Hashtbl.replace t.by_name name c;
      t.caches <- c :: t.caches;
      c

(* Recycle every outstanding deferred object; requires process context. *)
let settle t =
  let rec loop budget =
    if budget = 0 then failwith "Prudence.settle: latent objects failed to drain";
    if latent_outstanding t > 0 then begin
      t.smr.Smr.wait ();
      let horizon = completed t in
      List.iter
        (fun cache ->
          (* Everything ripe now: push latent-cache objects down to their
             slabs and harvest. *)
          Array.iter
            (fun pc -> demote_ripe t cache pc ~horizon)
            cache.Frame.pcpus;
          (* A relocated slab never lands on the list being walked. *)
          Array.iter
            (fun (node : Frame.node) ->
              let refresh slab =
                if slab.Frame.latent_n > 0 then begin
                  ignore (Frame.slab_harvest_ripe slab ~completed:horizon);
                  ignore (Frame.relocate cache slab)
                end
              in
              Frame.iter_list refresh node.Frame.full;
              Frame.iter_list refresh node.Frame.partial;
              Frame.iter_list refresh node.Frame.free_slabs)
            cache.Frame.nodes)
        t.caches;
      loop (budget - 1)
    end
  in
  loop 1_000

let backend t =
  {
    Slab.Backend.label = t.label;
    create_cache = (fun ~name ~obj_size -> create_cache t ~name ~obj_size);
    alloc = (fun cache cpu -> alloc t cache cpu);
    free = (fun cache cpu obj -> free t cache cpu obj);
    free_deferred = (fun cache cpu obj -> free_deferred t cache cpu obj);
    settle = (fun () -> settle t);
    iter_caches = (fun f -> List.iter f t.caches);
  }

let create_smr ?(config = default_config) ?(label = "prudence") env smr =
  let rec t =
    {
      env;
      smr;
      label;
      cfg = config;
      by_name = Hashtbl.create 8;
      caches = [];
      select = (fun node -> select t node);
    }
  in
  smr.Smr.on_ripen (fun _frontier ->
      List.iter
        (fun cache -> Array.iter Frame.decay_rates cache.Frame.pcpus)
        t.caches;
      (* Keep grace detection running while deferred objects wait on it. *)
      if latent_outstanding t > 0 then smr.Smr.request ());
  t

let create ?config env rcu = create_smr ?config env (Smr.of_rcu rcu)
