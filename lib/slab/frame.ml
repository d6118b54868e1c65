type grow_retry_policy = { max_retries : int; base_backoff_ns : int }

type env = {
  machine : Sim.Machine.t;
  buddy : Mem.Buddy.t;
  pressure : Mem.Pressure.t;
  page_lock : Sim.Simlock.t;
      (* The page allocator's zone lock: every slab grow/shrink serializes
         here (with a hold that grows with the slab order, modelling page
         zeroing and higher-order assembly). This is the contention that
         makes the baseline collapse at large object sizes (Fig. 6). *)
  tap : Trace.Tap.t;
  mutable grow_retry : grow_retry_policy option;
  mutable unsafe_destroy_latent : bool;
  mutable next_oid : int;
  mutable next_sid : int;
}

let make_env ~pressure machine buddy =
  let tap = Sim.Engine.tap (Sim.Machine.engine machine) in
  {
    machine;
    buddy;
    pressure;
    page_lock = Sim.Simlock.create ~name:"page-allocator" tap;
    tap;
    grow_retry = None;
    unsafe_destroy_latent = false;
    next_oid = 0;
    next_sid = 0;
  }

type ostate =
  | Free_in_slab
  | In_object_cache
  | Allocated
  | In_latent_cache
  | In_latent_slab

let pp_ostate fmt s =
  Format.pp_print_string fmt
    (match s with
    | Free_in_slab -> "free-in-slab"
    | In_object_cache -> "in-object-cache"
    | Allocated -> "allocated"
    | In_latent_cache -> "in-latent-cache"
    | In_latent_slab -> "in-latent-slab")

type list_id = L_full | L_partial | L_free | L_unlinked

let pp_list_id fmt l =
  Format.pp_print_string fmt
    (match l with
    | L_full -> "full"
    | L_partial -> "partial"
    | L_free -> "free"
    | L_unlinked -> "unlinked")

type objekt = {
  oid : int;
  parent : slab;
  mutable ostate : ostate;
  mutable gp_cookie : int;
  mutable touched : bool;
}

and slab = {
  sid : int;
  color : int;
  node_id : int;
  cache : cache;
  page : int;
  capacity : int;
  mutable free_objs : objekt array;
      (* Stack of [capacity] slots, top at [free_n - 1]; filled once at
         grow so the first pop returns the lowest oid. *)
  mutable free_n : int;
  latent_objs : objekt Latq.t;
  mutable latent_n : int;
  mutable in_flight : int;
  mutable on_list : list_id;
  links : links;  (* on the node list [on_list] *)
  latent_links : links;  (* on the node's latent-slab list *)
  self : slab option;
      (* [Some] of this record, made once at grow: the value neighbours
         store, so linking and unlinking only write pointers. *)
}

and links = { mutable prev : slab option; mutable next : slab option }

and slab_list = {
  mutable head : slab option;
  mutable tail : slab option;
  mutable len : int;
}

and node = {
  nid : int;
  lock : Sim.Simlock.t;
  full : slab_list;
  partial : slab_list;
  free_slabs : slab_list;
  latent_slabs : slab_list;
      (* Slabs currently holding latent objects, oldest first, linked
         through [latent_links]: Prudence harvests ripe objects from the
         front after grace periods. *)
}

and pcpu = {
  cpu : Sim.Machine.cpu;
  mutable ocache : objekt array;
      (* Stack, top at [ocache_n - 1]: [||] until the first push, then
         doubled whenever a push finds it full. *)
  mutable ocache_n : int;
  latent : objekt Latq.Fifo.t;
  mutable preflush_scheduled : bool;
  mutable recent_allocs : int;
  mutable recent_releases : int;
}

and cache = {
  name : string;
  obj_size : int;
  order : int;
  objs_per_slab : int;
  ocache_cap : int;
  batch : int;
  latent_aware : bool;
  latent_cap : int;
  env : env;
  nodes : node array;
  pcpus : pcpu array;
  stats : Slab_stats.t;
  mutable color_next : int;
  mutable total_slabs : int;
  mutable live_objs : int;
  mutable latent_count : int;
  mutable free_target : (unit -> int) option;
}

exception Oom

let empty_list () = { head = None; tail = None; len = 0 }

(* Every slab list is linked through one of the slab's two [links]
   records: [~latent] picks the latent-slab list's. *)
let links ~latent s = if latent then s.latent_links else s.links

let push ~latent ~front l s =
  let k = links ~latent s in
  if front then begin
    k.next <- l.head;
    (match l.head with
    | Some h -> (links ~latent h).prev <- s.self
    | None -> l.tail <- s.self);
    l.head <- s.self
  end
  else begin
    k.prev <- l.tail;
    (match l.tail with
    | Some t -> (links ~latent t).next <- s.self
    | None -> l.head <- s.self);
    l.tail <- s.self
  end;
  l.len <- l.len + 1

let remove ~latent l s =
  let k = links ~latent s in
  (match k.prev with
  | Some p -> (links ~latent p).next <- k.next
  | None -> l.head <- k.next);
  (match k.next with
  | Some n -> (links ~latent n).prev <- k.prev
  | None -> l.tail <- k.prev);
  k.prev <- None;
  k.next <- None;
  l.len <- l.len - 1

(* Walks read a slab's successor before visiting it, so [f] may move the
   slab it is given to another list. *)
let rec iter_from ~latent f = function
  | None -> ()
  | Some s ->
      let next = (links ~latent s).next in
      f s;
      iter_from ~latent f next

let iter_list f l = iter_from ~latent:false f l.head
let iter_latent f node = iter_from ~latent:true f node.latent_slabs.head

let create_cache env ~name ~obj_size ?(latent_aware = false) ?latent_cap () =
  if obj_size <= 0 then invalid_arg "Frame.create_cache: obj_size";
  (* Flushes track the nodes they touch in an int bitmask. *)
  if Sim.Machine.nr_nodes env.machine >= Sys.int_size then
    invalid_arg "Frame.create_cache: too many NUMA nodes";
  let page_size = Mem.Buddy.page_size in
  let order = Size_class.slab_order ~obj_size ~page_size in
  let capacity = Size_class.object_cache_capacity ~obj_size in
  let nodes =
    Array.init (Sim.Machine.nr_nodes env.machine) (fun nid ->
        {
          nid;
          lock =
            Sim.Simlock.create ~name:(Printf.sprintf "%s/node%d" name nid)
              env.tap;
          full = empty_list ();
          partial = empty_list ();
          free_slabs = empty_list ();
          latent_slabs = empty_list ();
        })
  in
  let pcpus =
    Array.map
      (fun cpu ->
        {
          cpu;
          ocache = [||];
          ocache_n = 0;
          latent = Latq.Fifo.create ();
          preflush_scheduled = false;
          recent_allocs = 0;
          recent_releases = 0;
        })
      (Sim.Machine.cpus env.machine)
  in
  {
    name;
    obj_size;
    order;
    objs_per_slab = Size_class.objs_per_slab ~obj_size ~page_size ~order;
    ocache_cap = capacity;
    batch = Size_class.batch_count ~capacity;
    latent_aware;
    latent_cap = (match latent_cap with Some c -> c | None -> capacity);
    env;
    nodes;
    pcpus;
    stats = Slab_stats.create ();
    color_next = 0;
    total_slabs = 0;
    live_objs = 0;
    latent_count = 0;
    free_target = None;
  }

let slab_bytes cache = Mem.Buddy.page_size lsl cache.order
let node_for cache (cpu : Sim.Machine.cpu) = cache.nodes.(cpu.node)
let pcpu_for cache (cpu : Sim.Machine.cpu) = cache.pcpus.(cpu.id)

let live_objects cache = cache.live_objs
let total_slabs cache = cache.total_slabs

let latent_total cache = cache.latent_count

let set_free_target cache fn = cache.free_target <- Some fn

(* How many free slabs a node keeps before shrinking: the policy's demand
   estimate (Prudence) or the static threshold (baseline). *)
let keep_free_target cache =
  match cache.free_target with
  | None -> Size_class.min_free_slabs
  | Some f -> max Size_class.min_free_slabs (f ())

let fragmentation cache =
  if cache.live_objs = 0 then nan
  else
    float_of_int (cache.total_slabs * slab_bytes cache)
    /. float_of_int (cache.live_objs * cache.obj_size)

let truly_free slab = slab.free_n = slab.capacity

let now cache = Sim.Engine.now (Sim.Machine.engine cache.env.machine)
let prof cache = Sim.Machine.prof cache.env.machine

let emit cache ~cpu kind a b =
  Trace.Tap.emit cache.env.tap kind ~cpu ~label:cache.name a b

let event cache (cpu : Sim.Machine.cpu) kind arg =
  emit cache ~cpu:cpu.id kind arg 0

let lock_node cache (cpu : Sim.Machine.cpu) node =
  let delay =
    Sim.Simlock.acquire node.lock ~cpu:cpu.id ~now:(now cache)
      ~hold:Costs.default.node_lock_hold
  in
  Sim.Machine.consume cpu delay

let lock_pages cache (cpu : Sim.Machine.cpu) =
  let costs = Costs.default in
  (* Higher-order page allocations cost superlinearly more: zeroing is
     linear in pages, but assembling/splitting large contiguous blocks
     under load (buddy traversal, compaction, reclaim) grows with the
     order as well — the reason order-3 slab churn is so punishing in the
     paper's Fig. 6. *)
  let pages = 1 lsl cache.order in
  let hold =
    costs.page_lock_hold + (costs.page_zero_per_page * pages * max 1 (pages / 2))
  in
  let delay =
    Sim.Simlock.acquire cache.env.page_lock ~cpu:cpu.id ~now:(now cache) ~hold
  in
  Sim.Machine.consume cpu delay

let list_of cache ~node_id = cache.nodes.(node_id)

let list_for node = function
  | L_full -> node.full
  | L_partial -> node.partial
  | L_free -> node.free_slabs
  | L_unlinked -> invalid_arg "Frame.list_for: unlinked"

let unlink cache slab =
  if slab.on_list <> L_unlinked then begin
    let node = list_of cache ~node_id:slab.node_id in
    remove ~latent:false (list_for node slab.on_list) slab;
    slab.on_list <- L_unlinked
  end

let link cache slab target =
  assert (slab.on_list = L_unlinked);
  let node = list_of cache ~node_id:slab.node_id in
  (* Selectors scan from the front: slabs with allocatable objects go to
     the front, while pre-moved all-latent slabs (free only after their
     grace period) queue at the back. *)
  push ~latent:false ~front:(slab.free_n > 0) (list_for node target) slab;
  slab.on_list <- target

(* A slab is on its node's latent-slab list exactly while it holds
   latent objects. *)
let latent_slabs_of slab = slab.cache.nodes.(slab.node_id).latent_slabs

let desired_list slab =
  let c = slab.cache in
  if slab.free_n = slab.capacity then L_free
  else if c.latent_aware && slab.in_flight = 0 then
    (* Every object is free or deferred: the slab is certain to become
       fully free after the grace period (pre-movement, Algorithm 1 l.56). *)
    L_free
  else if slab.free_n = 0 && c.latent_aware && slab.latent_n > 0 then
    (* Full slab with deferred objects: it will soon have free objects
       (pre-movement, Algorithm 1 l.54). *)
    L_partial
  else if slab.free_n = 0 then L_full
  else L_partial

let relocate cache slab =
  let target = desired_list slab in
  if target = slab.on_list then false
  else begin
    unlink cache slab;
    link cache slab target;
    true
  end

(* Allocation-free: callers check [slab.free_n > 0] first. Popped slots
   keep their old element; it belongs to this slab, so it pins
   nothing. *)
let take_free_obj_exn slab =
  if slab.free_n = 0 then
    invalid_arg "Frame.take_free_obj_exn: no free object";
  slab.free_n <- slab.free_n - 1;
  slab.in_flight <- slab.in_flight + 1;
  slab.free_objs.(slab.free_n)

(* The two entry points to the free pool: anything the shadow-heap oracle
   must vet (a deferred object becoming reusable) passes through one of
   these, whichever allocator policy drives it. *)
let emit_pool cache ~cpu obj = emit cache ~cpu Pool obj.oid obj.gp_cookie

let put_free_obj slab obj =
  assert (obj.parent == slab);
  emit_pool slab.cache ~cpu:(-1) obj;
  obj.ostate <- Free_in_slab;
  slab.free_objs.(slab.free_n) <- obj;
  slab.free_n <- slab.free_n + 1;
  slab.in_flight <- slab.in_flight - 1

(* The first push sizes the stack for a full cache plus the one object a
   free pushes before it flushes. *)
let grow_ocache cache pc obj =
  let cap = Array.length pc.ocache in
  let stack =
    Array.make (if cap = 0 then cache.ocache_cap + 1 else 2 * cap) obj
  in
  Array.blit pc.ocache 0 stack 0 pc.ocache_n;
  pc.ocache <- stack

let push_ocache cache pc obj =
  emit_pool cache ~cpu:pc.cpu.id obj;
  obj.ostate <- In_object_cache;
  if pc.ocache_n = Array.length pc.ocache then grow_ocache cache pc obj;
  pc.ocache.(pc.ocache_n) <- obj;
  pc.ocache_n <- pc.ocache_n + 1

(* Allocation-free fast path: callers check [pc.ocache_n > 0] first. *)
let pop_ocache_exn pc =
  if pc.ocache_n = 0 then
    invalid_arg "Frame.pop_ocache_exn: empty object cache";
  pc.ocache_n <- pc.ocache_n - 1;
  pc.ocache.(pc.ocache_n)

let pop_ocache pc = if pc.ocache_n = 0 then None else Some (pop_ocache_exn pc)

(* ceil(log2(used/llc)), capped: how many times the resident footprint has
   doubled past the last-level cache. *)
let footprint_doublings cache =
  let costs = Costs.default in
  let used = Mem.Buddy.used_bytes cache.env.buddy in
  if used <= costs.Costs.llc_bytes then 0
  else begin
    let d = ref 0 in
    let x = ref (used / costs.Costs.llc_bytes) in
    while !x > 1 && !d < 4 do
      x := !x lsr 1;
      incr d
    done;
    !d
  end

let hand_to_user cache (cpu : Sim.Machine.cpu) obj =
  event cache cpu Alloc obj.oid;
  (* Working sets beyond the LLC make every object touch a cache/TLB miss;
     an allocator that leaks its reclamation backlog pays this on every
     allocation. *)
  let doublings = footprint_doublings cache in
  if doublings > 0 then
    Sim.Machine.consume cpu (doublings * Costs.default.llc_pressure);
  (* First use of this object's memory: the mutator takes cache/TLB misses
     writing it. Recycled objects are hot. *)
  if not obj.touched then begin
    obj.touched <- true;
    let costs = Costs.default in
    Sim.Machine.consume cpu
      (costs.Costs.cold_touch
      + (cache.obj_size / 256 * costs.Costs.cold_touch_per_256b))
  end;
  obj.ostate <- Allocated;
  cache.live_objs <- cache.live_objs + 1

(* Events go out before the state asserts so a deliberately broken
   caller (mutation self-tests: double free, double defer) reaches the
   oracle before the simulation aborts. *)
let release_from_user cache cpu obj =
  event cache cpu Free obj.oid;
  assert (obj.ostate = Allocated);
  cache.live_objs <- cache.live_objs - 1

let stamp_deferred cache (cpu : Sim.Machine.cpu) obj ~cookie =
  emit cache ~cpu:cpu.id Defer obj.oid cookie;
  assert (obj.ostate = Allocated);
  obj.gp_cookie <- cookie;
  cache.live_objs <- cache.live_objs - 1

let obj_to_latent_cache cache pc obj =
  Prof.enter (prof cache) ~cpu:pc.cpu.Sim.Machine.id Prof.Span.Latq_push;
  obj.ostate <- In_latent_cache;
  cache.latent_count <- cache.latent_count + 1;
  Latq.Fifo.push_back pc.latent ~cookie:obj.gp_cookie obj;
  Prof.exit (prof cache) Prof.Span.Latq_push

let obj_to_latent_slab cache obj =
  Prof.enter (prof cache) ~cpu:(-1) Prof.Span.Latq_push;
  let slab = obj.parent in
  obj.ostate <- In_latent_slab;
  cache.latent_count <- cache.latent_count + 1;
  Latq.push slab.latent_objs ~cookie:obj.gp_cookie obj;
  slab.latent_n <- slab.latent_n + 1;
  slab.in_flight <- slab.in_flight - 1;
  if slab.latent_n = 1 then
    push ~latent:true ~front:false (latent_slabs_of slab) slab;
  Prof.exit (prof cache) Prof.Span.Latq_push

let latent_cache_pop_ripe cache pc ~completed =
  if Latq.Fifo.oldest_ripe pc.latent ~completed then begin
    cache.latent_count <- cache.latent_count - 1;
    Some (Latq.Fifo.pop_front pc.latent)
  end
  else None

(* Toplevel, so passing it to the merge allocates no closure: the
   object's slab names the cache. *)
let merge_into_ocache pc obj = push_ocache obj.parent.cache pc obj

let latent_cache_merge_ripe cache pc ~completed ~limit =
  Prof.enter (prof cache) ~cpu:pc.cpu.Sim.Machine.id Prof.Span.Latq_harvest;
  let n =
    Latq.Fifo.merge_ripe pc.latent ~completed ~limit ~f:merge_into_ocache pc
  in
  cache.latent_count <- cache.latent_count - n;
  Prof.exit (prof cache) Prof.Span.Latq_harvest;
  n

let latent_cache_pop_newest cache pc =
  let obj = Latq.Fifo.pop_back pc.latent in
  cache.latent_count <- cache.latent_count - 1;
  obj

(* latent -> free stays inside the slab: in_flight is unchanged, but
   put_free_obj decrements it, so pre-compensate. *)
let harvest_to_free obj =
  let slab = obj.parent in
  slab.in_flight <- slab.in_flight + 1;
  put_free_obj slab obj

let slab_harvest_ripe slab ~completed =
  Prof.enter (prof slab.cache) ~cpu:(-1) Prof.Span.Latq_harvest;
  let n = Latq.harvest slab.latent_objs ~completed ~f:harvest_to_free in
  (if n > 0 then begin
     slab.latent_n <- slab.latent_n - n;
     slab.cache.latent_count <- slab.cache.latent_count - n;
     if slab.latent_n = 0 then remove ~latent:true (latent_slabs_of slab) slab
   end);
  Prof.exit (prof slab.cache) Prof.Span.Latq_harvest;
  n

let alloc_pages cache =
  let buddy = cache.env.buddy in
  let page = Mem.Buddy.alloc buddy ~order:cache.order in
  if page >= 0 then page
  else if Mem.Pressure.handle_alloc_failure cache.env.pressure then
    Mem.Buddy.alloc buddy ~order:cache.order
  else -1

(* Retry a transiently failed page allocation with exponential virtual-time
   backoff. Only failures that [Buddy.would_satisfy] proves non-genuine
   (an injected refusal: a free block of sufficient order exists) are
   retried; real exhaustion falls through to the fatal-OOM path at once.
   Needs process context for the sleep, so it only runs when the policy is
   installed (off by default). *)
let rec grow_attempt cache (cpu : Sim.Machine.cpu) ~tries ~backoff =
  let page = alloc_pages cache in
  if page >= 0 then page
  else
    match cache.env.grow_retry with
    | Some p
      when tries < p.max_retries
           && Mem.Buddy.would_satisfy cache.env.buddy ~order:cache.order ->
        Slab_stats.grow_retry cache.stats;
        event cache cpu Grow_retry (tries + 1);
        Sim.Process.sleep (Sim.Machine.engine cache.env.machine) backoff;
        grow_attempt cache cpu ~tries:(tries + 1) ~backoff:(2 * backoff)
    | _ -> -1

let grow_inner cache (cpu : Sim.Machine.cpu) =
  let backoff =
    match cache.env.grow_retry with
    | Some p -> p.base_backoff_ns
    | None -> 0
  in
  let page = grow_attempt cache cpu ~tries:0 ~backoff in
  if page < 0 then begin
    event cache cpu Oom 0;
    None
  end
  else
    let env = cache.env in
    let color = cache.color_next in
    cache.color_next <- (cache.color_next + 1) mod Size_class.max_color;
    let sid = env.next_sid in
    env.next_sid <- env.next_sid + 1;
    let rec slab =
      {
        sid;
        color;
        node_id = cpu.node;
        cache;
        page;
        capacity = cache.objs_per_slab;
        free_objs = [||];
        free_n = cache.objs_per_slab;
        latent_objs = Latq.create ~capacity:cache.objs_per_slab;
        latent_n = 0;
        in_flight = 0;
        on_list = L_unlinked;
        links = { prev = None; next = None };
        latent_links = { prev = None; next = None };
        self = Some slab;
      }
    in
    let mk () =
      let oid = env.next_oid in
      env.next_oid <- env.next_oid + 1;
      {
        oid;
        parent = slab;
        ostate = Free_in_slab;
        gp_cookie = 0;
        touched = false;
      }
    in
    (* Oids ascend from the top of the stack down, so the first pop
       returns the lowest. *)
    let top = cache.objs_per_slab - 1 in
    let objs = Array.make cache.objs_per_slab (mk ()) in
    for i = top - 1 downto 0 do
      objs.(i) <- mk ()
    done;
    slab.free_objs <- objs;
    link cache slab L_free;
    cache.total_slabs <- cache.total_slabs + 1;
    Slab_stats.set_current_slabs cache.stats cache.total_slabs;
    Slab_stats.grow cache.stats;
    event cache cpu Grow cache.total_slabs;
    Sim.Machine.consume cpu Costs.default.grow;
    lock_pages cache cpu;
    Mem.Pressure.poll env.pressure;
    Some slab

(* May suspend mid-span when the grow-retry policy sleeps; Prof.exit's
   unwind semantics keep the span stack consistent across that. *)
let grow cache (cpu : Sim.Machine.cpu) =
  Prof.enter (prof cache) ~cpu:cpu.id Prof.Span.Slab_grow;
  let r = grow_inner cache cpu in
  Prof.exit (prof cache) Prof.Span.Slab_grow;
  r

let destroy_slab cache slab =
  assert (truly_free slab
         || (cache.env.unsafe_destroy_latent && slab.in_flight = 0));
  (* The page-reuse boundary: report objects still deferred on this page
     before it goes back to the buddy, newest first. Never fires on a
     non-mutated run (truly-free slabs have no latent objects). *)
  (if slab.latent_n > 0 && Trace.Tap.armed cache.env.tap then
     let latent = ref [] in
     Latq.iter (fun o -> latent := o :: !latent) slab.latent_objs;
     List.iter
       (fun o -> emit cache ~cpu:(-1) Page_release o.oid o.gp_cookie)
       !latent);
  (* Scrub the latent bookkeeping the mutated path orphans, so the cache
     counters stay conserved and only the page-level oracle can tell. *)
  if slab.latent_n > 0 then begin
    cache.latent_count <- cache.latent_count - slab.latent_n;
    slab.latent_n <- 0;
    remove ~latent:true (latent_slabs_of slab) slab
  end;
  unlink cache slab;
  Mem.Buddy.free cache.env.buddy ~page:slab.page ~order:cache.order;
  cache.total_slabs <- cache.total_slabs - 1;
  Slab_stats.set_current_slabs cache.stats cache.total_slabs;
  Slab_stats.shrink cache.stats;
  Mem.Pressure.poll cache.env.pressure

(* Incremental shrinking, like kernel shrinkers: at most a few slabs per
   invocation, so reclaim is spread over time rather than bursty. *)
let max_shrink_per_call = 4

(* Walk the free list from the back (oldest first) while the node holds
   more than [keep] free slabs; pre-moved (not yet reclaimable) slabs are
   skipped. A destroyed slab leaves the list, so read its predecessor
   first. *)
let rec shrink_from cache cpu free ~keep destroyed = function
  | Some s when min (free.len - keep) (max_shrink_per_call - destroyed) > 0 ->
      let prev = s.links.prev in
      if
        truly_free s
        || (cache.env.unsafe_destroy_latent && s.in_flight = 0
          && s.latent_n > 0)
      then begin
        destroy_slab cache s;
        Sim.Machine.consume cpu Costs.default.shrink;
        lock_pages cache cpu;
        shrink_from cache cpu free ~keep (destroyed + 1) prev
      end
      else shrink_from cache cpu free ~keep destroyed prev
  | _ -> destroyed

let shrink_node ?keep cache (cpu : Sim.Machine.cpu) node =
  let keep = match keep with Some k -> k | None -> keep_free_target cache in
  let free = node.free_slabs in
  let destroyed = shrink_from cache cpu free ~keep 0 free.tail in
  if destroyed > 0 then event cache cpu Shrink destroyed;
  destroyed

let refill_from_node cache (cpu : Sim.Machine.cpu) ~want ~select =
  if want <= 0 then 0
  else begin
    let pc = pcpu_for cache cpu in
    let node = node_for cache cpu in
    lock_node cache cpu node;
    let moved = ref 0 in
    let continue = ref true in
    while !continue && !moved < want do
      match select node with
      | None -> continue := false
      | Some slab ->
          let before = !moved in
          while !moved < want && slab.free_n > 0 do
            push_ocache cache pc (take_free_obj_exn slab);
            incr moved
          done;
          ignore (relocate cache slab);
          (* A selector returning a slab with no free objects would loop. *)
          if !moved = before then continue := false
    done;
    if !moved > 0 then begin
      Slab_stats.refill cache.stats;
      event cache cpu Refill !moved;
      Sim.Machine.consume cpu
        (Costs.default.refill + (!moved * Costs.default.refill_per_obj))
    end;
    !moved
  end

(* Shrink the nodes of [objs.(i .. last)] in reverse order of first
   touch: recurse past each node's first touch and shrink on the way
   back. [seen] is the bitmask of node ids touched before [i]. Every
   read happens on the way down, before the first shrink. *)
let rec shrink_touched cache cpu objs i last seen =
  if i <= last then begin
    let nid = objs.(i).parent.node_id in
    let bit = 1 lsl nid in
    if seen land bit = 0 then begin
      shrink_touched cache cpu objs (i + 1) last (seen lor bit);
      ignore (shrink_node cache cpu cache.nodes.(nid))
    end
    else shrink_touched cache cpu objs (i + 1) last seen
  end

let flush_to_node cache (cpu : Sim.Machine.cpu) ~count =
  let pc = pcpu_for cache cpu in
  let moved = min count pc.ocache_n in
  if moved > 0 then begin
    (* Pop [moved] objects, then return them deepest-popped first. *)
    let objs = pc.ocache and last = pc.ocache_n - 1 in
    let first = pc.ocache_n - moved in
    pc.ocache_n <- first;
    (* Group the lock acquisitions: one per touched node. *)
    let locked = ref 0 in
    for i = first to last do
      let obj = objs.(i) in
      let slab = obj.parent in
      let bit = 1 lsl slab.node_id in
      if !locked land bit = 0 then begin
        locked := !locked lor bit;
        lock_node cache cpu (list_of cache ~node_id:slab.node_id)
      end;
      put_free_obj slab obj;
      ignore (relocate cache slab)
    done;
    Slab_stats.flush cache.stats;
    event cache cpu Flush moved;
    Sim.Machine.consume cpu
      (Costs.default.flush + (moved * Costs.default.flush_per_obj));
    shrink_touched cache cpu objs first last 0
  end

(* Results are the slabs' own [self], so selecting allocates nothing. *)
let rec first_with_free depth = function
  | Some s when depth > 0 ->
      if s.free_n > 0 then s.self else first_with_free (depth - 1) s.links.next
  | _ -> None

let select_slub node =
  (* SLUB picks the first partial slab; with latent awareness, pre-moved
     slabs may have no free objects yet, so scan a few entries. *)
  match first_with_free 16 node.partial.head with
  | Some _ as s -> s
  | None -> first_with_free 16 node.free_slabs.head

let mostly_deferred slab =
  let allocated = slab.capacity - slab.free_n in
  allocated > 0 && 2 * slab.latent_n > allocated

(* Fewer latent objects first (do not steal from slabs that are on their
   way to being entirely free), then denser refills. *)
let better a b =
  if a.latent_n <> b.latent_n then a.latent_n < b.latent_n
  else a.free_n > b.free_n

let rec best_partial best depth = function
  | Some s when depth > 0 ->
      let best =
        if s.free_n > 0 && not (mostly_deferred s) then
          match best with
          | Some cur when not (better s cur) -> best
          | _ -> s.self
        else best
      in
      best_partial best (depth - 1) s.links.next
  | _ -> best

let select_prudence ~scan_depth node =
  match best_partial None scan_depth node.partial.head with
  | Some _ as s -> s
  | None -> first_with_free scan_depth node.free_slabs.head

let set_preflush_scheduled pc v = pc.preflush_scheduled <- v
let note_alloc pc = pc.recent_allocs <- pc.recent_allocs + 1
let note_release pc = pc.recent_releases <- pc.recent_releases + 1

let decay_rates pc =
  (* 7/8 retention per grace period: the estimate spans the "recent few
     grace period intervals" of §4.2 and rides out transient stalls. *)
  pc.recent_allocs <- pc.recent_allocs - (pc.recent_allocs / 8);
  pc.recent_releases <- pc.recent_releases - (pc.recent_releases / 8)
