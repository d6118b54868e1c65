type grow_retry_policy = { max_retries : int; base_backoff_ns : int }

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

(* A handle: an index into its env's object store. *)
type objekt = int

(* A slab: an index into its env's slab table; -1 is no slab. *)
type slab = int

type slab_list = { mutable head : slab; mutable tail : slab; mutable len : int }

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
  (* The slab table, indexed by slab: a row of 16 ints per slab in
     [slabs] (the [f_*] offsets below). Empty until the first grow;
     doubles when a grow finds it full. A row names its cache by its
     place in [caches], the caches that have grown, in the order of
     their first grow. *)
  mutable slabs : int array;
  mutable slab_top : int;  (* slabs below [slab_top] have been made *)
  mutable caches : cache array;
  mutable n_caches : int;
  (* The object store, indexed by handle; a slab's objects are the
     handles [base, base + capacity). Every array is empty until the
     first grow and doubles when a grow needs more room. *)
  mutable parents : int array;  (* -1 off a live slab *)
  mutable cookies : int array;
  mutable flags : Bytes.t;  (* state code, plus [touched_bit] *)
  mutable stacks : Bytes.t;
      (* Free stacks: the 16-bit in-slab offset at byte [2 * handle]; a
         slab's stack lives in the entries of its own handles, top at
         [base + free_n - 1]. *)
  mutable latents : Bytes.t;
      (* Latent lists, laid out as the free stacks are, in push order;
         empty until the env's first latent push. *)
  mutable top : int;  (* handles below [top] belong to a range *)
  mutable latent_visits : int;  (* latent entries harvests have walked *)
}

and node = {
  nid : int;
  lock : Sim.Simlock.t;
  full : slab_list;
  partial : slab_list;
  free_slabs : slab_list;
  latent_slabs : slab_list;
      (* Slabs currently holding latent objects, oldest first, linked
         through their latent links: Prudence harvests ripe objects from
         the front after grace periods. *)
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
  mutable total_slabs : int;
  mutable live_objs : int;
  mutable latent_count : int;
  mutable free_target : (unit -> int) option;
  mutable spare : int;
      (* Newest destroyed slab, -1 for none: its row keeps its handle
         range for the next grow, and its [f_next] entry holds the next
         spare. *)
}

exception Oom

let no_slab = -1

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
    slabs = [||];
    slab_top = 0;
    caches = [||];
    n_caches = 0;
    parents = [||];
    cookies = [||];
    flags = Bytes.empty;
    stacks = Bytes.empty;
    latents = Bytes.empty;
    top = 0;
    latent_visits = 0;
  }

let set_grow_retry env p = env.grow_retry <- p
let set_unsafe_destroy_latent env v = env.unsafe_destroy_latent <- v

(* A slab's row in the table: [1 lsl stride_bits] ints, so one slab's
   fields share cache lines the way a record's did. *)
let stride_bits = 4
let f_sid = 0
let f_min_cookie = 1  (* the latent list's least cookie, [max_int] if empty *)
let f_node = 2
let f_page = 3
let f_base = 4
let f_first_oid = 5
let f_capacity = 6
let f_free_n = 7
let f_latent_n = 8
let f_in_flight = 9
let f_list = 10  (* the [list_code] of the node list the slab is on *)

(* Links, -1 at either end: [f_prev]/[f_next] on the node list named by
   [f_list], [f_latent_prev]/[f_latent_next] on the node's latent-slab
   list, which the slab is on exactly while it holds latent objects.
   Each [*_next] is its [*_prev] plus one. *)
let f_prev = 11
let f_next = 12
let f_latent_prev = 13
let f_latent_next = 14
let f_cache = 15  (* the slab's cache's place in [env.caches] *)

(* Slabs are made only by [grow], below [slab_top], and the table never
   shrinks: the row of a slab the frame handed out is in bounds. Entry
   points that take a slab from outside check it with [valid] first. *)
let get env s f = Array.unsafe_get env.slabs ((s lsl stride_bits) + f)
let set env s f v = Array.unsafe_set env.slabs ((s lsl stride_bits) + f) v

let valid env s =
  if s < 0 || s >= env.slab_top then invalid_arg "Frame: not a slab";
  s

(* A list tag is its constructor's position. *)
let list_code = function
  | L_full -> 0
  | L_partial -> 1
  | L_free -> 2
  | L_unlinked -> 3

let list_ids = [| L_full; L_partial; L_free; L_unlinked |]
let on_list_in env s = list_ids.(get env s f_list)
let set_on_list env s l = set env s f_list (list_code l)

(* An object's state is the low bits of its flags byte, in constructor
   order; [touched_bit] records that a mutator has used its memory. *)
let touched_bit = 8

let code_of = function
  | Free_in_slab -> 0
  | In_object_cache -> 1
  | Allocated -> 2
  | In_latent_cache -> 3
  | In_latent_slab -> 4

let states =
  [|
    Free_in_slab; In_object_cache; Allocated; In_latent_cache; In_latent_slab;
  |]

(* Handles are made only by [grow], below [top]: in bounds. *)
let flags env obj = Char.code (Bytes.unsafe_get env.flags obj)

let set_flags env obj f = Bytes.unsafe_set env.flags obj (Char.unsafe_chr f)

let set_state env obj s =
  set_flags env obj (flags env obj land touched_bit lor code_of s)

let state_of env obj = states.(flags env obj land (touched_bit - 1))

let parent_of env obj =
  let s = env.parents.(obj) in
  if s < 0 then invalid_arg "Frame: handle of no live slab";
  s

let of_int env i =
  if i < 0 || i >= env.top then invalid_arg "Frame.of_int: not a handle";
  ignore (parent_of env i);
  i

let cache_of env obj = env.caches.(get env (parent_of env obj) f_cache)

let oid_of env obj =
  let s = parent_of env obj in
  get env s f_first_oid + obj - get env s f_base

let oid (cache : cache) obj = oid_of cache.env obj
let cookie (cache : cache) obj = cache.env.cookies.(obj)
let state (cache : cache) obj = state_of cache.env obj
let parent (cache : cache) obj = parent_of cache.env obj

(* Free-stack entries are two bytes at [2 * handle], in the host's byte
   order. A slab's entries lie inside its handle range, which is below
   [top]: in bounds. *)
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

(* The [i]th entry of [s]'s free stack ([env.stacks]) or latent list
   ([env.latents]), bottom first. *)
let entry entries env s i =
  let base = get env s f_base in
  base + get16u entries (2 * (base + i))

let empty_list () = { head = no_slab; tail = no_slab; len = 0 }

(* Every slab list is linked through one of the slab's two pairs of
   links: [~latent] picks the latent-slab list's. *)
let prev_field ~latent = if latent then f_latent_prev else f_prev

let push env ~latent ~front l s =
  let fp = prev_field ~latent in
  let fn = fp + 1 in
  if front then begin
    set env s fn l.head;
    if l.head >= 0 then set env l.head fp s else l.tail <- s;
    l.head <- s
  end
  else begin
    set env s fp l.tail;
    if l.tail >= 0 then set env l.tail fn s else l.head <- s;
    l.tail <- s
  end;
  l.len <- l.len + 1

let remove env ~latent l s =
  let fp = prev_field ~latent in
  let fn = fp + 1 in
  let p = get env s fp and n = get env s fn in
  if p >= 0 then set env p fn n else l.head <- n;
  if n >= 0 then set env n fp p else l.tail <- p;
  set env s fp no_slab;
  set env s fn no_slab;
  l.len <- l.len - 1

(* Walks read a slab's successor before visiting it, so [f] may move the
   slab it is given to another list. *)
let rec iter_from env fn f s =
  if s >= 0 then begin
    let next = get env s fn in
    f s;
    iter_from env fn f next
  end

let iter_list (cache : cache) f l = iter_from cache.env f_next f l.head

let iter_latent (cache : cache) f node =
  iter_from cache.env f_latent_next f node.latent_slabs.head

let create_cache env ~name ~obj_size ?(latent_aware = false) ?latent_cap () =
  if obj_size <= 0 then invalid_arg "Frame.create_cache: obj_size";
  (* Flushes track the nodes they touch in an int bitmask. *)
  if Sim.Machine.nr_nodes env.machine >= Sys.int_size then
    invalid_arg "Frame.create_cache: too many NUMA nodes";
  let page_size = Mem.Buddy.page_size in
  let order = Size_class.slab_order ~obj_size ~page_size in
  let objs_per_slab = Size_class.objs_per_slab ~obj_size ~page_size ~order in
  (* Free stacks hold 16-bit in-slab offsets. *)
  if objs_per_slab > 0x10000 then
    invalid_arg "Frame.create_cache: too many objects per slab";
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
    objs_per_slab;
    ocache_cap = capacity;
    batch = Size_class.batch_count ~capacity;
    latent_aware;
    latent_cap = (match latent_cap with Some c -> c | None -> capacity);
    env;
    nodes;
    pcpus;
    stats = Slab_stats.create ();
    total_slabs = 0;
    live_objs = 0;
    latent_count = 0;
    free_target = None;
    spare = -1;
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

(* The slab's fields, for readers outside the frame. *)
let field (cache : cache) s f = get cache.env (valid cache.env s) f
let sid cache s = field cache s f_sid
let node_id cache s = field cache s f_node
let capacity cache s = field cache s f_capacity
let free_n cache s = field cache s f_free_n
let latent_n cache s = field cache s f_latent_n
let in_flight cache s = field cache s f_in_flight
let on_list cache s = on_list_in cache.env (valid cache.env s)
let list_next cache s = field cache s f_next
let latent_next cache s = field cache s f_latent_next

let free_obj cache s i =
  if i < 0 || i >= min (free_n cache s) (capacity cache s) then
    invalid_arg "Frame.free_obj: not on the free stack";
  entry cache.env.stacks cache.env s i

let latent_obj cache s i =
  if i < 0 || i >= min (latent_n cache s) (capacity cache s) then
    invalid_arg "Frame.latent_obj: not on the latent list";
  entry cache.env.latents cache.env s i

let truly_free_in env s = get env s f_free_n = get env s f_capacity
let truly_free (cache : cache) s = truly_free_in cache.env (valid cache.env s)

let now cache = Sim.Engine.now (Sim.Machine.engine cache.env.machine)
let prof cache = Sim.Machine.prof cache.env.machine

let emit cache ~cpu kind a b =
  Trace.Tap.emit cache.env.tap kind ~cpu ~label:cache.name a b

let event cache (cpu : Sim.Machine.cpu) kind arg =
  emit cache ~cpu:cpu.id kind arg 0

(* An object event carries the oid, which takes a slab lookup, so it is
   worked out only when something listens. *)
let emit_obj cache ~cpu kind obj b =
  if Trace.Tap.armed cache.env.tap then
    emit cache ~cpu kind (oid_of cache.env obj) b

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

let node_of cache s = cache.nodes.(get cache.env s f_node)

let list_for node = function
  | L_full -> node.full
  | L_partial -> node.partial
  | L_free -> node.free_slabs
  | L_unlinked -> invalid_arg "Frame.list_for: unlinked"

let unlink cache s =
  match on_list_in cache.env s with
  | L_unlinked -> ()
  | l ->
      remove cache.env ~latent:false (list_for (node_of cache s) l) s;
      set_on_list cache.env s L_unlinked

let link cache s target =
  let env = cache.env in
  assert (on_list_in env s = L_unlinked);
  (* Selectors scan from the front: slabs with allocatable objects go to
     the front, while pre-moved all-latent slabs (free only after their
     grace period) queue at the back. *)
  push env ~latent:false ~front:(get env s f_free_n > 0)
    (list_for (node_of cache s) target)
    s;
  set_on_list env s target

(* A slab is on its node's latent-slab list exactly while it holds
   latent objects. *)
let latent_slabs_of cache s = (node_of cache s).latent_slabs

let desired_in cache s =
  let env = cache.env in
  let free_n = get env s f_free_n in
  if free_n = get env s f_capacity then L_free
  else if cache.latent_aware && get env s f_in_flight = 0 then
    (* Every object is free or deferred: the slab is certain to become
       fully free after the grace period (pre-movement, Algorithm 1 l.56). *)
    L_free
  else if free_n = 0 && cache.latent_aware && get env s f_latent_n > 0 then
    (* Full slab with deferred objects: it will soon have free objects
       (pre-movement, Algorithm 1 l.54). *)
    L_partial
  else if free_n = 0 then L_full
  else L_partial

let desired_list cache s = desired_in cache (valid cache.env s)

let relocate cache s =
  let target = desired_in cache (valid cache.env s) in
  if target = on_list_in cache.env s then false
  else begin
    unlink cache s;
    link cache s target;
    true
  end

(* Allocation-free: callers check [free_n] first. *)
let take_free_obj_exn cache s =
  let env = cache.env in
  let n = get env (valid env s) f_free_n - 1 in
  if n < 0 then invalid_arg "Frame.take_free_obj_exn: no free object";
  set env s f_free_n n;
  set env s f_in_flight (get env s f_in_flight + 1);
  entry env.stacks env s n

(* The two entry points to the free pool: anything the shadow-heap oracle
   must vet (a deferred object becoming reusable) passes through one of
   these, whichever allocator policy drives it. *)
let emit_pool cache ~cpu obj =
  if Trace.Tap.armed cache.env.tap then
    emit cache ~cpu Pool (oid_of cache.env obj) cache.env.cookies.(obj)

let put_free_obj cache s obj =
  let env = cache.env in
  if env.parents.(obj) <> s || s < 0 then
    invalid_arg "Frame.put_free_obj: not the object's slab";
  emit_pool cache ~cpu:(-1) obj;
  set_state env obj Free_in_slab;
  let n = get env s f_free_n and base = get env s f_base in
  if n >= get env s f_capacity then
    invalid_arg "Frame.put_free_obj: free stack full";
  set16u env.stacks (2 * (base + n)) (obj - base);
  set env s f_free_n (n + 1);
  set env s f_in_flight (get env s f_in_flight - 1)

(* The first push sizes the stack for a full cache plus the one object a
   free pushes before it flushes. *)
let grow_ocache cache pc =
  let cap = Array.length pc.ocache in
  let stack =
    Array.make (if cap = 0 then cache.ocache_cap + 1 else 2 * cap) 0
  in
  Array.blit pc.ocache 0 stack 0 pc.ocache_n;
  pc.ocache <- stack

let push_ocache cache pc obj =
  emit_pool cache ~cpu:pc.cpu.id obj;
  set_state cache.env obj In_object_cache;
  if pc.ocache_n = Array.length pc.ocache then grow_ocache cache pc;
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
  let env = cache.env in
  emit_obj cache ~cpu:cpu.id Alloc obj 0;
  (* Working sets beyond the LLC make every object touch a cache/TLB miss;
     an allocator that leaks its reclamation backlog pays this on every
     allocation. *)
  let doublings = footprint_doublings cache in
  if doublings > 0 then
    Sim.Machine.consume cpu (doublings * Costs.default.llc_pressure);
  (* First use of this object's memory: the mutator takes cache/TLB misses
     writing it. Recycled objects are hot. *)
  if flags env obj land touched_bit = 0 then begin
    let costs = Costs.default in
    Sim.Machine.consume cpu
      (costs.Costs.cold_touch
      + (cache.obj_size / 256 * costs.Costs.cold_touch_per_256b))
  end;
  set_flags env obj (touched_bit lor code_of Allocated);
  cache.live_objs <- cache.live_objs + 1

let alloc_hit cache cpu pc =
  let obj = pop_ocache_exn pc in
  Slab_stats.hit cache.stats;
  event cache cpu Alloc_hit 0;
  hand_to_user cache cpu obj;
  obj

(* Events go out before the state asserts so a deliberately broken
   caller (mutation self-tests: double free, double defer) reaches the
   oracle before the simulation aborts. *)
let release_from_user cache (cpu : Sim.Machine.cpu) obj =
  emit_obj cache ~cpu:cpu.id Free obj 0;
  assert (flags cache.env obj land (touched_bit - 1) = code_of Allocated);
  cache.live_objs <- cache.live_objs - 1

let stamp_deferred cache (cpu : Sim.Machine.cpu) obj ~cookie =
  let env = cache.env in
  emit_obj cache ~cpu:cpu.id Defer obj cookie;
  assert (flags env obj land (touched_bit - 1) = code_of Allocated);
  env.cookies.(obj) <- cookie;
  cache.live_objs <- cache.live_objs - 1

let obj_to_latent_cache cache pc obj =
  Prof.enter (prof cache) ~cpu:pc.cpu.Sim.Machine.id Prof.Span.Latq_push;
  set_state cache.env obj In_latent_cache;
  cache.latent_count <- cache.latent_count + 1;
  Latq.Fifo.push_back pc.latent ~cookie:cache.env.cookies.(obj) obj;
  Prof.exit (prof cache) Prof.Span.Latq_push

(* The env's first latent push makes the latent array, as large as the
   store, and [reserve] grows it with the store from then on: an env
   that never defers to a slab (SLUB's) never makes it. *)
let obj_to_latent_slab cache obj =
  Prof.enter (prof cache) ~cpu:(-1) Prof.Span.Latq_push;
  let env = cache.env in
  let s = parent_of env obj in
  let n = get env s f_latent_n and base = get env s f_base in
  if n >= get env s f_capacity then
    invalid_arg "Frame.obj_to_latent_slab: latent list full";
  set_state env obj In_latent_slab;
  cache.latent_count <- cache.latent_count + 1;
  if Bytes.length env.latents = 0 then
    env.latents <- Bytes.make (Bytes.length env.stacks) '\000';
  set16u env.latents (2 * (base + n)) (obj - base);
  let cookie = env.cookies.(obj) in
  if cookie < get env s f_min_cookie then set env s f_min_cookie cookie;
  set env s f_latent_n (n + 1);
  set env s f_in_flight (get env s f_in_flight - 1);
  if n = 0 then push env ~latent:true ~front:false (latent_slabs_of cache s) s;
  Prof.exit (prof cache) Prof.Span.Latq_push

let latent_cache_pop_ripe cache pc ~completed =
  if Latq.Fifo.oldest_ripe pc.latent ~completed then begin
    cache.latent_count <- cache.latent_count - 1;
    Some (Latq.Fifo.pop_front pc.latent)
  end
  else None

let latent_cache_merge_ripe cache pc ~completed ~limit =
  Prof.enter (prof cache) ~cpu:pc.cpu.Sim.Machine.id Prof.Span.Latq_harvest;
  let n =
    Latq.Fifo.merge_ripe pc.latent ~completed ~limit ~f:push_ocache cache pc
  in
  cache.latent_count <- cache.latent_count - n;
  Prof.exit (prof cache) Prof.Span.Latq_harvest;
  n

let latent_cache_pop_newest cache pc =
  let obj = Latq.Fifo.pop_back pc.latent in
  cache.latent_count <- cache.latent_count - 1;
  obj

(* Returns at once while the least cookie is unripe. Otherwise one walk
   from newest to oldest hands each ripe object to the free stack and
   slides the waiting ones up to [top + 1 .. n - 1], keeping their push
   order. Ripe objects go newest first: object identity decides
   cold-touch costs, so this order must not drift. *)
let slab_harvest_ripe cache s ~completed =
  let env = cache.env in
  let s = valid env s in
  Prof.enter (prof cache) ~cpu:(-1) Prof.Span.Latq_harvest;
  let n = get env s f_latent_n in
  let ripe =
    if n = 0 || get env s f_min_cookie > completed then 0
    else begin
      env.latent_visits <- env.latent_visits + n;
      let base = get env s f_base in
      let top = ref (n - 1) and min_cookie = ref max_int in
      for i = n - 1 downto 0 do
        let off = get16u env.latents (2 * (base + i)) in
        let c = env.cookies.(base + off) in
        if c <= completed then begin
          (* latent -> free stays inside the slab: in_flight is
             unchanged, but put_free_obj decrements it, so
             pre-compensate. *)
          set env s f_in_flight (get env s f_in_flight + 1);
          put_free_obj cache s (base + off)
        end
        else begin
          set16u env.latents (2 * (base + !top)) off;
          if c < !min_cookie then min_cookie := c;
          decr top
        end
      done;
      let kept = n - 1 - !top in
      Bytes.blit env.latents (2 * (base + !top + 1)) env.latents (2 * base)
        (2 * kept);
      set env s f_latent_n kept;
      set env s f_min_cookie !min_cookie;
      cache.latent_count <- cache.latent_count - (n - kept);
      if kept = 0 then remove env ~latent:true (latent_slabs_of cache s) s;
      n - kept
    end
  in
  Prof.exit (prof cache) Prof.Span.Latq_harvest;
  ripe

(* Room in the store for handles below [n]: every array doubles (at
   least), keeping its contents. The first room is for [first_handles]
   handles, so that even the flags, a byte per handle, are made in the
   major heap: the store's growth costs a grow no minor-heap words. *)
let first_handles = 2048

let reserve env n =
  let len = Array.length env.cookies in
  if n > len then begin
    let len' = max n (max first_handles (2 * len)) in
    let extend a fill =
      let a' = Array.make len' fill in
      Array.blit a 0 a' 0 len;
      a'
    in
    env.parents <- extend env.parents no_slab;
    env.cookies <- extend env.cookies 0;
    let extend_bytes b width =
      let b' = Bytes.make (width * len') '\000' in
      Bytes.blit b 0 b' 0 (width * len);
      b'
    in
    env.flags <- extend_bytes env.flags 1;
    env.stacks <- extend_bytes env.stacks 2;
    if Bytes.length env.latents > 0 then
      env.latents <- extend_bytes env.latents 2
  end

(* Room in the table for slabs below [slab_top + 1]: the table doubles,
   keeping its contents. The first room is for [first_slabs] slabs, a
   table too large for the minor heap, so that its growth costs a grow
   no minor-heap words. *)
let first_slabs = 32

let reserve_slab env =
  let len = Array.length env.slabs in
  if env.slab_top lsl stride_bits = len then begin
    let len' = max (2 * len) (first_slabs lsl stride_bits) in
    let slabs = Array.make len' no_slab in
    Array.blit env.slabs 0 slabs 0 len;
    env.slabs <- slabs
  end

(* The cache's place in [env.caches] from [i] on, which it takes at its
   first grow; an env has a handful of caches, so a scan finds it. *)
let rec cache_index env cache i =
  if i = env.n_caches then begin
    if i = Array.length env.caches then begin
      let caches = Array.make (max 4 (2 * i)) cache in
      Array.blit env.caches 0 caches 0 i;
      env.caches <- caches
    end;
    env.caches.(i) <- cache;
    env.n_caches <- i + 1;
    i
  end
  else if env.caches.(i) == cache then i
  else cache_index env cache (i + 1)

(* A row for a new slab: the cache's newest spare, which keeps its
   handle range and its cache, else a fresh row with [objs_per_slab]
   fresh handles above [top]. The store grows before the table: the
   other order raises SLUB's peak major heap by 1 MiB at [perf --scale
   0.05], with the same words allocated. *)
let take_slab cache =
  let env = cache.env in
  let s = cache.spare in
  if s >= 0 then begin
    cache.spare <- get env s f_next;
    s
  end
  else begin
    let base = env.top in
    reserve env (base + cache.objs_per_slab);
    env.top <- base + cache.objs_per_slab;
    reserve_slab env;
    let s = env.slab_top in
    env.slab_top <- s + 1;
    set env s f_base base;
    set env s f_cache (cache_index env cache 0);
    s
  end

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

(* The new slab, or [no_slab] when no pages could be had. *)
let grow_inner cache (cpu : Sim.Machine.cpu) =
  let backoff =
    match cache.env.grow_retry with
    | Some p -> p.base_backoff_ns
    | None -> 0
  in
  let page = grow_attempt cache cpu ~tries:0 ~backoff in
  if page < 0 then begin
    event cache cpu Oom 0;
    no_slab
  end
  else
    let env = cache.env in
    let sid = env.next_sid in
    env.next_sid <- env.next_sid + 1;
    let capacity = cache.objs_per_slab in
    let s = take_slab cache in
    let base = get env s f_base in
    set env s f_sid sid;
    set env s f_min_cookie max_int;
    set env s f_node cpu.node;
    set env s f_page page;
    set env s f_first_oid env.next_oid;
    set env s f_capacity capacity;
    set env s f_free_n capacity;
    set env s f_latent_n 0;
    set env s f_in_flight 0;
    set_on_list env s L_unlinked;
    set env s f_prev no_slab;
    set env s f_next no_slab;
    set env s f_latent_prev no_slab;
    set env s f_latent_next no_slab;
    (* Handles and oids ascend together; the free stack holds them from
       the top down, so the first pop returns the lowest oid. *)
    env.next_oid <- env.next_oid + capacity;
    for i = 0 to capacity - 1 do
      let obj = base + i in
      env.parents.(obj) <- s;
      env.cookies.(obj) <- 0;
      set_flags env obj (code_of Free_in_slab);
      set16u env.stacks (2 * obj) (capacity - 1 - i)
    done;
    link cache s L_free;
    cache.total_slabs <- cache.total_slabs + 1;
    Slab_stats.set_current_slabs cache.stats cache.total_slabs;
    Slab_stats.grow cache.stats;
    event cache cpu Grow cache.total_slabs;
    Sim.Machine.consume cpu Costs.default.grow;
    lock_pages cache cpu;
    Mem.Pressure.poll env.pressure;
    s

(* May suspend mid-span when the grow-retry policy sleeps; Prof.exit's
   unwind semantics keep the span stack consistent across that. *)
let grow cache (cpu : Sim.Machine.cpu) =
  Prof.enter (prof cache) ~cpu:cpu.id Prof.Span.Slab_grow;
  let s = grow_inner cache cpu in
  Prof.exit (prof cache) Prof.Span.Slab_grow;
  if s < 0 then raise_notrace Oom;
  s

let destroy_slab cache s =
  let env = cache.env in
  let s = valid env s in
  assert (truly_free_in env s
         || (env.unsafe_destroy_latent && get env s f_in_flight = 0));
  (* The page-reuse boundary: report objects still deferred on this page
     before it goes back to the buddy, by descending cookie and oldest
     first within a cookie. Never fires on a non-mutated run (truly-free
     slabs have no latent objects). Then scrub the latent bookkeeping the
     mutated path orphans, so the cache counters stay conserved and only
     the page-level oracle can tell. *)
  let latent_n = get env s f_latent_n in
  if latent_n > 0 then begin
    if Trace.Tap.armed env.tap then
      List.init latent_n (entry env.latents env s)
      |> List.stable_sort (fun a b -> compare env.cookies.(b) env.cookies.(a))
      |> List.iter (fun o ->
             emit cache ~cpu:(-1) Page_release (oid_of env o) env.cookies.(o));
    cache.latent_count <- cache.latent_count - latent_n;
    set env s f_latent_n 0;
    remove env ~latent:true (latent_slabs_of cache s) s
  end;
  unlink cache s;
  (* The slab's row, which keeps its handle range, becomes the cache's
     newest spare. *)
  Array.fill env.parents (get env s f_base) (get env s f_capacity) no_slab;
  set env s f_next cache.spare;
  cache.spare <- s;
  Mem.Buddy.free cache.env.buddy ~page:(get env s f_page) ~order:cache.order;
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
let rec shrink_from cache cpu free ~keep destroyed s =
  if
    s >= 0
    && min (free.len - keep) (max_shrink_per_call - destroyed) > 0
  then begin
    let env = cache.env in
    let prev = get env s f_prev in
    if
      truly_free_in env s
      || (env.unsafe_destroy_latent && get env s f_in_flight = 0
        && get env s f_latent_n > 0)
    then begin
      destroy_slab cache s;
      Sim.Machine.consume cpu Costs.default.shrink;
      lock_pages cache cpu;
      shrink_from cache cpu free ~keep (destroyed + 1) prev
    end
    else shrink_from cache cpu free ~keep destroyed prev
  end
  else destroyed

let shrink_node ?keep cache (cpu : Sim.Machine.cpu) node =
  let keep = match keep with Some k -> k | None -> keep_free_target cache in
  let free = node.free_slabs in
  let destroyed = shrink_from cache cpu free ~keep 0 free.tail in
  if destroyed > 0 then event cache cpu Shrink destroyed;
  destroyed

let refill_from_node cache (cpu : Sim.Machine.cpu) ~want ~select =
  if want <= 0 then 0
  else begin
    let env = cache.env in
    let pc = pcpu_for cache cpu in
    let node = node_for cache cpu in
    lock_node cache cpu node;
    let moved = ref 0 in
    let continue = ref true in
    while !continue && !moved < want do
      let s = select cache node in
      if s < 0 then continue := false
      else begin
        let before = !moved in
        while !moved < want && get env s f_free_n > 0 do
          push_ocache cache pc (take_free_obj_exn cache s);
          incr moved
        done;
        ignore (relocate cache s);
        (* A selector returning a slab with no free objects would loop. *)
        if !moved = before then continue := false
      end
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
    let nid = get cache.env (parent_of cache.env objs.(i)) f_node in
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
    let env = cache.env in
    (* Pop [moved] objects, then return them deepest-popped first. *)
    let objs = pc.ocache and last = pc.ocache_n - 1 in
    let first = pc.ocache_n - moved in
    pc.ocache_n <- first;
    (* Group the lock acquisitions: one per touched node. *)
    let locked = ref 0 in
    for i = first to last do
      let obj = objs.(i) in
      let s = parent_of env obj in
      let nid = get env s f_node in
      let bit = 1 lsl nid in
      if !locked land bit = 0 then begin
        locked := !locked lor bit;
        lock_node cache cpu cache.nodes.(nid)
      end;
      put_free_obj cache s obj;
      ignore (relocate cache s)
    done;
    Slab_stats.flush cache.stats;
    event cache cpu Flush moved;
    Sim.Machine.consume cpu
      (Costs.default.flush + (moved * Costs.default.flush_per_obj));
    shrink_touched cache cpu objs first last 0
  end

(* Selectors return a slab index, or [no_slab], so selecting allocates
   nothing. *)
let rec first_with_free env depth s =
  if s >= 0 && depth > 0 then
    if get env s f_free_n > 0 then s
    else first_with_free env (depth - 1) (get env s f_next)
  else no_slab

let select_slub cache node =
  (* SLUB picks the first partial slab; with latent awareness, pre-moved
     slabs may have no free objects yet, so scan a few entries. *)
  let s = first_with_free cache.env 16 node.partial.head in
  if s >= 0 then s else first_with_free cache.env 16 node.free_slabs.head

let mostly_deferred env s =
  let allocated = get env s f_capacity - get env s f_free_n in
  allocated > 0 && 2 * get env s f_latent_n > allocated

(* Fewer latent objects first (do not steal from slabs that are on their
   way to being entirely free), then denser refills. *)
let better env a b =
  let la = get env a f_latent_n and lb = get env b f_latent_n in
  if la <> lb then la < lb else get env a f_free_n > get env b f_free_n

let rec best_partial env best depth s =
  if s >= 0 && depth > 0 then begin
    let best =
      if get env s f_free_n > 0 && not (mostly_deferred env s) then
        if best >= 0 && not (better env s best) then best else s
      else best
    in
    best_partial env best (depth - 1) (get env s f_next)
  end
  else best

let select_prudence ~scan_depth cache node =
  let s = best_partial cache.env no_slab scan_depth node.partial.head in
  if s >= 0 then s
  else first_with_free cache.env scan_depth node.free_slabs.head

let set_preflush_scheduled pc v = pc.preflush_scheduled <- v
let note_alloc pc = pc.recent_allocs <- pc.recent_allocs + 1
let note_release pc = pc.recent_releases <- pc.recent_releases + 1

let decay_rates pc =
  (* 7/8 retention per grace period: the estimate spans the "recent few
     grace period intervals" of §4.2 and rides out transient stalls. *)
  pc.recent_allocs <- pc.recent_allocs - (pc.recent_allocs / 8);
  pc.recent_releases <- pc.recent_releases - (pc.recent_releases / 8)

module Unsafe = struct
  let set_on_list (cache : cache) s l =
    set_on_list cache.env (valid cache.env s) l

  let set_in_flight (cache : cache) s n =
    set cache.env (valid cache.env s) f_in_flight n
end
