type t = {
  mutable allocs : int;
  mutable frees : int;
  mutable deferred_frees : int;
  mutable hits : int;
  mutable misses : int;
  mutable refills : int;
  mutable flushes : int;
  mutable grows : int;
  mutable shrinks : int;
  mutable premoves : int;
  mutable merges : int;
  mutable merged_objs : int;
  mutable latent_overflows : int;
  mutable preflush_passes : int;
  mutable preflushed_objs : int;
  mutable ooms_delayed : int;
  mutable grow_retries : int;
  mutable emergency_flushes : int;
  mutable emergency_flushed_objs : int;
  mutable current_slabs : int;
  mutable peak_slabs : int;
}

let create () =
  {
    allocs = 0;
    frees = 0;
    deferred_frees = 0;
    hits = 0;
    misses = 0;
    refills = 0;
    flushes = 0;
    grows = 0;
    shrinks = 0;
    premoves = 0;
    merges = 0;
    merged_objs = 0;
    latent_overflows = 0;
    preflush_passes = 0;
    preflushed_objs = 0;
    ooms_delayed = 0;
    grow_retries = 0;
    emergency_flushes = 0;
    emergency_flushed_objs = 0;
    current_slabs = 0;
    peak_slabs = 0;
  }

let hit t = t.hits <- t.hits + 1
let miss t = t.misses <- t.misses + 1
let alloc t = t.allocs <- t.allocs + 1
let free t = t.frees <- t.frees + 1
let deferred_free t = t.deferred_frees <- t.deferred_frees + 1
let refill t = t.refills <- t.refills + 1
let flush t = t.flushes <- t.flushes + 1
let grow t = t.grows <- t.grows + 1
let shrink t = t.shrinks <- t.shrinks + 1
let premove t = t.premoves <- t.premoves + 1

let merge t ~n =
  t.merges <- t.merges + 1;
  t.merged_objs <- t.merged_objs + n

let latent_overflow t = t.latent_overflows <- t.latent_overflows + 1

let preflush_pass t ~n =
  t.preflush_passes <- t.preflush_passes + 1;
  t.preflushed_objs <- t.preflushed_objs + n

let oom_delayed t = t.ooms_delayed <- t.ooms_delayed + 1
let grow_retry t = t.grow_retries <- t.grow_retries + 1

let emergency_flush t ~n =
  t.emergency_flushes <- t.emergency_flushes + 1;
  t.emergency_flushed_objs <- t.emergency_flushed_objs + n

let set_current_slabs t n =
  t.current_slabs <- n;
  if n > t.peak_slabs then t.peak_slabs <- n

type snapshot = {
  allocs : int;
  frees : int;
  deferred_frees : int;
  hits : int;
  misses : int;
  refills : int;
  flushes : int;
  grows : int;
  shrinks : int;
  premoves : int;
  merges : int;
  merged_objs : int;
  latent_overflows : int;
  preflush_passes : int;
  preflushed_objs : int;
  ooms_delayed : int;
  grow_retries : int;
  emergency_flushes : int;
  emergency_flushed_objs : int;
  current_slabs : int;
  peak_slabs : int;
}

let snapshot (t : t) : snapshot =
  {
    allocs = t.allocs;
    frees = t.frees;
    deferred_frees = t.deferred_frees;
    hits = t.hits;
    misses = t.misses;
    refills = t.refills;
    flushes = t.flushes;
    grows = t.grows;
    shrinks = t.shrinks;
    premoves = t.premoves;
    merges = t.merges;
    merged_objs = t.merged_objs;
    latent_overflows = t.latent_overflows;
    preflush_passes = t.preflush_passes;
    preflushed_objs = t.preflushed_objs;
    ooms_delayed = t.ooms_delayed;
    grow_retries = t.grow_retries;
    emergency_flushes = t.emergency_flushes;
    emergency_flushed_objs = t.emergency_flushed_objs;
    current_slabs = t.current_slabs;
    peak_slabs = t.peak_slabs;
  }

let hit_rate (s : snapshot) =
  if s.allocs = 0 then 0. else 100. *. float_of_int s.hits /. float_of_int s.allocs

let ocache_churns (s : snapshot) = min s.refills s.flushes
let slab_churns (s : snapshot) = min s.grows s.shrinks

let pp fmt (s : snapshot) =
  Format.fprintf fmt
    "allocs=%d hits=%d (%.1f%%) refills=%d flushes=%d grows=%d shrinks=%d \
     slabs=%d (peak %d)"
    s.allocs s.hits (hit_rate s) s.refills s.flushes s.grows s.shrinks
    s.current_slabs s.peak_slabs
