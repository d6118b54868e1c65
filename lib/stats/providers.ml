module T = Metrics.Table

(* ---------------- buddy ---------------- *)

type buddy_view = {
  total_pages : int;
  used_pages : int;
  free_pages : int;
  free_blocks_per_order : int array;
  largest_free_order : int;
  watermark : Mem.Pressure.level;
  allocs : int;
  frees : int;
  failed_allocs : int;
}

let buddy_view ~pressure buddy =
  {
    total_pages = Mem.Buddy.total_pages buddy;
    used_pages = Mem.Buddy.used_pages buddy;
    free_pages = Mem.Buddy.free_pages buddy;
    free_blocks_per_order =
      Array.init (Mem.Buddy.max_order buddy + 1) (fun order ->
          Mem.Buddy.free_blocks buddy ~order);
    largest_free_order = Mem.Buddy.largest_free_order buddy;
    watermark = Mem.Pressure.level pressure;
    allocs = Mem.Buddy.alloc_count buddy;
    frees = Mem.Buddy.free_count buddy;
    failed_allocs = Mem.Buddy.failed_allocs buddy;
  }

let level_name = function
  | Mem.Pressure.Normal -> "normal"
  | Mem.Pressure.Low -> "low"
  | Mem.Pressure.Critical -> "critical"

let render_buddy v =
  let header =
    "zone"
    :: List.init (Array.length v.free_blocks_per_order) (fun o ->
           Printf.sprintf "o%d" o)
  in
  let row =
    "Node 0"
    :: Array.to_list (Array.map string_of_int v.free_blocks_per_order)
  in
  let mib pages = float_of_int pages *. 4096. /. (1024. *. 1024.) in
  Printf.sprintf
    "buddy: %d/%d pages used (%.1f/%.1f MiB), watermark %s, largest free \
     order %d, %s allocs / %s frees / %d failed\n%s"
    v.used_pages v.total_pages (mib v.used_pages) (mib v.total_pages)
    (level_name v.watermark)
    v.largest_free_order (T.fmt_i v.allocs) (T.fmt_i v.frees) v.failed_allocs
    (T.render ~header [ row ])

(* ---------------- slab ---------------- *)

type slabwatch = (string, Slab.Slab_stats.snapshot) Hashtbl.t

let slabwatch () : slabwatch = Hashtbl.create 16

type slab_row = {
  cache_name : string;
  obj_size : int;
  active_objs : int;
  total_objs : int;
  total_slabs : int;
  objs_per_slab : int;
  latent_objs : int;
  snap : Slab.Slab_stats.snapshot;
  d_allocs : int;
  d_frees : int;
  d_grows : int;
  d_shrinks : int;
}

let slab_rows ?watch (backend : Slab.Backend.t) =
  let rows = ref [] in
  backend.Slab.Backend.iter_caches (fun (c : Slab.Frame.cache) ->
      let snap = Slab.Slab_stats.snapshot c.Slab.Frame.stats in
      let prev =
        match watch with
        | None -> None
        | Some w -> Hashtbl.find_opt w c.Slab.Frame.name
      in
      Option.iter
        (fun w -> Hashtbl.replace w c.Slab.Frame.name snap)
        watch;
      let d get =
        match prev with Some p -> get snap - get p | None -> get snap
      in
      let module S = Slab.Slab_stats in
      rows :=
        {
          cache_name = c.Slab.Frame.name;
          obj_size = c.Slab.Frame.obj_size;
          active_objs = c.Slab.Frame.live_objs;
          total_objs = c.Slab.Frame.total_slabs * c.Slab.Frame.objs_per_slab;
          total_slabs = c.Slab.Frame.total_slabs;
          objs_per_slab = c.Slab.Frame.objs_per_slab;
          latent_objs = c.Slab.Frame.latent_count;
          snap;
          d_allocs = d (fun s -> s.S.allocs);
          d_frees = d (fun s -> s.S.frees + s.S.deferred_frees);
          d_grows = d (fun s -> s.S.grows);
          d_shrinks = d (fun s -> s.S.shrinks);
        }
        :: !rows);
  List.rev !rows

let render_slabs rows =
  let header =
    [
      "cache"; "objsize"; "active"; "total"; "slabs"; "objs/slab"; "latent";
      "allocs+"; "frees+"; "grows+"; "shrinks+";
    ]
  in
  let table_rows =
    List.map
      (fun r ->
        [
          r.cache_name;
          string_of_int r.obj_size;
          T.fmt_i r.active_objs;
          T.fmt_i r.total_objs;
          string_of_int r.total_slabs;
          string_of_int r.objs_per_slab;
          T.fmt_i r.latent_objs;
          T.fmt_i r.d_allocs;
          T.fmt_i r.d_frees;
          T.fmt_i r.d_grows;
          T.fmt_i r.d_shrinks;
        ])
      rows
  in
  Printf.sprintf
    "slab: %d cache(s); '+' columns count since the previous snapshot\n%s"
    (List.length rows)
    (if table_rows = [] then "(no caches)\n"
     else T.render ~header table_rows)

(* ---------------- rcu ---------------- *)

type rcu_view = {
  gps_completed : int;
  gp_active : bool;
  gp_age_ns : int;
  expedited : bool;
  pending_cbs : int;
  cpu_backlogs : (int * int * int) array;
  max_backlog : int;
  stall_warnings : int;
}

let rcu_view rcu =
  let stats = Rcu.stats rcu in
  {
    gps_completed = Rcu.completed rcu;
    gp_active = Rcu.gp_active rcu;
    gp_age_ns = Rcu.gp_age_ns rcu;
    expedited = Rcu.expedited rcu;
    pending_cbs = Rcu.pending_callbacks rcu;
    cpu_backlogs = Rcu.cpu_backlogs rcu;
    max_backlog = stats.Rcu.max_backlog;
    stall_warnings = stats.Rcu.stall_warnings;
  }

let render_rcu v =
  let header = [ "cpu"; "waiting"; "ready" ] in
  let rows =
    Array.to_list
      (Array.map
         (fun (cpu, waiting, ready) ->
           [ string_of_int cpu; T.fmt_i waiting; T.fmt_i ready ])
         v.cpu_backlogs)
  in
  Printf.sprintf
    "rcu: %d GPs completed, current GP %s, %s; backlog %s cbs (peak %s), %d \
     stall warning(s)\n%s"
    v.gps_completed
    (if v.gp_active then
       Printf.sprintf "active for %.2f ms" (float_of_int v.gp_age_ns /. 1e6)
     else "idle")
    (if v.expedited then "expedited" else "normal")
    (T.fmt_i v.pending_cbs) (T.fmt_i v.max_backlog) v.stall_warnings
    (T.render ~header rows)

(* ---------------- prudence latent state ---------------- *)

type cookie_row = {
  cookie : int;
  ripe : bool;
  in_latent_caches : int;
  in_latent_slabs : int;
}

type latent_view = {
  l_cache_name : string;
  outstanding : int;
  by_cookie : cookie_row list;
  hit_rate_pct : float;
  merge_per_miss : float;
  preflush_per_flush : float;
  premoves : int;
  latent_overflows : int;
}

let latent_views ~smr (backend : Slab.Backend.t) =
  let module S = Slab.Slab_stats in
  let views = ref [] in
  backend.Slab.Backend.iter_caches (fun (c : Slab.Frame.cache) ->
      let snap = S.snapshot c.Slab.Frame.stats in
      (* Deferred frees alone do not imply latent machinery: the SLUB
         baseline routes them through plain RCU callbacks. A cache is
         latent-relevant once an object was actually parked. *)
      if
        c.Slab.Frame.latent_count > 0 || snap.S.merged_objs > 0
        || snap.S.latent_overflows > 0 || snap.S.preflushed_objs > 0
        || snap.S.emergency_flushed_objs > 0
      then begin
        (* cookie -> (in latent caches, in latent slabs) *)
        let by_cookie = Hashtbl.create 16 in
        let bump ~slab_side cookie =
          let cache_n, slab_n =
            Option.value (Hashtbl.find_opt by_cookie cookie) ~default:(0, 0)
          in
          Hashtbl.replace by_cookie cookie
            (if slab_side then (cache_n, slab_n + 1) else (cache_n + 1, slab_n))
        in
        Array.iter
          (fun (pc : Slab.Frame.pcpu) ->
            Slab.Latq.Fifo.iter
              (fun o -> bump ~slab_side:false (Slab.Frame.cookie c o))
              pc.Slab.Frame.latent)
          c.Slab.Frame.pcpus;
        Array.iter
          (Slab.Frame.iter_latent c (fun s ->
               for i = 0 to Slab.Frame.latent_n c s - 1 do
                 bump ~slab_side:true
                   (Slab.Frame.cookie c (Slab.Frame.latent_obj c s i))
               done))
          c.Slab.Frame.nodes;
        let rows =
          Hashtbl.fold
            (fun cookie (cache_n, slab_n) acc ->
              {
                cookie;
                ripe = Slab.Smr.ripe smr cookie;
                in_latent_caches = cache_n;
                in_latent_slabs = slab_n;
              }
              :: acc)
            by_cookie []
          |> List.sort (fun a b -> compare a.cookie b.cookie)
        in
        let ratio num den =
          if den = 0 then 0. else float_of_int num /. float_of_int den
        in
        views :=
          {
            l_cache_name = c.Slab.Frame.name;
            outstanding = c.Slab.Frame.latent_count;
            by_cookie = rows;
            hit_rate_pct = S.hit_rate snap;
            merge_per_miss = ratio snap.S.merged_objs snap.S.misses;
            preflush_per_flush = ratio snap.S.preflushed_objs snap.S.flushes;
            premoves = snap.S.premoves;
            latent_overflows = snap.S.latent_overflows;
          }
          :: !views
      end);
  List.rev !views

let render_latent views =
  if views = [] then
    "prudence: no latent state (baseline allocator or no deferred frees)\n"
  else
    String.concat ""
      (List.map
         (fun v ->
           let header =
             [ "gp cookie"; "state"; "latent caches"; "latent slabs" ]
           in
           let rows =
             List.map
               (fun r ->
                 [
                   string_of_int r.cookie;
                   (if r.ripe then "ripe" else "pending");
                   T.fmt_i r.in_latent_caches;
                   T.fmt_i r.in_latent_slabs;
                 ])
               v.by_cookie
           in
           Printf.sprintf
             "prudence %s: %s latent object(s); hit rate %.1f%%, %.2f merged \
              objs/miss, %.2f preflushed objs/flush, %s premoves, %s latent \
              overflows\n%s"
             v.l_cache_name (T.fmt_i v.outstanding) v.hit_rate_pct
             v.merge_per_miss v.preflush_per_flush (T.fmt_i v.premoves)
             (T.fmt_i v.latent_overflows)
             (if rows = [] then "(all deferred objects already recycled)\n"
              else T.render ~header rows))
         views)

(* ---------------- composition ---------------- *)

let snapshot ?watch (env : Workloads.Env.t) =
  String.concat "\n"
    [
      render_buddy (buddy_view ~pressure:env.Workloads.Env.pressure
                      env.Workloads.Env.buddy);
      render_rcu (rcu_view env.Workloads.Env.rcu);
      render_slabs (slab_rows ?watch env.Workloads.Env.backend);
      render_latent
        (latent_views ~smr:env.Workloads.Env.smr env.Workloads.Env.backend);
    ]

let level_value = function
  | Mem.Pressure.Normal -> 0.
  | Mem.Pressure.Low -> 1.
  | Mem.Pressure.Critical -> 2.

let register_env reg (env : Workloads.Env.t) =
  let buddy = env.Workloads.Env.buddy in
  let pressure = env.Workloads.Env.pressure in
  let rcu = env.Workloads.Env.rcu in
  let backend = env.Workloads.Env.backend in
  let fi f () = float_of_int (f ()) in
  let gauge name = Registry.gauge reg ~name in
  let counter name = Registry.counter reg ~name in
  let derived name = Registry.derived reg ~name in
  (* Engine / scheduler *)
  let eng = env.Workloads.Env.eng in
  gauge "engine.pending" ~unit_:"events"
    ~help:"events queued in the scheduler"
    (fi (fun () -> Sim.Engine.pending eng));
  counter "engine.executed" ~unit_:"events" ~help:"events dispatched so far"
    (fi (fun () -> Sim.Engine.executed eng));
  (* Buddy / pressure *)
  gauge "buddy.used_pages" ~unit_:"pages"
    ~help:"pages allocated from the buddy allocator"
    (fi (fun () -> Mem.Buddy.used_pages buddy));
  gauge "buddy.free_pages" ~unit_:"pages" ~help:"pages still free"
    (fi (fun () -> Mem.Buddy.free_pages buddy));
  derived "buddy.used_mib" ~unit_:"MiB" ~help:"used bytes (Fig. 3 y-axis)"
    (fun () -> float_of_int (Mem.Buddy.used_bytes buddy) /. (1024. *. 1024.));
  counter "buddy.allocs" ~help:"successful block allocations"
    (fi (fun () -> Mem.Buddy.alloc_count buddy));
  counter "buddy.frees" ~help:"block frees"
    (fi (fun () -> Mem.Buddy.free_count buddy));
  counter "buddy.failed_allocs" ~help:"genuine allocation failures"
    (fi (fun () -> Mem.Buddy.failed_allocs buddy));
  gauge "buddy.largest_free_order" ~unit_:"order"
    ~help:"largest order with a free block (-1 = exhausted)"
    (fi (fun () -> Mem.Buddy.largest_free_order buddy));
  for o = 0 to Mem.Buddy.max_order buddy do
    gauge
      (Printf.sprintf "buddy.free_order%d" o)
      ~unit_:"blocks"
      ~help:(Printf.sprintf "free blocks of order %d (buddyinfo column)" o)
      (fi (fun () -> Mem.Buddy.free_blocks buddy ~order:o))
  done;
  gauge "pressure.level" ~help:"0=normal 1=low 2=critical" (fun () ->
      level_value (Mem.Pressure.level pressure));
  (* RCU *)
  counter "rcu.gps_completed" ~unit_:"gps" ~help:"grace periods completed"
    (fi (fun () -> Rcu.completed rcu));
  gauge "rcu.gp_age_ns" ~unit_:"ns"
    ~help:"age of the in-progress grace period (0 = idle)"
    (fi (fun () -> Rcu.gp_age_ns rcu));
  gauge "rcu.pending_cbs" ~unit_:"cbs"
    ~help:"callbacks queued and not yet invoked (backlog)"
    (fi (fun () -> Rcu.pending_callbacks rcu));
  gauge "rcu.expedited" ~help:"1 while callback processing is expedited"
    (fun () -> if Rcu.expedited rcu then 1. else 0.);
  counter "rcu.stall_warnings" ~help:"stall-detector firings"
    (fi (fun () -> (Rcu.stats rcu).Rcu.stall_warnings));
  (* Slab / Prudence aggregates: summed over the backend's caches at read
     time, so caches created after registration are included. *)
  let sum_caches f () =
    let acc = ref 0 in
    backend.Slab.Backend.iter_caches (fun c -> acc := !acc + f c);
    float_of_int !acc
  in
  let sum_stats f =
    sum_caches (fun c ->
        f (Slab.Slab_stats.snapshot c.Slab.Frame.stats))
  in
  let module S = Slab.Slab_stats in
  gauge "slab.active_objs" ~unit_:"objs"
    ~help:"objects currently held by mutators"
    (sum_caches (fun c -> c.Slab.Frame.live_objs));
  gauge "slab.total_slabs" ~unit_:"slabs" ~help:"slabs across all caches"
    (sum_caches (fun c -> c.Slab.Frame.total_slabs));
  gauge "slab.total_objs" ~unit_:"objs" ~help:"object capacity of all slabs"
    (sum_caches (fun c ->
         c.Slab.Frame.total_slabs * c.Slab.Frame.objs_per_slab));
  counter "slab.allocs" ~help:"allocation requests served"
    (sum_stats (fun s -> s.S.allocs));
  counter "slab.frees" ~help:"immediate frees"
    (sum_stats (fun s -> s.S.frees));
  counter "slab.deferred_frees" ~help:"deferred (RCU-retire) frees"
    (sum_stats (fun s -> s.S.deferred_frees));
  counter "slab.refills" ~help:"object-cache refills"
    (sum_stats (fun s -> s.S.refills));
  counter "slab.flushes" ~help:"object-cache flushes"
    (sum_stats (fun s -> s.S.flushes));
  counter "slab.grows" ~help:"slab-cache grows"
    (sum_stats (fun s -> s.S.grows));
  counter "slab.shrinks" ~help:"slab-cache shrinks"
    (sum_stats (fun s -> s.S.shrinks));
  derived "slab.hit_rate_pct" ~unit_:"%"
    ~help:"allocations served from the object cache (Fig. 7)"
    (fun () ->
      let hits = ref 0 and allocs = ref 0 in
      backend.Slab.Backend.iter_caches (fun c ->
          let s = Slab.Slab_stats.snapshot c.Slab.Frame.stats in
          hits := !hits + s.S.hits;
          allocs := !allocs + s.S.allocs);
      if !allocs = 0 then 0.
      else 100. *. float_of_int !hits /. float_of_int !allocs);
  gauge "prudence.latent_outstanding" ~unit_:"objs"
    ~help:"deferred objects in latent caches + latent slabs"
    (sum_caches (fun c -> c.Slab.Frame.latent_count));
  counter "prudence.merged_objs"
    ~help:"ripe latent objects merged into object caches"
    (sum_stats (fun s -> s.S.merged_objs));
  counter "prudence.premoves" ~help:"slab pre-movements"
    (sum_stats (fun s -> s.S.premoves));
  counter "prudence.preflushed_objs" ~help:"objects migrated by idle pre-flush"
    (sum_stats (fun s -> s.S.preflushed_objs));
  counter "prudence.emergency_flushed_objs"
    ~help:"objects freed by emergency reclaim"
    (sum_stats (fun s -> s.S.emergency_flushed_objs));
  counter "prudence.ooms_delayed" ~help:"OOM-delay activations"
    (sum_stats (fun s -> s.S.ooms_delayed));
  (* Grace-period anatomy metrics. Registered only when the Obs recorder
     is armed: recorder off means the registry output is byte-identical
     to a build without lib/obs. *)
  match env.Workloads.Env.obs with
  | None -> ()
  | Some obs ->
      let hist_metrics label h =
        counter
          (Printf.sprintf "obs.%s.count" label)
          ~unit_:"objs" ~help:(Printf.sprintf "%s phase samples" label)
          (fi (fun () -> Trace.Hist.count h));
        derived
          (Printf.sprintf "obs.%s.p50_ns" label)
          ~unit_:"ns" ~help:(Printf.sprintf "%s latency median" label)
          (fun () ->
            match Trace.Hist.percentile_opt h 50. with
            | None -> 0.
            | Some v -> float_of_int v);
        derived
          (Printf.sprintf "obs.%s.p99_ns" label)
          ~unit_:"ns"
          ~help:(Printf.sprintf "%s latency 99th percentile" label)
          (fun () ->
            match Trace.Hist.percentile_opt h 99. with
            | None -> 0.
            | Some v -> float_of_int v)
      in
      List.iter
        (fun p ->
          hist_metrics (Obs.Phase.name p) (Obs.Anatomy.phase_hist obs p))
        Obs.Phase.all;
      hist_metrics "total" (Obs.Anatomy.total_hist obs);
      counter "obs.defers" ~unit_:"objs" ~help:"deferred frees observed"
        (fi (fun () -> Obs.Anatomy.defers obs));
      counter "obs.reuses" ~unit_:"objs" ~help:"deferred slots reused"
        (fi (fun () -> Obs.Anatomy.reuses obs));
      counter "obs.dropped" ~unit_:"objs"
        ~help:"reuses whose token record was missing"
        (fi (fun () -> Obs.Anatomy.dropped obs));
      gauge "obs.frontier" ~help:"truthful reclamation frontier last observed"
        (fi (fun () -> Obs.Anatomy.frontier obs))

let metrics env =
  let reg = Registry.create () in
  register_env reg env;
  List.map
    (fun ((m : Registry.metric), value) -> (m.Registry.name, value))
    (Registry.read_all reg)
