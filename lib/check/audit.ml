(* [err] takes the accumulator explicitly so each call site instantiates
   the format type fresh (a closure would be monomorphized by its first
   use). *)
let err errs fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt

(* Free and allocated blocks must tile [0, total_pages) with naturally
   aligned blocks, and the recounted page totals and per-order free
   block counts must match the counters the allocator maintains
   incrementally (split/merge conservation). *)
let buddy b =
  let errs = ref [] in
  let total = Mem.Buddy.total_pages b in
  let nfree = Array.make (Mem.Buddy.max_order b + 1) 0 in
  let expected = ref 0 in
  let free_sum = ref 0 and used_sum = ref 0 in
  List.iter
    (fun (page, order, is_free) ->
      let size = 1 lsl order in
      let where =
        Printf.sprintf "%s block page %d order %d"
          (if is_free then "free" else "allocated")
          page order
      in
      if page land (size - 1) <> 0 then
        err errs "buddy: %s is not naturally aligned" where;
      if page < !expected then
        err errs "buddy: %s overlaps the previous block (expected page %d)" where
          !expected
      else if page > !expected then
        err errs "buddy: pages %d..%d covered by no block (next is %s)" !expected
          (page - 1) where;
      expected := max !expected (page + size);
      if is_free then begin
        free_sum := !free_sum + size;
        nfree.(order) <- nfree.(order) + 1
      end
      else used_sum := !used_sum + size)
    (Mem.Buddy.blocks b);
  if !expected <> total then
    err errs "buddy: coverage ends at page %d, but the arena has %d pages"
      !expected total;
  if !free_sum <> Mem.Buddy.free_pages b then
    err errs "buddy: free lists hold %d pages but the counter says %d" !free_sum
      (Mem.Buddy.free_pages b);
  if !used_sum <> Mem.Buddy.used_pages b then
    err errs "buddy: allocated blocks hold %d pages but the counter says %d"
      !used_sum (Mem.Buddy.used_pages b);
  Array.iteri
    (fun order n ->
      let counted = Mem.Buddy.free_blocks b ~order in
      if counted <> n then
        err errs
          "buddy: order %d counts %d free blocks but the page table has %d"
          order counted n)
    nfree;
  List.rev !errs

(* Follow a slab list from [head] (through the latent-slab links when
   [latent]), applying [f] to each slab. The lists are intrusive, so a
   broken link can close a cycle: the walk stops at the first slab it
   meets twice and returns it. *)
let walk_chain ~latent head f =
  let open Slab.Frame in
  let seen = Hashtbl.create 16 in
  let rec go = function
    | None -> None
    | Some s when Hashtbl.mem seen s.sid -> Some s
    | Some s ->
        Hashtbl.replace seen s.sid ();
        f s;
        go (if latent then s.latent_links.next else s.links.next)
  in
  go head

let slab ~rcu (cache : Slab.Frame.cache) =
  let errs = ref [] in
  let open Slab.Frame in
  let name = cache.name in
  (* Every object sits in at most one container: a slab's free stack or
     latent list, or a CPU's object or latent cache. *)
  let holder = Hashtbl.create 64 in
  let place o where =
    match Hashtbl.find_opt holder (oid cache o) with
    | Some first ->
        err errs "%s: object %d is in %s and again in %s" name (oid cache o)
          first where
    | None -> Hashtbl.replace holder (oid cache o) where
  in
  (* Walk every slab through the node lists it must live on. *)
  let n_slabs = ref 0 and in_flight_sum = ref 0 and slab_latent_sum = ref 0 in
  Array.iter
    (fun (node : node) ->
      (* The latent-slab list holds exactly the slabs with latent
         objects, each once. *)
      let on_latent_list = Hashtbl.create 8 in
      let check_latent (s : slab) =
        Hashtbl.replace on_latent_list s.sid ();
        if s.latent_n = 0 then
          err errs "%s: slab %d is on node %d's latent-slab list with no \
               latent objects" name s.sid node.nid;
        if s.node_id <> node.nid then
          err errs "%s: slab %d of node %d is on node %d's latent-slab list"
            name s.sid s.node_id node.nid
      in
      Option.iter
        (fun (s : slab) ->
          err errs "%s: slab %d is on node %d's latent-slab list twice" name
            s.sid node.nid)
        (walk_chain ~latent:true node.latent_slabs.head check_latent);
      if Hashtbl.length on_latent_list <> node.latent_slabs.len then
        err errs "%s: node %d's latent-slab list links %d slabs but len = %d"
          name node.nid
          (Hashtbl.length on_latent_list)
          node.latent_slabs.len;
      let walk tag (lst : slab_list) =
        let linked = ref 0 in
        let repeated =
          walk_chain ~latent:false lst.head (fun (s : slab) ->
            incr linked;
            incr n_slabs;
            in_flight_sum := !in_flight_sum + s.in_flight;
            slab_latent_sum := !slab_latent_sum + s.latent_n;
            if s.latent_n > 0 && not (Hashtbl.mem on_latent_list s.sid) then
              err errs "%s: slab %d holds %d latent objects but is not on node \
                   %d's latent-slab list" name s.sid s.latent_n node.nid;
            let latent_rc = Slab.Latq.length s.latent_objs in
            if s.free_n < 0 || s.free_n > Array.length s.free_objs then
              err errs "%s: slab %d has free_n = %d outside its %d-slot free \
                   stack" name s.sid s.free_n (Array.length s.free_objs);
            if latent_rc <> s.latent_n then
              err errs "%s: slab %d latent list holds %d objects but latent_n = %d"
                name s.sid latent_rc s.latent_n;
            if s.in_flight < 0 then
              err errs "%s: slab %d has in_flight = %d" name s.sid s.in_flight;
            if s.free_n + s.latent_n + s.in_flight <> s.capacity then
              err errs
                "%s: slab %d accounting leak: free %d + latent %d + \
                 in-flight %d <> capacity %d"
                name s.sid s.free_n s.latent_n s.in_flight s.capacity;
            if s.on_list <> tag then
              err errs "%s: slab %d tagged %a but found on the %a list" name s.sid
                pp_list_id s.on_list pp_list_id tag;
            let desired = desired_list s in
            if desired <> tag then
              err errs
                "%s: slab %d sits on the %a list, but free %d, latent %d and \
                 in-flight %d put it on the %a list"
                name s.sid pp_list_id tag s.free_n s.latent_n s.in_flight
                pp_list_id desired;
            let where = Printf.sprintf "slab %d's free stack" s.sid in
            for i = 0 to min s.free_n (Array.length s.free_objs) - 1 do
              let o = s.free_objs.(i) in
              place o where;
              if parent cache o != s then
                err errs "%s: object %d on slab %d's freelist has a different \
                     parent" name (oid cache o) s.sid;
              if state cache o <> Free_in_slab then
                err errs "%s: object %d on slab %d's freelist is in state %a"
                  name (oid cache o) s.sid pp_ostate (state cache o)
            done;
            let where = Printf.sprintf "slab %d's latent list" s.sid in
            Slab.Latq.iter
              (fun o ->
                place o where;
                if state cache o <> In_latent_slab then
                  err errs "%s: object %d on slab %d's latent list is in state %a"
                    name (oid cache o) s.sid pp_ostate (state cache o))
              s.latent_objs)
        in
        Option.iter
          (fun (s : slab) ->
            err errs "%s: slab %d is linked twice on node %d's %a list" name
              s.sid node.nid pp_list_id tag)
          repeated;
        if !linked <> lst.len then
          err errs "%s: node %d's %a list links %d slabs but len = %d" name
            node.nid pp_list_id tag !linked lst.len
      in
      walk L_full node.full;
      walk L_partial node.partial;
      walk L_free node.free_slabs)
    cache.nodes;
  if !n_slabs <> cache.total_slabs then
    err errs "%s: node lists hold %d slabs but total_slabs = %d" name !n_slabs
      cache.total_slabs;
  (* Per-CPU caches. *)
  let ocache_sum = ref 0 and latent_cache_sum = ref 0 in
  Array.iter
    (fun (pc : pcpu) ->
      let id = pc.cpu.Sim.Machine.id in
      if pc.ocache_n < 0 || pc.ocache_n > Array.length pc.ocache then
        err errs "%s: cpu%d has ocache_n = %d outside its %d-slot object cache"
          name id pc.ocache_n (Array.length pc.ocache);
      ocache_sum := !ocache_sum + pc.ocache_n;
      latent_cache_sum := !latent_cache_sum + Slab.Latq.Fifo.length pc.latent;
      let where = Printf.sprintf "cpu%d's object cache" id in
      for i = 0 to min pc.ocache_n (Array.length pc.ocache) - 1 do
        let o = pc.ocache.(i) in
        place o where;
        if state cache o <> In_object_cache then
          err errs "%s: object %d in cpu%d's object cache is in state %a" name
            (oid cache o) id pp_ostate (state cache o)
      done;
      let where = Printf.sprintf "cpu%d's latent cache" id in
      Slab.Latq.Fifo.iter
        (fun o ->
          place o where;
          if state cache o <> In_latent_cache then
            err errs "%s: object %d in cpu%d's latent cache is in state %a" name
              (oid cache o) id pp_ostate (state cache o))
        pc.latent)
    cache.pcpus;
  (* In-flight objects are: held by mutators, in object caches, in latent
     caches — plus (baseline only) defer-freed objects whose [call_rcu]
     callback has not released them yet. That surplus is the extended-
     lifetime window and every such object has a pending callback, so the
     RCU backlog bounds it. *)
  let expected_in_flight =
    cache.live_objs + !ocache_sum + !latent_cache_sum
  in
  let surplus = !in_flight_sum - expected_in_flight in
  if surplus < 0 then
    err errs
      "%s: slabs report %d in-flight objects, fewer than live %d + ocache \
       %d + latent-cache %d = %d"
      name !in_flight_sum cache.live_objs !ocache_sum !latent_cache_sum
      expected_in_flight;
  if surplus > Rcu.pending_callbacks rcu then
    err errs
      "%s: %d in-flight objects are neither live nor cached, but only %d \
       RCU callbacks are pending — objects leaked out of accounting"
      name surplus
      (Rcu.pending_callbacks rcu);
  if cache.latent_count <> !slab_latent_sum + !latent_cache_sum then
    err errs
      "%s: latent_count = %d but latent slabs hold %d + latent caches %d"
      name cache.latent_count !slab_latent_sum !latent_cache_sum;
  (* Statistics identities. *)
  let s = Slab.Slab_stats.snapshot cache.stats in
  if s.Slab.Slab_stats.hits + s.Slab.Slab_stats.misses
     <> s.Slab.Slab_stats.allocs
  then
    err errs "%s: stats: hits %d + misses %d <> allocs %d" name
      s.Slab.Slab_stats.hits s.Slab.Slab_stats.misses
      s.Slab.Slab_stats.allocs;
  if s.Slab.Slab_stats.grows - s.Slab.Slab_stats.shrinks
     <> cache.total_slabs
  then
    err errs "%s: stats: grows %d - shrinks %d <> total_slabs %d" name
      s.Slab.Slab_stats.grows s.Slab.Slab_stats.shrinks cache.total_slabs;
  List.rev !errs

(* Every deferred object's cookie must be a reclamation token the SMR
   state could actually have issued: positive, and no newer than the
   token a defer right now would receive (tokens are issued by
   [smr.defer] and that sequence is monotone). *)
let latent ~smr (cache : Slab.Frame.cache) =
  let errs = ref [] in
  let open Slab.Frame in
  let horizon = smr.Slab.Smr.snapshot () in
  let check_cookie where o =
    let c = cookie cache o in
    if c <= 0 then
      err errs "%s: deferred object %d in %s has cookie %d (never stamped?)"
        cache.name (oid cache o) where c
    else if c > horizon then
      err errs
        "%s: deferred object %d in %s waits for token %d, newer than any \
         the %s state could have issued (snapshot %d)"
        cache.name (oid cache o) where c smr.Slab.Smr.scheme horizon
  in
  Array.iter
    (fun (pc : pcpu) ->
      Slab.Latq.Fifo.iter (check_cookie "a latent cache") pc.latent)
    cache.pcpus;
  Array.iter
    (fun (node : node) ->
      let walk (lst : slab_list) =
        ignore
          (walk_chain ~latent:false lst.head (fun (s : slab) ->
               Slab.Latq.iter (check_cookie "a latent slab") s.latent_objs))
      in
      walk node.full;
      walk node.partial;
      walk node.free_slabs)
    cache.nodes;
  List.rev !errs

let env (e : Workloads.Env.t) =
  let acc = ref (buddy e.Workloads.Env.buddy) in
  e.Workloads.Env.backend.Slab.Backend.iter_caches (fun c ->
      acc :=
        !acc
        @ slab ~rcu:e.Workloads.Env.rcu c
        @ latent ~smr:e.Workloads.Env.smr c);
  !acc
