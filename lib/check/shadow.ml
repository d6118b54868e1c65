type state = Live | Deferred of int | Ripe | Reclaimed

let pp_state ppf = function
  | Live -> Format.fprintf ppf "live"
  | Deferred c -> Format.fprintf ppf "deferred(gp %d)" c
  | Ripe -> Format.fprintf ppf "ripe"
  | Reclaimed -> Format.fprintf ppf "reclaimed"

(* Coverage tags, which are also the per-object state the table stores;
   5 = page released while tracked. *)
let tag_unseen = 0
let tag_live = 1
let tag_deferred = 2
let tag_ripe = 3
let tag_reclaimed = 4
let tag_gone = 5

type kind =
  | Early_reuse of { cookie : int; completed : int }
  | Use_after_reclaim of { cpu : int }
  | Page_reuse of { cookie : int; completed : int }
  | Bad_transition of { from : state option; event : string }

type violation = { at_ns : int; oid : int; kind : kind }

let describe v =
  let base = Printf.sprintf "[%d ns] object %d: " v.at_ns v.oid in
  base
  ^
  match v.kind with
  | Early_reuse { cookie; completed } ->
      Printf.sprintf
        "entered a free pool waiting for grace period %d, but only %d had \
         completed (early reuse)"
        cookie completed
  | Use_after_reclaim { cpu } ->
      Printf.sprintf "reader on cpu%d dereferenced it after reclaim" cpu
  | Page_reuse { cookie; completed } ->
      Printf.sprintf
        "its page returned to the buddy allocator while it still waited \
         for grace period %d (only %d completed): premature page reuse"
        cookie completed
  | Bad_transition { from; event } ->
      let from_s =
        match from with
        | None -> "never-seen"
        | Some s -> Format.asprintf "%a" pp_state s
      in
      Printf.sprintf "%s while %s (bad lifecycle transition)" event from_s

(* Bound the log so a badly mutated run inside a long fuzz session cannot
   grow memory without bound: first K violations kept, the rest counted. *)
let max_logged_violations = 64

type t = {
  machine : Sim.Machine.t;
  smr : Slab.Smr.t;  (* the truthful reclamation view, never the mutated one *)
  prof : Prof.t;
  page_reuse : bool;
  early_reuse : bool;
  coverage : Coverage.t option;
  (* Per-object state, flat and indexed by oid (oids are dense and never
     reused): the tag, and while deferred the token waited for. Oids past
     the end were never seen; both arrays double on demand. *)
  mutable tags : Bytes.t;
  mutable cookies : int array;
  mutable tracked : int;
  (* Promotion index: one (cookie, oid) entry per defer, ascending by
     cookie, live in [[lo, hi)]. Entries whose object has since moved on
     (pooled, page-released, deferred again) are skipped when popped. *)
  mutable idx_cookie : int array;
  mutable idx_oid : int array;
  mutable lo : int;
  mutable hi : int;
  mutable violation_log : violation list; (* reversed; first K kept *)
  mutable logged : int;
  mutable dropped : int;
  mutable events : int;
}

let now t = Sim.Engine.now (Sim.Machine.engine t.machine)

let flag t ~oid kind =
  if t.logged < max_logged_violations then begin
    t.violation_log <- { at_ns = now t; oid; kind } :: t.violation_log;
    t.logged <- t.logged + 1
  end
  else t.dropped <- t.dropped + 1

let tag_of t oid =
  if oid >= 0 && oid < Bytes.length t.tags then
    Char.code (Bytes.unsafe_get t.tags oid)
  else tag_unseen

let state t ~oid =
  let tag = tag_of t oid in
  if tag = tag_live then Some Live
  else if tag = tag_deferred then Some (Deferred t.cookies.(oid))
  else if tag = tag_ripe then Some Ripe
  else if tag = tag_reclaimed then Some Reclaimed
  else None

let grow_table t oid =
  let n = ref (max 64 (Bytes.length t.tags)) in
  while !n <= oid do
    n := 2 * !n
  done;
  let tags = Bytes.make !n '\000' and cookies = Array.make !n 0 in
  Bytes.blit t.tags 0 tags 0 (Bytes.length t.tags);
  Array.blit t.cookies 0 cookies 0 (Array.length t.cookies);
  t.tags <- tags;
  t.cookies <- cookies

let set t oid tag =
  if oid >= Bytes.length t.tags then grow_table t oid;
  let from = tag_of t oid in
  (match t.coverage with
  | Some cov -> Coverage.note_transition cov ~from_tag:from ~to_tag:tag
  | None -> ());
  if from = tag_unseen then t.tracked <- t.tracked + 1;
  Bytes.set t.tags oid (Char.unsafe_chr tag)

(* Room for one more index entry at [hi]: slide the live entries to the
   front when at least half the arrays are spent, else double. *)
let index_make_room t =
  let live = t.hi - t.lo and cap = Array.length t.idx_cookie in
  if cap > 0 && 2 * live <= cap then begin
    Array.blit t.idx_cookie t.lo t.idx_cookie 0 live;
    Array.blit t.idx_oid t.lo t.idx_oid 0 live
  end
  else begin
    let n = max 64 (2 * cap) in
    let cookies = Array.make n 0 and oids = Array.make n 0 in
    Array.blit t.idx_cookie t.lo cookies 0 live;
    Array.blit t.idx_oid t.lo oids 0 live;
    t.idx_cookie <- cookies;
    t.idx_oid <- oids
  end;
  t.lo <- 0;
  t.hi <- live

(* Tokens arrive in order on every backend today, so the common case is
   an append. A token below the newest one (a mutant, a future backend)
   is inserted after every entry with a cookie <= it, keeping the index
   sorted and so the promotion exact. *)
let index_push t ~cookie ~oid =
  if t.hi = Array.length t.idx_cookie then index_make_room t;
  let pos =
    if t.hi = t.lo || t.idx_cookie.(t.hi - 1) <= cookie then t.hi
    else begin
      let l = ref t.lo and h = ref (t.hi - 1) in
      (* The first entry with a cookie > [cookie] lies in [[!l, !h]]. *)
      while !l < !h do
        let m = (!l + !h) / 2 in
        if t.idx_cookie.(m) <= cookie then l := m + 1 else h := m
      done;
      Array.blit t.idx_cookie !l t.idx_cookie (!l + 1) (t.hi - !l);
      Array.blit t.idx_oid !l t.idx_oid (!l + 1) (t.hi - !l);
      !l
    end
  in
  t.idx_cookie.(pos) <- cookie;
  t.idx_oid.(pos) <- oid;
  t.hi <- t.hi + 1

(* A mutator received the object. Legal from: fresh (grow carves objects
   straight onto the slab freelist, no pool probe), a free pool, or ripe
   (merge pools it first, but be tolerant of direct handoff). *)
let on_alloc t ~oid =
  t.events <- t.events + 1;
  let from = tag_of t oid in
  if from = tag_live || from = tag_deferred then
    flag t ~oid (Bad_transition { from = state t ~oid; event = "allocated" });
  set t oid tag_live

let on_free t ~oid =
  t.events <- t.events + 1;
  (* Legal only from live; pool entry (on_pool) performs the state
     change. *)
  if tag_of t oid <> tag_live then
    flag t ~oid (Bad_transition { from = state t ~oid; event = "freed" })

let on_defer t ~oid ~cookie =
  t.events <- t.events + 1;
  if tag_of t oid <> tag_live then
    flag t ~oid (Bad_transition { from = state t ~oid; event = "defer-freed" });
  set t oid tag_deferred;
  t.cookies.(oid) <- cookie;
  index_push t ~cookie ~oid

(* The reuse boundary: the object is entering an object cache or slab
   freelist. If it is still waiting for a grace period, consult the live
   RCU state (not the promotion hook, whose registration order vs. other
   GP hooks must not matter): pooling before completion is THE bug class
   this oracle exists for. *)
let on_pool t ~oid =
  t.events <- t.events + 1;
  (* Pool-to-pool moves (refill: slab freelist -> object cache; flush:
     the reverse) re-enter here from [Reclaimed]; that is legal. *)
  (if t.early_reuse && tag_of t oid = tag_deferred then
     let c = t.cookies.(oid) in
     if not (Slab.Smr.ripe t.smr c) then
       flag t ~oid
         (Early_reuse { cookie = c; completed = t.smr.Slab.Smr.ripe_upto () }));
  set t oid tag_reclaimed

(* The page-level reuse boundary: the slab's page is going back to the
   buddy allocator. Any object on it still inside its grace period means
   the page can be re-carved and handed out while readers may still hold
   pointers into it — distinct from (and invisible to) the object-level
   early-reuse check, because the object never re-enters a free pool. *)
let on_page_release t ~oid ~cookie =
  t.events <- t.events + 1;
  let from = tag_of t oid in
  (* A deferred object is judged by its own token (deferred-and-ripe,
     harvest pending, is safe); a never-seen oid by the frame's stamp. *)
  (if t.page_reuse && (from = tag_deferred || from = tag_unseen) then
     let c = if from = tag_deferred then t.cookies.(oid) else cookie in
     if not (Slab.Smr.ripe t.smr c) then
       flag t ~oid
         (Page_reuse { cookie = c; completed = t.smr.Slab.Smr.ripe_upto () }));
  (match t.coverage with
  | Some cov -> Coverage.note_transition cov ~from_tag:from ~to_tag:tag_gone
  | None -> ());
  (* The page is gone; the oid will never be seen again. *)
  if from <> tag_unseen then begin
    t.tracked <- t.tracked - 1;
    Bytes.set t.tags oid (Char.unsafe_chr tag_unseen)
  end

let on_reader_access t ~cpu ~oid =
  t.events <- t.events + 1;
  if tag_of t oid = tag_reclaimed then flag t ~oid (Use_after_reclaim { cpu })

let on_frame_event t (kind : Trace.Tap.kind) a b =
  match kind with
  | Alloc -> on_alloc t ~oid:a
  | Free -> on_free t ~oid:a
  | Defer -> on_defer t ~oid:a ~cookie:b
  | Pool -> on_pool t ~oid:a
  | Page_release -> on_page_release t ~oid:a ~cookie:b
  | _ -> ()

(* Promote every deferred object whose token just ripened: pop the index
   up to [completed], never visiting an entry above it. *)
let on_gp_complete t completed =
  while t.lo < t.hi && t.idx_cookie.(t.lo) <= completed do
    let oid = t.idx_oid.(t.lo) in
    t.lo <- t.lo + 1;
    if tag_of t oid = tag_deferred && t.cookies.(oid) <= completed then
      set t oid tag_ripe
  done

let install ?(page_reuse = true) ?(early_reuse = true) ?coverage
    (env : Workloads.Env.t) =
  let t =
    {
      machine = env.Workloads.Env.machine;
      smr = env.Workloads.Env.smr;
      prof = env.Workloads.Env.prof;
      page_reuse;
      early_reuse;
      coverage;
      tags = Bytes.empty;
      cookies = [||];
      tracked = 0;
      idx_cookie = [||];
      idx_oid = [||];
      lo = 0;
      hi = 0;
      violation_log = [];
      logged = 0;
      dropped = 0;
      events = 0;
    }
  in
  (* Frame events are handled under the [check.probe] span so oracle
     overhead shows up in the prof tables next to the paths it rides on;
     on [Prof.null] each enter/exit is one load and branch. *)
  let prof = t.prof in
  Trace.Tap.subscribe (Sim.Engine.tap env.Workloads.Env.eng) (fun kind a b ->
      match kind with
      | Alloc | Free | Defer | Pool | Page_release ->
          Prof.enter prof ~cpu:(-1) Prof.Span.Check_probe;
          on_frame_event t kind a b;
          Prof.exit prof Prof.Span.Check_probe
      | Reader_access -> on_reader_access t ~cpu:a ~oid:b
      | _ -> ());
  t.smr.Slab.Smr.on_ripen (fun frontier -> on_gp_complete t frontier);
  t

let violations t = List.rev t.violation_log
let violation_count t = t.logged
let dropped_violations t = t.dropped
let tracked t = t.tracked
let events t = t.events
