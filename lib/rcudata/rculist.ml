(* Array-backed storage, oldest first: [entries.(n - 1)] is the newest.
   An insert appends, and the arrays double when full, so a list of n
   entries is built with O(log n) array allocations. The entry records
   are mutable so the copy-update hot path — the inner loop of the
   endurance/Fig. 3 workloads — allocates nothing beyond the new backing
   object: the *simulated* RCU list still allocates a new version and
   defer-frees the old one through the backend (that is the workload),
   but the simulator no longer rebuilds a cons chain per update. Readers
   track object ids, not entry records, so reusing the record is
   invisible to the premature-reuse checker. *)

type entry = { key : int; mutable value : int; mutable obj : Slab.Frame.objekt }

type t = {
  backend : Slab.Backend.t;
  readers : Rcu.Readers.t;
  cache : Slab.Frame.cache;
  list_name : string;
  (* Parallel to [entries]: [keyarr.(i) = entries.(i).key]. The search
     loop — the single hottest loop in the endurance workloads — scans
     this flat int array instead of chasing a pointer per element. *)
  mutable keyarr : int array;
  (* Slots from [n] up are spare; each holds a live entry, never a
     removed one. *)
  mutable entries : entry array;
  mutable n : int;
}

let create ~backend ~readers ~cache ~name =
  {
    backend;
    readers;
    cache;
    list_name = name;
    keyarr = [||];
    entries = [||];
    n = 0;
  }

let name t = t.list_name
let length t = t.n

(* -1 when absent. The scan runs newest to oldest, the order the
   cons-chain list had, so "the newest shadows" still holds for
   duplicate keys. The annotations keep [=] an int compare: unannotated,
   [scan] is polymorphic and each step calls the generic [caml_equal]. *)
let rec scan (keys : int array) (key : int) i =
  if i < 0 then -1
  else if Array.unsafe_get keys i = key then i
  else scan keys key (i - 1)

let find_idx t key = scan t.keyarr key (t.n - 1)

let insert t cpu ~key ~value =
  match t.backend.Slab.Backend.alloc t.cache cpu with
  | exception Slab.Frame.Oom -> false
  | obj ->
      let n = t.n in
      let e = { key; value; obj } in
      if n = Array.length t.entries then begin
        let cap = max 4 (2 * n) in
        let a = Array.make cap e in
        Array.blit t.entries 0 a 0 n;
        let ka = Array.make cap key in
        Array.blit t.keyarr 0 ka 0 n;
        t.entries <- a;
        t.keyarr <- ka
      end;
      t.entries.(n) <- e;
      t.keyarr.(n) <- key;
      t.n <- n + 1;
      true

let update t cpu ~key ~value =
  let i = find_idx t key in
  if i < 0 then `Absent
  else
    let old = t.entries.(i) in
    match t.backend.Slab.Backend.alloc t.cache cpu with
    | exception Slab.Frame.Oom -> `Oom
    | obj ->
        (* Publish the new version, then defer the old one: pre-existing
           readers may still hold it (Fig. 1). *)
        let old_obj = old.obj in
        old.value <- value;
        old.obj <- obj;
        t.backend.Slab.Backend.free_deferred t.cache cpu old_obj;
        `Updated

let delete t cpu ~key =
  let i = find_idx t key in
  if i < 0 then false
  else begin
    let victim = t.entries.(i) in
    let top = t.n - 1 in
    Array.blit t.entries (i + 1) t.entries i (top - i);
    Array.blit t.keyarr (i + 1) t.keyarr i (top - i);
    t.n <- top;
    (* The vacated top slot must not keep the victim reachable: it takes
       a live entry, or the arrays go when the list empties. *)
    if top = 0 then begin
      t.entries <- [||];
      t.keyarr <- [||]
    end
    else t.entries.(top) <- t.entries.(0);
    t.backend.Slab.Backend.free_deferred t.cache cpu victim.obj;
    true
  end

(* The body of [lookup]'s read-side section. *)
let read_value t cpu key =
  let i = find_idx t key in
  if i < 0 then None
  else begin
    let e = t.entries.(i) in
    (* The reader dereferences the object: track it so reclaiming it
       now would be flagged. *)
    Rcu.Readers.hold t.readers cpu ~oid:(Slab.Frame.oid t.cache e.obj);
    Some e.value
  end

(* [Readers.with_section] without its closure: the section still ends
   when the body raises. *)
let lookup t cpu ~key =
  Rcu.Readers.enter t.readers cpu;
  match read_value t cpu key with
  | v ->
      Rcu.Readers.exit t.readers cpu;
      v
  | exception e ->
      Rcu.Readers.exit t.readers cpu;
      raise e

let read_iter t cpu f =
  Rcu.Readers.with_section t.readers cpu (fun () ->
      for i = t.n - 1 downto 0 do
        let e = t.entries.(i) in
        let oid = Slab.Frame.oid t.cache e.obj in
        Rcu.Readers.hold t.readers cpu ~oid;
        f ~key:e.key ~value:e.value;
        Rcu.Readers.release t.readers cpu ~oid
      done)

let keys t = List.init t.n (fun i -> t.entries.(t.n - 1 - i).key)

let destroy t cpu =
  for i = t.n - 1 downto 0 do
    t.backend.Slab.Backend.free_deferred t.cache cpu t.entries.(i).obj
  done;
  t.entries <- [||];
  t.keyarr <- [||];
  t.n <- 0
