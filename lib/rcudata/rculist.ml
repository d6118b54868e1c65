(* Array-backed storage, index 0 = newest (the historical list order).
   The entry records are mutable so the copy-update hot path — the inner
   loop of the endurance/Fig. 3 workloads — allocates nothing beyond the
   new backing object: the *simulated* RCU list still allocates a new
   version and defer-frees the old one through the backend (that is the
   workload), but the simulator no longer rebuilds a cons chain per
   update. Readers track object ids, not entry records, so reusing the
   record is invisible to the premature-reuse checker. *)

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
  mutable entries : entry array;
}

let create ~backend ~readers ~cache ~name =
  { backend; readers; cache; list_name = name; keyarr = [||]; entries = [||] }

let name t = t.list_name
let length t = Array.length t.entries

(* -1 when absent; the same front-to-back scan order the cons-chain list
   had, so "the newest shadows" still holds for duplicate keys. The
   annotations keep [=] an int compare: unannotated, [scan] is
   polymorphic and each step calls the generic [caml_equal]. *)
let rec scan (keys : int array) n (key : int) i =
  if i >= n then -1
  else if Array.unsafe_get keys i = key then i
  else scan keys n key (i + 1)

let find_idx t key = scan t.keyarr (Array.length t.keyarr) key 0

let insert t cpu ~key ~value =
  match t.backend.Slab.Backend.alloc t.cache cpu with
  | exception Slab.Frame.Oom -> false
  | obj ->
      let n = Array.length t.entries in
      let e = { key; value; obj } in
      let a = Array.make (n + 1) e in
      Array.blit t.entries 0 a 1 n;
      let ka = Array.make (n + 1) key in
      Array.blit t.keyarr 0 ka 1 n;
      t.entries <- a;
      t.keyarr <- ka;
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
  let n = Array.length t.entries in
  let i = find_idx t key in
  if i < 0 then false
  else begin
    let victim = t.entries.(i) in
    let a = Array.make (n - 1) victim in
    Array.blit t.entries 0 a 0 i;
    Array.blit t.entries (i + 1) a i (n - 1 - i);
    let ka = Array.make (max 0 (n - 1)) 0 in
    Array.blit t.keyarr 0 ka 0 i;
    Array.blit t.keyarr (i + 1) ka i (n - 1 - i);
    t.entries <- a;
    t.keyarr <- ka;
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
    Rcu.Readers.hold t.readers cpu ~oid:e.obj.Slab.Frame.oid;
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
      Array.iter
        (fun e ->
          Rcu.Readers.hold t.readers cpu ~oid:e.obj.Slab.Frame.oid;
          f ~key:e.key ~value:e.value;
          Rcu.Readers.release t.readers cpu ~oid:e.obj.Slab.Frame.oid)
        t.entries)

let keys t = Array.to_list (Array.map (fun e -> e.key) t.entries)

let destroy t cpu =
  Array.iter
    (fun e -> t.backend.Slab.Backend.free_deferred t.cache cpu e.obj)
    t.entries;
  t.entries <- [||];
  t.keyarr <- [||]
