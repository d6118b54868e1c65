type node = {
  key : int;
  value : int;
  left : node option;
  right : node option;
  obj : Slab.Frame.objekt;
}

type t = {
  backend : Slab.Backend.t;
  readers : Rcu.Readers.t;
  cache : Slab.Frame.cache;
  tree_name : string;
  mutable root : node option;
  mutable count : int;
}

let create ~backend ~readers ~cache ~name =
  { backend; readers; cache; tree_name = name; root = None; count = 0 }

let name t = t.tree_name
let size t = t.count

let rec node_depth = function
  | None -> 0
  | Some n -> 1 + max (node_depth n.left) (node_depth n.right)

let depth t = node_depth t.root

(* Fresh nodes are tracked per operation so that an out-of-memory failure
   midway through a path copy can roll back: unpublished nodes are freed
   immediately (no reader can hold them). *)
let fresh t cpu scratch ~key ~value ~left ~right =
  let obj = t.backend.Slab.Backend.alloc t.cache cpu in
  let n = { key; value; left; right; obj } in
  scratch := n :: !scratch;
  n

let rollback t cpu scratch =
  List.iter
    (fun (n : node) -> t.backend.Slab.Backend.free t.cache cpu n.obj)
    !scratch

let defer t cpu (n : node) =
  t.backend.Slab.Backend.free_deferred t.cache cpu n.obj

(* Path-copying insert: returns the new subtree and the list of replaced
   nodes (the old path), plus whether the key was newly added. *)
let insert t cpu ~key ~value =
  let scratch = ref [] in
  let rec go = function
    | None -> (fresh t cpu scratch ~key ~value ~left:None ~right:None, [], true)
    | Some n when key < n.key ->
        let child, replaced, added = go n.left in
        ( fresh t cpu scratch ~key:n.key ~value:n.value ~left:(Some child)
            ~right:n.right,
          n :: replaced,
          added )
    | Some n when key > n.key ->
        let child, replaced, added = go n.right in
        ( fresh t cpu scratch ~key:n.key ~value:n.value ~left:n.left
            ~right:(Some child),
          n :: replaced,
          added )
    | Some n ->
        (* Replace in place (new version of the same key). *)
        (fresh t cpu scratch ~key ~value ~left:n.left ~right:n.right, [ n ], false)
  in
  match go t.root with
  | new_root, replaced, added ->
      (* Publish the new version, then defer the whole old path: its nodes
         may still be visible to pre-existing readers. *)
      t.root <- Some new_root;
      List.iter (defer t cpu) replaced;
      if added then t.count <- t.count + 1;
      true
  | exception Slab.Frame.Oom ->
      rollback t cpu scratch;
      false

(* Delete via path copying. The removed node's subtrees are re-joined by
   pulling up the rightmost node of the left subtree (also path-copied). *)
let delete t cpu ~key =
  let scratch = ref [] in
  (* pull_max returns (max node payload, new left-subtree, replaced). *)
  let rec pull_max (n : node) =
    match n.right with
    | None -> ((n.key, n.value), n.left, [ n ])
    | Some r ->
        let payload, right', replaced = pull_max r in
        ( payload,
          Some
            (fresh t cpu scratch ~key:n.key ~value:n.value ~left:n.left ~right:right'),
          n :: replaced )
  in
  (* go returns None when the key is absent, otherwise the rebuilt subtree
     (possibly None for an emptied leaf position) plus the replaced path. *)
  let rec go = function
    | None -> None
    | Some n when key < n.key -> (
        match go n.left with
        | None -> None
        | Some (sub, replaced) ->
            Some
              ( Some
                  (fresh t cpu scratch ~key:n.key ~value:n.value ~left:sub
                     ~right:n.right),
                n :: replaced ))
    | Some n when key > n.key -> (
        match go n.right with
        | None -> None
        | Some (sub, replaced) ->
            Some
              ( Some
                  (fresh t cpu scratch ~key:n.key ~value:n.value ~left:n.left
                     ~right:sub),
                n :: replaced ))
    | Some n -> (
        (* Found: join the subtrees. *)
        match (n.left, n.right) with
        | None, None -> Some (None, [ n ])
        | None, r -> Some (r, [ n ])
        | l, None -> Some (l, [ n ])
        | Some l, r ->
            let (mk, mv), left', replaced = pull_max l in
            Some
              ( Some (fresh t cpu scratch ~key:mk ~value:mv ~left:left' ~right:r),
                (n :: replaced) ))
  in
  match go t.root with
  | None -> false
  | Some (new_root, replaced) ->
      t.root <- new_root;
      List.iter (defer t cpu) replaced;
      t.count <- t.count - 1;
      true
  | exception Slab.Frame.Oom ->
      rollback t cpu scratch;
      false

let lookup t cpu ~key =
  Rcu.Readers.with_section t.readers cpu (fun () ->
      let rec go = function
        | None -> None
        | Some n ->
            let oid = Slab.Frame.oid t.cache n.obj in
            Rcu.Readers.hold t.readers cpu ~oid;
            let r =
              if key < n.key then go n.left
              else if key > n.key then go n.right
              else Some n.value
            in
            Rcu.Readers.release t.readers cpu ~oid;
            r
      in
      go t.root)

let to_sorted_list t =
  let rec go acc = function
    | None -> acc
    | Some n -> go ((n.key, n.value) :: go acc n.right) n.left
  in
  go [] t.root

let check_bst_invariant t =
  let rec go lo hi = function
    | None -> ()
    | Some n ->
        assert (lo < n.key && n.key < hi);
        go lo n.key n.left;
        go n.key hi n.right
  in
  go min_int max_int t.root

let destroy t cpu =
  let rec go = function
    | None -> ()
    | Some n ->
        go n.left;
        go n.right;
        defer t cpu n
  in
  go t.root;
  t.root <- None;
  t.count <- 0
