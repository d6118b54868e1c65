type block = { page : int; order : int }

exception Out_of_memory

(* Resizable LIFO of candidate start-pages, one per order. Entries are
   pushed on every insertion into the free table and never removed except
   by [pop]; pages the coalescer has since consumed are left behind as
   stale entries and skipped lazily at pop time (each removal creates at
   most one stale entry, so the debt is bounded by the removal count). *)
module Pstack = struct
  type s = { mutable a : int array; mutable n : int }

  let make () = { a = Array.make 16 0; n = 0 }

  let push s x =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0 in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  (* -1 when empty (start-pages are non-negative). *)
  let pop s =
    if s.n = 0 then -1
    else begin
      s.n <- s.n - 1;
      s.a.(s.n)
    end
end

let page_size = 4096

type t = {
  total_pages : int;
  max_order : int;
  (* free.(o) maps start-page -> unit for each free block of order o *)
  free : (int, unit) Hashtbl.t array;
  (* Per-order pick stacks over [free]: O(1) victim selection instead of
     iterating a hash table. May hold stale pages; [free] is
     authoritative. *)
  stacks : Pstack.s array;
  (* allocated start-page -> order, to validate frees *)
  allocated : (int, int) Hashtbl.t;
  mutable used : int;
  mutable peak_used : int;
  mutable allocs : int;
  mutable frees : int;
  mutable failures : int;
  (* Fault injection: when set, consulted before every alloc; returning
     true refuses the request. Counted separately from genuine failures. *)
  mutable fail_hook : (order:int -> bool) option;
  mutable injected_failures : int;
  mutable prof : Prof.t;
}

let create ?(max_order = 10) ~total_pages () =
  if total_pages <= 0 then invalid_arg "Buddy.create: total_pages";
  if max_order < 0 || max_order > 30 then invalid_arg "Buddy.create: max_order";
  let t =
    {
      total_pages;
      max_order;
      free = Array.init (max_order + 1) (fun _ -> Hashtbl.create 64);
      stacks = Array.init (max_order + 1) (fun _ -> Pstack.make ());
      allocated = Hashtbl.create 256;
      used = 0;
      peak_used = 0;
      allocs = 0;
      frees = 0;
      failures = 0;
      fail_hook = None;
      injected_failures = 0;
      prof = Prof.null;
    }
  in
  (* Seed the free lists: greedily carve the page range into the largest
     aligned power-of-two blocks that fit. *)
  let page = ref 0 in
  while !page < total_pages do
    let order = ref max_order in
    while
      !order > 0
      && (!page land ((1 lsl !order) - 1) <> 0
         || !page + (1 lsl !order) > total_pages)
    do
      decr order
    done;
    Hashtbl.replace t.free.(!order) !page ();
    Pstack.push t.stacks.(!order) !page;
    page := !page + (1 lsl !order)
  done;
  t

(* Every insertion into [free] goes through here so the pick stack stays a
   superset of the table. *)
let insert_free t order page =
  Hashtbl.replace t.free.(order) page ();
  Pstack.push t.stacks.(order) page

let max_order t = t.max_order
let total_pages t = t.total_pages
let used_pages t = t.used
let free_pages t = t.total_pages - t.used
let used_bytes t = t.used * page_size
let peak_used_pages t = t.peak_used
let alloc_count t = t.allocs
let free_count t = t.frees
let failed_allocs t = t.failures
let injected_failures t = t.injected_failures
let set_fail_hook t hook = t.fail_hook <- hook
let set_prof t prof = t.prof <- prof

let free_blocks t =
  let acc = ref [] in
  Array.iteri
    (fun order tbl ->
      Hashtbl.iter (fun page () -> acc := (page, order) :: !acc) tbl)
    t.free;
  List.sort compare !acc

let allocated_blocks t =
  List.sort compare
    (Hashtbl.fold (fun page order acc -> (page, order) :: acc) t.allocated [])

let would_satisfy t ~order =
  if order < 0 || order > t.max_order then
    invalid_arg "Buddy.would_satisfy: order out of range";
  let rec scan o =
    o <= t.max_order && (Hashtbl.length t.free.(o) > 0 || scan (o + 1))
  in
  scan order

let largest_free_order t =
  let rec scan o = if o < 0 then -1 else if Hashtbl.length t.free.(o) > 0 then o else scan (o - 1) in
  scan t.max_order

let take_any t o =
  let tbl = t.free.(o) in
  let st = t.stacks.(o) in
  let rec go () =
    let page = Pstack.pop st in
    if page < 0 then None
    else if Hashtbl.mem tbl page then begin
      Hashtbl.remove tbl page;
      Some page
    end
    else go ()
  in
  go ()

let alloc_inner t ~order =
  match t.fail_hook with
  | Some hook when hook ~order ->
      t.injected_failures <- t.injected_failures + 1;
      None
  | _ ->
  (* Find the smallest order >= requested with a free block. *)
  let rec find o =
    if o > t.max_order then None
    else
      match take_any t o with
      | Some page -> Some (page, o)
      | None -> find (o + 1)
  in
  match find order with
  | None ->
      t.failures <- t.failures + 1;
      None
  | Some (page, found_order) ->
      (* Split down to the requested order, freeing the upper halves. *)
      let o = ref found_order in
      while !o > order do
        decr o;
        insert_free t !o (page + (1 lsl !o))
      done;
      Hashtbl.replace t.allocated page order;
      t.used <- t.used + (1 lsl order);
      if t.used > t.peak_used then t.peak_used <- t.used;
      t.allocs <- t.allocs + 1;
      Some { page; order }

let alloc t ~order =
  if order < 0 || order > t.max_order then
    invalid_arg "Buddy.alloc: order out of range";
  Prof.enter t.prof ~cpu:(-1) Prof.Span.Buddy_alloc;
  let r = alloc_inner t ~order in
  Prof.exit t.prof Prof.Span.Buddy_alloc;
  r

let alloc_exn t ~order =
  match alloc t ~order with Some b -> b | None -> raise Out_of_memory

let free t { page; order } =
  Prof.enter t.prof ~cpu:(-1) Prof.Span.Buddy_free;
  (match Hashtbl.find_opt t.allocated page with
  | Some o when o = order -> Hashtbl.remove t.allocated page
  | Some o ->
      invalid_arg
        (Printf.sprintf "Buddy.free: block at page %d has order %d, not %d"
           page o order)
  | None ->
      invalid_arg
        (Printf.sprintf "Buddy.free: page %d is not an allocated block" page));
  t.used <- t.used - (1 lsl order);
  t.frees <- t.frees + 1;
  (* Coalesce with the buddy while it is free. *)
  let rec coalesce page order =
    if order >= t.max_order then insert_free t order page
    else begin
      let buddy = page lxor (1 lsl order) in
      if buddy + (1 lsl order) <= t.total_pages && Hashtbl.mem t.free.(order) buddy
      then begin
        Hashtbl.remove t.free.(order) buddy;
        coalesce (min page buddy) (order + 1)
      end
      else insert_free t order page
    end
  in
  coalesce page order;
  Prof.exit t.prof Prof.Span.Buddy_free
