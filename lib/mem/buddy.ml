(* Resizable LIFO of candidate start-pages, one per order. Entries are
   pushed on every insertion of a free block and never removed except by
   [pop]; pages the coalescer has since consumed are left behind as stale
   entries, and [take_any] skips them at pop time by reading the page's
   state byte (each removal creates at most one stale entry, so the debt
   is bounded by the removal count). *)
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

(* The page table holds one byte per page, like the order the kernel
   keeps in [page->private]: [no_block] when the page heads no block,
   [free_tag + o] when it heads a free block of order o, and
   [used_tag + o] when it heads an allocated one. [max_order <= 30]
   keeps the two ranges apart and inside a byte. *)
let no_block = 0
let free_tag = 1
let used_tag = 64

type t = {
  total_pages : int;
  max_order : int;
  pages : Bytes.t;
  nfree : int array;  (* free blocks per order *)
  (* Per-order pick stacks: O(1) victim selection. May hold stale pages;
     the page table is authoritative. *)
  stacks : Pstack.s array;
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

let state t page = Bytes.get_uint8 t.pages page
let set_state t page v = Bytes.set_uint8 t.pages page v

(* Every insertion of a free block goes through here so the pick stack
   stays a superset of the free blocks. *)
let insert_free t order page =
  set_state t page (free_tag + order);
  t.nfree.(order) <- t.nfree.(order) + 1;
  Pstack.push t.stacks.(order) page

let remove_free t order page =
  set_state t page no_block;
  t.nfree.(order) <- t.nfree.(order) - 1

let create ?(max_order = 10) ~total_pages () =
  if total_pages <= 0 then invalid_arg "Buddy.create: total_pages";
  if max_order < 0 || max_order > 30 then invalid_arg "Buddy.create: max_order";
  let t =
    {
      total_pages;
      max_order;
      pages = Bytes.make total_pages '\000';
      nfree = Array.make (max_order + 1) 0;
      stacks = Array.init (max_order + 1) (fun _ -> Pstack.make ());
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
    insert_free t !order !page;
    page := !page + (1 lsl !order)
  done;
  t

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

let free_blocks t ~order = t.nfree.(order)

(* One scan of the page table, from the last page down, so the list
   comes out in page order. *)
let blocks t =
  let acc = ref [] in
  for page = t.total_pages - 1 downto 0 do
    let s = state t page in
    if s >= used_tag then acc := (page, s - used_tag, false) :: !acc
    else if s >= free_tag then acc := (page, s - free_tag, true) :: !acc
  done;
  !acc

let would_satisfy t ~order =
  if order < 0 || order > t.max_order then
    invalid_arg "Buddy.would_satisfy: order out of range";
  let rec scan o = o <= t.max_order && (t.nfree.(o) > 0 || scan (o + 1)) in
  scan order

let largest_free_order t =
  let rec scan o =
    if o < 0 then -1 else if t.nfree.(o) > 0 then o else scan (o - 1)
  in
  scan t.max_order

(* Pop order [o]'s stack until an entry still heads a free block of that
   order; -1 when none does. *)
let rec take_any t o =
  let page = Pstack.pop t.stacks.(o) in
  if page < 0 then -1
  else if state t page = free_tag + o then begin
    remove_free t o page;
    page
  end
  else take_any t o

(* The smallest order >= [o] with a free block: its page after splitting
   it down to [order], or -1. *)
let rec find t ~order o =
  if o > t.max_order then -1
  else
    let page = take_any t o in
    if page < 0 then find t ~order (o + 1)
    else begin
      (* Split down to the requested order, freeing the upper halves. *)
      for h = o - 1 downto order do
        insert_free t h (page + (1 lsl h))
      done;
      page
    end

let alloc_inner t ~order =
  match t.fail_hook with
  | Some hook when hook ~order ->
      t.injected_failures <- t.injected_failures + 1;
      -1
  | _ ->
      let page = find t ~order order in
      if page < 0 then t.failures <- t.failures + 1
      else begin
        set_state t page (used_tag + order);
        t.used <- t.used + (1 lsl order);
        if t.used > t.peak_used then t.peak_used <- t.used;
        t.allocs <- t.allocs + 1
      end;
      page

let alloc t ~order =
  if order < 0 || order > t.max_order then
    invalid_arg "Buddy.alloc: order out of range";
  Prof.enter t.prof ~cpu:(-1) Prof.Span.Buddy_alloc;
  let r = alloc_inner t ~order in
  Prof.exit t.prof Prof.Span.Buddy_alloc;
  r

(* Merge with the buddy while it is free, then insert the result. *)
let rec coalesce t page order =
  let buddy = page lxor (1 lsl order) in
  if
    order < t.max_order
    && buddy < t.total_pages
    && state t buddy = free_tag + order
  then begin
    remove_free t order buddy;
    coalesce t (min page buddy) (order + 1)
  end
  else insert_free t order page

let free t ~page ~order =
  Prof.enter t.prof ~cpu:(-1) Prof.Span.Buddy_free;
  let s =
    if page < 0 || page >= t.total_pages then no_block else state t page
  in
  if s = used_tag + order then set_state t page no_block
  else if s >= used_tag then
    invalid_arg
      (Printf.sprintf "Buddy.free: block at page %d has order %d, not %d" page
         (s - used_tag) order)
  else
    invalid_arg
      (Printf.sprintf "Buddy.free: page %d is not an allocated block" page);
  t.used <- t.used - (1 lsl order);
  t.frees <- t.frees + 1;
  coalesce t page order;
  Prof.exit t.prof Prof.Span.Buddy_free
