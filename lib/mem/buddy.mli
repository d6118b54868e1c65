(** Binary buddy page allocator.

    Stands in for the Linux page allocator underneath the slab layer: slab
    caches grow by allocating [2^order] contiguous pages and shrink by
    returning them. The allocator tracks used/free pages so the simulation
    can sample "total used memory" (paper Fig. 3) and detect out-of-memory.

    Pages are identified by index; no real memory is allocated. Double frees
    and frees of never-allocated blocks are detected and raise. *)

type t

type block = private { page : int; order : int }
(** An allocated run of [2^order] contiguous pages starting at [page]. *)

exception Out_of_memory
(** Raised by {!alloc_exn} when the request cannot be satisfied. *)

val page_size : int
(** Bytes per page: 4096. *)

val create : ?max_order:int -> total_pages:int -> unit -> t
(** [create ~total_pages ()] builds an allocator over [total_pages] pages of
    {!page_size} bytes with largest block order [max_order] (default 10,
    i.e. 4 MiB blocks). *)

val alloc : t -> order:int -> block option
(** [alloc t ~order] allocates [2^order] contiguous pages, splitting larger
    blocks as needed; [None] if no block of sufficient order is free. *)

val alloc_exn : t -> order:int -> block
(** Like {!alloc} but raises {!Out_of_memory} on failure. *)

val free : t -> block -> unit
(** Return a block; coalesces with its buddy recursively. Raises
    [Invalid_argument] on double free or foreign blocks. *)

val max_order : t -> int
val total_pages : t -> int
val used_pages : t -> int
val free_pages : t -> int
val used_bytes : t -> int
val peak_used_pages : t -> int

val alloc_count : t -> int
(** Successful allocations so far. *)

val free_count : t -> int

val failed_allocs : t -> int
(** Genuine failures: no free block of sufficient order existed. Does not
    include injected refusals (see {!injected_failures}). *)

val set_fail_hook : t -> (order:int -> bool) option -> unit
(** Fault injection: install a predicate consulted before every {!alloc};
    returning [true] refuses the request ([alloc] returns [None]) without
    touching the free lists. [None] (the default) disables injection. *)

val injected_failures : t -> int
(** Allocations refused by the fail hook; disjoint from {!failed_allocs}. *)

val set_prof : t -> Prof.t -> unit
(** Install a profiler: {!alloc}/{!free} open [buddy.alloc]/[buddy.free]
    spans (global row — the buddy has no notion of the requesting CPU).
    {!Prof.null} (the default) makes the probes no-ops. *)

val would_satisfy : t -> order:int -> bool
(** [would_satisfy t ~order] is [true] iff a free block of order >= [order]
    exists — i.e. an [alloc] failure at this instant was injected, not
    genuine exhaustion. Lets callers distinguish transient faults (worth
    retrying with backoff) from real OOM. *)

val largest_free_order : t -> int
(** Largest order with a free block, or -1 if memory is exhausted. *)

val free_blocks : t -> (int * int) list
(** Every free block as [(start_page, order)], sorted by start page. For
    external auditors (coverage / overlap / conservation checks). *)

val allocated_blocks : t -> (int * int) list
(** Every allocated block as [(start_page, order)], sorted by start page. *)
