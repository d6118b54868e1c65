(** Size classes and sizing heuristics.

    Mirrors the SLUB heuristics the paper says Prudence reuses verbatim
    (§4.3): the slab order grows with object size until a minimum object
    count per slab is reached, and the per-CPU object cache shrinks as
    objects get larger ("larger objects are normally optimized for memory
    efficiency, hence have fewer objects in object cache and smaller
    slabs" — the driver of Fig. 6's size trend). *)

val kmalloc_sizes : int array
(** The generic allocation size classes: 8, 16, ..., 8192 bytes. *)

val kmalloc_class : int -> int
(** [kmalloc_class size] is the smallest class >= [size]. Raises
    [Invalid_argument] if [size] exceeds the largest class. *)

val kmalloc_cache_name : int -> string
(** ["kmalloc-64"] style name for a class size. *)

val slab_order : obj_size:int -> page_size:int -> int
(** Pages-per-slab order (0..3): smallest order giving at least 16 objects
    per slab, capped at order 3. Order 0 is picked whenever 16 objects fit
    in a page, so a slab never holds more than [page_size] objects (4,096
    at 4 KiB): its free stack's in-slab offsets fit in 16 bits. *)

val objs_per_slab : obj_size:int -> page_size:int -> order:int -> int
(** Objects that fit in a [2^order]-page slab. At least 1. *)

val object_cache_capacity : obj_size:int -> int
(** Per-CPU object-cache capacity; decreasing in object size
    (120 for tiny objects down to 6 for 8 KiB). *)

val batch_count : capacity:int -> int
(** Objects moved per refill/flush: half the capacity (at least 1). *)

val min_free_slabs : int
(** Free slabs a node keeps before shrinking returns pages (SLUB's
    [min_partial]-style threshold). *)
