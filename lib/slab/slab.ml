(** Facade: the slab allocation layer.

    - {!Size_class}: kmalloc classes and sizing heuristics
    - {!Costs}: the virtual-time cost model (hit / 4x refill / 14x grow)
    - {!Slab_stats}: per-cache statistics behind Figs. 7-11
    - {!Latq}: latent-object queues keyed by grace-period cookie
    - {!Frame}: shared cache/slab/node machinery
    - {!Smr}: pluggable safe-memory-reclamation backend interface
    - {!Ebr}: epoch-based reclamation (DEBRA-amortized advancement)
    - {!Hyaline}: snapshot-free reference-batched retirement
    - {!Slub}: the baseline allocator (deferred frees via [call_rcu])
    - {!Backend}: allocator-agnostic interface used by the workloads *)

module Size_class = Size_class
module Costs = Costs
module Slab_stats = Slab_stats
module Latq = Latq
module Frame = Frame
module Smr = Smr
module Ebr = Ebr
module Hyaline = Hyaline
module Backend = Backend
module Slub = Slub
