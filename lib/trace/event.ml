(* Every kind the engine's tap carries. The first 24 are the timeline
   kinds: the trace rings record them and the fuzz coverage feature ids
   number them ({!kind_index}), so their order is fixed. The rest are
   the object lifecycle and the detection steps of each reclamation
   scheme, plus the allocation-path cost sample; no ring sees them.
   Payloads [a] and [b] per kind; 0 when unused. *)
type kind =
  | Alloc_hit
  | Alloc_miss
  | Refill  (** [a] = objects moved. *)
  | Flush  (** [a] = objects moved. *)
  | Grow  (** [a] = the cache's slab count after growing. *)
  | Shrink  (** [a] = slabs destroyed. *)
  | Defer
      (** Deferred free stamped with its reclamation token. [a] = oid,
          [b] = token. Emitted before the frame's state assert, so
          broken callers reach subscribers. *)
  | Latent_merge  (** [a] = objects merged. *)
  | Premove
  | Preflush  (** [a] = objects moved. *)
  | Gp_start  (** RCU: grace period [a] (start ordinal) began its sweep. *)
  | Gp_end  (** RCU: grace period [a] ended, [b] ns after it started. *)
  | Cb_enqueue  (** [a] = the callback's grace-period cookie. *)
  | Cb_invoke  (** [a] = callbacks invoked. *)
  | Lock_acquire
  | Lock_contended  (** [a] = queueing wait, ns. *)
  | Idle_start
  | Idle_end
  | Ctx_switch
  | Oom
  | Rcu_stall  (** [a] = the stalled grace period's start ordinal. *)
  | Fault_inject  (** [a] = faults fired so far. *)
  | Grow_retry  (** [a] = retry ordinal. *)
  | Emergency_flush  (** [a] = objects freed. *)
  | Alloc  (** Object handed to a mutator. [a] = oid. *)
  | Free
      (** Immediate (non-deferred) release. [a] = oid. Emitted before the
          frame's state assert. *)
  | Pool
      (** Object entered a free pool (object cache or slab freelist): the
          reuse boundary. [a] = oid, [b] = its current token. *)
  | Page_release
      (** Its slab page is about to return to the buddy allocator while
          the object is still latent (deferred). One event per such
          object; never emitted on a legal destroy. [a] = oid,
          [b] = token. *)
  | Reader_access  (** A reader dereferenced an object. [a] = cpu, [b] = oid. *)
  | Gp_request
      (** RCU: grace-period detection requested ([call_rcu] or
          [request_gp]). *)
  | Gp_qs
      (** RCU: [a] = cpu reported a quiescent state; [b] = CPUs still
          holding out ([0] completes the sweep). *)
  | Epoch_request  (** EBR: detection progress requested. *)
  | Epoch_scan
      (** EBR: an advancement attempt while tokens are outstanding — one
          detection start for every open token. *)
  | Epoch_blocked
      (** EBR: [a] = cpu was pinned with a stale announcement in that
          scan. *)
  | Batch_request  (** Hyaline: detection progress requested. *)
  | Batch_seal
      (** Hyaline: batch [a] sealed, credited with [b] active readers. *)
  | Batch_unref
      (** Hyaline: the reader on [a] = cpu released its credit on batch
          [b]. *)
  | Alloc_cost  (** [a] = virtual ns one allocation charged its CPU. *)

type t = {
  time : int;  (** virtual ns *)
  cpu : int;  (** -1 when not CPU-bound (e.g. grace-period bookkeeping) *)
  kind : kind;
  label : string;  (** cache or lock name; "" when none *)
  arg : int;
      (** kind-dependent payload: the emission's [a] (the token for
          [Defer]); 0 otherwise *)
}

let kind_count = 24

(* Timeline kinds keep their numbers (coverage feature ids depend on
   them); every other kind is -1. *)
let kind_index = function
  | Alloc_hit -> 0
  | Alloc_miss -> 1
  | Refill -> 2
  | Flush -> 3
  | Grow -> 4
  | Shrink -> 5
  | Defer -> 6
  | Latent_merge -> 7
  | Premove -> 8
  | Preflush -> 9
  | Gp_start -> 10
  | Gp_end -> 11
  | Cb_enqueue -> 12
  | Cb_invoke -> 13
  | Lock_acquire -> 14
  | Lock_contended -> 15
  | Idle_start -> 16
  | Idle_end -> 17
  | Ctx_switch -> 18
  | Oom -> 19
  | Rcu_stall -> 20
  | Fault_inject -> 21
  | Grow_retry -> 22
  | Emergency_flush -> 23
  | Alloc | Free | Pool | Page_release | Reader_access | Gp_request | Gp_qs
  | Epoch_request | Epoch_scan | Epoch_blocked | Batch_request | Batch_seal
  | Batch_unref | Alloc_cost ->
      -1

let kind_name = function
  | Alloc_hit -> "alloc-hit"
  | Alloc_miss -> "alloc-miss"
  | Refill -> "refill"
  | Flush -> "flush"
  | Grow -> "grow"
  | Shrink -> "shrink"
  | Defer -> "defer-free"
  | Latent_merge -> "latent-merge"
  | Premove -> "premove"
  | Preflush -> "preflush"
  | Gp_start -> "gp-start"
  | Gp_end -> "gp-end"
  | Cb_enqueue -> "cb-enqueue"
  | Cb_invoke -> "cb-invoke"
  | Lock_acquire -> "lock-acquire"
  | Lock_contended -> "lock-contended"
  | Idle_start -> "idle-start"
  | Idle_end -> "idle-end"
  | Ctx_switch -> "ctx-switch"
  | Oom -> "oom"
  | Rcu_stall -> "rcu-stall"
  | Fault_inject -> "fault-inject"
  | Grow_retry -> "grow-retry"
  | Emergency_flush -> "emergency-flush"
  | Alloc -> "alloc"
  | Free -> "free"
  | Pool -> "pool"
  | Page_release -> "page-release"
  | Reader_access -> "reader-access"
  | Gp_request -> "gp-request"
  | Gp_qs -> "gp-qs"
  | Epoch_request -> "epoch-request"
  | Epoch_scan -> "epoch-scan"
  | Epoch_blocked -> "epoch-blocked"
  | Batch_request -> "batch-request"
  | Batch_seal -> "batch-seal"
  | Batch_unref -> "batch-unref"
  | Alloc_cost -> "alloc-cost"
