(** Generic transaction engine for the synthetic application benchmarks
    (§5.3): Postmark, Netperf TCP_CRR, ApacheBench and pgbench are modelled
    as streams of transactions, each a sequence of slab-cache operations
    (allocate / free / defer-free on named caches) plus CPU work, separated
    by think time (spent idle, where Prudence may pre-flush).

    Objects a transaction does not release immediately go into a per-CPU,
    per-cache pool ordered oldest-first; later transactions release from
    the pool, so object lifetimes span transactions as they do in the
    kernel (an inode allocated at create is defer-freed at unlink much
    later). *)

type 'cache step =
  | Acquire of 'cache  (** Allocate from the cache into the pool. *)
  | Release of 'cache  (** Immediately free the pool's oldest object. *)
  | Release_deferred of 'cache  (** Defer-free the pool's oldest object. *)
  | Release_newest of 'cache  (** Immediately free the newest (LIFO). *)
  | Work of int  (** Burn CPU ns (syscall work, copying, ...). *)
(** One operation of a transaction. A release on an empty pool does
    nothing. *)

type op = string step
(** An op as a model writes it, naming its cache. *)

type cache_spec = { cache_name : string; obj_size : int }

type config = {
  bench_name : string;
  caches : cache_spec list;
  standing : (string * int) list;
      (** Objects acquired per CPU at startup and held for the whole run
          (listening sockets, open connections, resident files); they give
          the end-of-run fragmentation ratio a non-zero denominator. *)
  txns : op list array;
      (** The model's transaction shapes, declared once. {!run} resolves
          their cache names up front and compiles each shape into an
          array of ops over cache indices, so a transaction costs only
          its slab calls: no name lookup, no allocation. *)
  next_txn : Sim.Rng.t -> int;
      (** Picks the next transaction: an index into [txns]. {!run}
          calls it once per transaction, before the ops run, on that
          CPU's RNG stream. *)
  txns_per_cpu : int;
  think_ns_mean : float;  (** Idle time between transactions. *)
}

type cache_result = {
  cache_name : string;
  snap : Slab.Slab_stats.snapshot;
  fragmentation : float;  (** Measured after settle, as in §5.4. *)
  lock_contended : int;
  lock_wait_ns : int;
}

type result = {
  label : string;
  bench_name : string;
  txns : int;
  duration_ns : int;
  throughput : float;  (** Transactions per virtual second. *)
  deferred_pct : float;  (** Fig. 12: deferred frees / all frees, %. *)
  caches : cache_result list;
  oom : bool;
  safety_violations : int;
}

val run : Env.t -> config -> result
(** Execute [txns_per_cpu] transactions on every CPU, settle, measure.
    Throughput covers the transaction phase only.
    @raise Invalid_argument ["Appmodel: unknown cache <name>"] before any
    process starts if [txns] or [standing] names a cache missing from
    [caches]. *)
