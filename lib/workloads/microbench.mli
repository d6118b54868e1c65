(** The paper's microbenchmark (Fig. 6): kmalloc()/kfree_deferred() pairs
    in a tight loop on every CPU, per object size, reporting pairs executed
    per (virtual) second. *)

type config = {
  pairs_per_cpu : int;  (** Paper: 5M; scaled down by the experiments. *)
  obj_size : int;
}

type result = {
  label : string;
  obj_size : int;
  pairs : int;  (** Pairs actually completed (lower on OOM). *)
  duration_ns : int;
  pairs_per_sec : float;
  oom : bool;
  snap : Slab.Slab_stats.snapshot;
  lock_contended : int;
  lock_wait_ns : int;
  rcu : Rcu.stats;
}

val run : Env.t -> config -> result
(** Runs to completion (or OOM), settles outstanding deferred objects, and
    reports. The pairs/second figure excludes the settle phase, as in the
    paper (which measures the loop itself). *)
