(** Invariant auditors.

    Each auditor walks one layer's live data structures and returns a list
    of human-readable invariant failures (empty = clean). Unlike the
    [check_invariants] asserts sprinkled through the allocators, auditors
    never raise and never mutate — they can run at any virtual time, from
    the middle of a schedule sweep to the end of a differential replay,
    and their findings are reported alongside the oracle's. *)

val buddy : Mem.Buddy.t -> string list
(** Free-list coverage, no block overlap, and split/merge conservation:
    the free and allocated block sets must tile [0, total_pages) exactly,
    every block must be naturally aligned for its order, and the page
    totals must match the allocator's own counters. *)

val env : Workloads.Env.t -> string list
(** {!buddy} plus, for every cache the backend knows, the slab and
    latent-cache auditors, each failure prefixed with its layer.

    Slab accounting: per-slab occupancy ([free + latent + in_flight =
    capacity]), list-membership tags, object-state tags vs. the structure
    each object actually sits in, cache-level counters ([total_slabs],
    [live_objs], [latent_count]) vs. a recount, and statistics identities
    ([allocs = hits + misses], [grows - shrinks = total_slabs]). The
    in-flight recount may exceed [live + cached] by objects defer-freed
    through [call_rcu] whose callbacks have not run yet (the baseline's
    extended-lifetime window); that surplus is bounded by the RCU
    backlog.

    Latent-cache accounting vs. reclamation-scheme state: every deferred
    object's token must lie in the valid window — positive and no newer
    than the next token the SMR state could issue, judged against the
    truthful view ([env.smr]) so a frontier-corrupting mutation cannot
    fool the bound. *)
