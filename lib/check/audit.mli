(** Invariant auditors.

    Each auditor walks one layer's live data structures and returns a list
    of human-readable invariant failures (empty = clean). They are the
    only checkers of the buddy and slab invariants: tests assert an
    empty report, and schedule sweeps and differential replays report
    the findings alongside the oracles'. Auditors never raise and never
    mutate, so they can run at any virtual time. *)

val buddy : Mem.Buddy.t -> string list
(** Free-list coverage, no block overlap, and split/merge conservation:
    the free and allocated block sets must tile [0, total_pages) exactly,
    every block must be naturally aligned for its order, and the page
    totals must match the allocator's own counters. *)

val slab : rcu:Rcu.t -> Slab.Frame.cache -> string list
(** Slab accounting: per-slab occupancy ([free + latent + in_flight =
    capacity], [in_flight >= 0]), list membership (each slab linked once,
    on the list its tag names and its counts dictate,
    {!Slab.Frame.desired_list}; list lengths; the latent-slab list holds
    exactly the slabs with latent objects), object-state tags vs. the
    structure each object actually sits in (each object in at most one),
    cache-level counters ([total_slabs], [live_objs], [latent_count]) vs.
    a recount, and statistics identities ([allocs = hits + misses],
    [grows - shrinks = total_slabs]). The in-flight recount may exceed
    [live + cached] by objects defer-freed through [call_rcu] whose
    callbacks have not run yet (the baseline's extended-lifetime window);
    that surplus is bounded by [rcu]'s callback backlog. Each failure
    names its cache and the slab, object or CPU it concerns. *)

val env : Workloads.Env.t -> string list
(** {!buddy} plus, for every cache the backend knows, {!slab} (against
    [env.rcu]) and the latent-cache auditor.

    Latent-cache accounting vs. reclamation-scheme state: every deferred
    object's token must lie in the valid window — positive and no newer
    than the next token the SMR state could issue, judged against the
    truthful view ([env.smr]) so a frontier-corrupting mutation cannot
    fool the bound. *)
