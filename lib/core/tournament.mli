(** SMR tournament: the chaos scenario matrix run under {e every}
    reclamation scheme — baseline SLUB (RCU callbacks), RCU+Prudence,
    EBR/DEBRA and Hyaline — rendered as one cross-scheme table plus
    NDJSON for automation.

    Takes the outcomes of {!Chaos.run} with [~obs:true] and adds the
    scheme-comparable columns the chaos report does not need: end-of-run
    limbo occupancy (latent objects + pending RCU callbacks), the
    defer-to-reuse latency percentiles from the object-lifetime
    histogram, and per-phase p99s from the anatomy recorder. *)

val report :
  Workloads.Env.kind list -> Workloads.Chaos.outcome list -> Metrics.Report.t

val to_ndjson :
  Workloads.Env.kind list -> Workloads.Chaos.outcome list -> string
(** One ["scheme"] object per outcome plus a trailing ["summary"] line
    ([ok] = zero safety violations across the table). *)
