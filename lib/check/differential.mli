(** Differential checking: one recorded workload trace, two allocator
    stacks, identical observable outcomes required.

    A trace is a slot-based alloc/free/defer script generated against an
    occupancy model (operations are always valid: allocate into an empty
    slot, free or defer-free an occupied one). Replaying it against every
    requested allocator/SMR stack must produce the same per-operation
    outcome sequence and the same (empty) safety verdicts — the stacks
    may differ in {e when} memory is reclaimed, never in {e whether} the
    mutator's requests succeed or safety holds. *)

type op =
  | Alloc of int  (** Allocate into slot [i]. *)
  | Free of int  (** Immediately free slot [i]. *)
  | Defer of int  (** Defer-free slot [i] (the RCU-retire path). *)

type trace = {
  n_slots : int;
  obj_size : int;
  gap_ns : int;  (** Virtual-time gap between operations. *)
  ops : op array;
}

val gen :
  ?n_slots:int -> ?n_ops:int -> ?obj_size:int -> ?gap_ns:int ->
  seed:int -> unit -> trace
(** Deterministic in [seed]. Defaults: 64 slots, 2000 ops, 512-byte
    objects, 20 µs between ops (so grace periods elapse mid-trace and
    deferred objects actually cycle back). *)

type outcome =
  | Alloc_ok
  | Alloc_failed
  | Freed
  | Deferred_ok
  | Skipped
      (** The slot was empty at replay time (its alloc failed), so the
          free/defer was not performed. Any divergence here shows up as an
          outcome mismatch against the other stack. *)

type replay = {
  label : string;
  outcomes : outcome array;  (** One per op, in trace order. *)
  oracle_violations : Shadow.violation list;
  reader_violations : string list;
  audit_failures : string list;
  finished : bool;  (** The replay process ran the whole trace. *)
}

val replay : ?seed:int -> ?total_pages:int -> trace -> Workloads.Env.kind -> replay
(** Build the stack for [kind], install the shadow oracle and the reader
    checker, run the trace from a driver process (round-robining CPUs),
    settle the allocator, then audit. *)

type result = {
  ok : bool;
  mismatches : string list;
  replays : replay list;  (** One per kind, in request order. *)
}

val run :
  ?seed:int -> ?total_pages:int -> ?kinds:Workloads.Env.kind list ->
  trace -> result
(** Replay against each stack in [kinds] (default: baseline + Prudence)
    and compare everything to the first: same outcome at every index,
    every oracle clean, every audit clean. [mismatches] lists every
    difference found (capped in the report, never in the comparison). *)

val to_json : result -> Metrics.Json.t
(** The [check --json] 'differential' line: [ok] and the mismatch
    count. *)

val pp_result : Format.formatter -> result -> unit
