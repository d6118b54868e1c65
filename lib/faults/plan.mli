(** Deterministic fault plans.

    A plan is a seed plus a list of fault specs pinned to virtual times;
    {!Injector.install} turns it into scheduled events against a built
    simulation stack. The same plan against the same stack produces the
    same run, event for event — faults are part of the schedule, not
    noise. *)

type spec =
  | Stalled_reader of { cpu : int; at_ns : int; hold_ns : int option }
      (** Enter a read-side critical section on [cpu] at [at_ns] and hold
          it for [hold_ns] ([None] = forever). The CPU reports no
          quiescent states meanwhile, pinning every grace period — the
          adversarial input for any procrastination-based scheme. *)
  | Cpu_stall of { cpu : int; at_ns : int; duration_ns : int }
      (** Suppress scheduler ticks on [cpu] for the window: no context
          switches, so no quiescent states either (models a wedged CPU
          rather than a long reader). *)
  | Alloc_fault of { at_ns : int; duration_ns : int; fail_prob : float }
      (** During the window, every buddy allocation is refused with
          probability [fail_prob] (deterministically, from the plan's
          seed). Refusals count as {!Mem.Buddy.injected_failures}, not
          genuine exhaustion. *)
  | Pressure_spike of { at_ns : int; duration_ns : int; pages : int }
      (** A reserve-grabber seizes up to [pages] pages at [at_ns] and
          releases them all at the end of the window, slamming the system
          into (and out of) memory pressure. *)
  | Cb_flood of { cpu : int; at_ns : int; duration_ns : int; per_ms : int }
      (** The §3.4 DoS: enqueue [per_ms] no-op [call_rcu] callbacks per
          virtual millisecond on [cpu] for the window, competing with real
          reclamation for the throttled invocation budget. *)

type t = { seed : int; specs : spec list }

val make : seed:int -> spec list -> t
val empty : t

val spec_name : spec -> string
val pp : Format.formatter -> t -> unit

val validate : cpus:int -> duration_ns:int -> t -> (unit, string) result
(** Well-formedness against a target stack: every [cpu] in range, times
    non-negative, windows/rates/probabilities in bounds. A spec whose
    [at_ns] is at or past [duration_ns] is well-formed but inert (the run
    ends before it fires) — the minimizer relies on this. *)

val to_compact : t -> string
(** CLI-safe one-token encoding: ["<seed>:<spec>;<spec>;..."] where each
    spec is e.g. [sr,cpu,at,hold|-], [cs,cpu,at,dur], [af,at,dur,prob],
    [ps,at,dur,pages], [cf,cpu,at,dur,per_ms]. Round-trips through
    {!of_compact} exactly (floats use a shortest round-trip form). *)

val of_compact : string -> (t, string) result

val mutate : salt:int -> cpus:int -> duration_ns:int -> t -> t
(** One deterministic mutation step: jitter a spec's time/window/rate,
    retarget its CPU, drop, duplicate-and-perturb, or add a fresh spec.
    The mutation stream is derived from [(t.seed, salt)] only, so the same
    plan and salt always produce the same mutant; the result always
    satisfies {!validate}. *)
