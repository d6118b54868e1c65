(** Epoch-based reclamation with DEBRA-style amortized advancement.

    Tokens are global-epoch values: an object deferred at epoch [e]
    ripens once the global epoch reaches [e + 2] (classic three-limbo-
    bag rotation). Advancement is amortized: attempted every 64 defers
    per CPU, on every outermost reader exit, and from a virtual-time
    poller (every 100 µs) armed while tokens are outstanding.

    Detection is observable on the engine's reclamation event tap
    ({!Sim.Engine.tap}): [Epoch_request] from the view's [request],
    [Epoch_scan] for every advancement attempt made while tokens are
    outstanding (a detection start for all open tokens at once), and
    [Epoch_blocked] for each pinned CPU whose stale announcement failed
    that scan. *)

type config = {
  unsafe_no_scan : bool;
      (** mutant ([skip-epoch-advance]): the backend view's frontier
          advances without scanning reader announcements; the oracle
          view keeps the truthful frontier *)
}

val default_config : config

type t

val create : ?config:config -> cpus:int -> Sim.Engine.t -> t

val smr : t -> Smr.t
(** The allocator's view: honest unless [unsafe_no_scan]. *)

val oracle_smr : t -> Smr.t
(** The truthful view, immune to the mutation — ground truth for the
    shadow heap and auditors. *)
