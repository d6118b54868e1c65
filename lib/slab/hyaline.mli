(** Hyaline-style snapshot-free, reference-batched retirement.

    Tokens are batch ids: retired objects join the open batch; a batch
    seals with one reference per reader active at that instant, each
    credited reader decrements at its outermost exit, and the frontier
    advances over consecutive zero-reference sealed batches. A slow
    reader only pins the batches sealed during its own lifetime.

    Detection is observable on the engine's reclamation event tap
    ({!Sim.Engine.tap}): [Batch_request] from the view's [request],
    [Batch_seal] when a batch seals with its reader credit, and
    [Batch_unref] for each credited reader's decrement. *)

type config = {
  batch_size : int;
  poll_period_ns : int;
  unsafe_drop_refs : bool;
      (** mutant ([drop-retire-batch]): the backend view reclaims
          sealed batches without draining their reader references; the
          oracle view keeps the truthful frontier *)
}

val default_config : config

type t

val create : ?config:config -> cpus:int -> Sim.Engine.t -> t

val smr : t -> Smr.t
(** The allocator's view: honest unless [unsafe_drop_refs]. *)

val oracle_smr : t -> Smr.t
(** The truthful view, immune to the mutation — ground truth for the
    shadow heap and auditors. *)
