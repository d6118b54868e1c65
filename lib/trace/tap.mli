(** The reclamation event tap: one typed stream for the object lifecycle
    (alloc, defer, grace-period detection, harvest, reuse) that every
    reclamation observer subscribes to — the shadow heap, the
    grace-period anatomy recorder and the reader checker.

    Each semantic site emits exactly once, with two int payloads, so an
    emission allocates nothing. With no subscriber an emission is one
    load and one branch. Subscribers are called synchronously in
    registration order and must be pure observation: they read the
    virtual clock and their own state, never consume virtual time and
    never schedule events, so a subscribed run is byte-identical to an
    unsubscribed one.

    The kinds are deliberately separate from {!Event.kind}: the trace
    rings and the fuzz coverage feature ids (which number
    {!Event.kind_count} kinds) do not see them. *)

type kind =
  | Alloc  (** Object handed to a mutator. [a] = oid. *)
  | Free
      (** Immediate (non-deferred) release. [a] = oid. Emitted before the
          frame's state assert, so broken callers reach subscribers. *)
  | Defer
      (** Deferred free stamped with its reclamation token. [a] = oid,
          [b] = token. Emitted before the state assert. *)
  | Pool
      (** Object entered a free pool (object cache or slab freelist): the
          reuse boundary. [a] = oid, [b] = its current token. *)
  | Page_release
      (** Its slab page is about to return to the buddy allocator while
          the object is still latent (deferred). One event per such
          object; never emitted on a legal destroy. [a] = oid,
          [b] = token. *)
  | Reader_access
      (** A reader dereferenced an object. [a] = cpu, [b] = oid. *)
  | Gp_request
      (** RCU: grace-period detection requested ([call_rcu] or
          [request_gp]). *)
  | Gp_start  (** RCU: grace period [a] (start ordinal) began its sweep. *)
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

type t

val create : unit -> t
(** A tap with no subscriber. *)

val subscribe : t -> (kind -> int -> int -> unit) -> unit
(** Add a subscriber, called after every earlier one. *)

val armed : t -> bool
(** Whether anything is subscribed. Sites that would have to build a
    payload (a list of latent objects) test this first. *)

val emit : t -> kind -> int -> int -> unit
(** [emit t kind a b] delivers one event to every subscriber. *)
