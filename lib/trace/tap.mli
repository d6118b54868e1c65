(** The event tap: the one stream every instrumented site emits on —
    machine, locks, RCU, slab frame, SLUB, Prudence, EBR, Hyaline and the
    fault injector — and every observer subscribes to: the tracer's rings
    and histograms ({!Tracer}), the shadow heap, the grace-period anatomy
    recorder, the reader checker and the fuzzer's coverage feed.

    Each site emits exactly once, with its CPU ([-1] when none), a label
    (the cache or lock name; [""] when none) and two int payloads (see
    {!Event.kind}), so an emission allocates nothing. With no subscriber
    an emission is one load and one branch. Subscribers are called
    synchronously in registration order and must be pure observation:
    they read the virtual clock and their own state, never consume
    virtual time and never schedule events, so a subscribed run is
    byte-identical to an unsubscribed one. *)

type t

val create : unit -> t
(** A tap with no subscriber. *)

val subscribe :
  t -> (Event.kind -> cpu:int -> label:string -> int -> int -> unit) -> unit
(** Add a subscriber, called after every earlier one. *)

val armed : t -> bool
(** Whether anything is subscribed. Sites that would have to build a
    payload (a list of latent objects) test this first. *)

val emit : t -> Event.kind -> cpu:int -> label:string -> int -> int -> unit
(** [emit t kind ~cpu ~label a b] delivers one event to every
    subscriber. *)
