(** Hierarchical timer wheel over a flat structure-of-arrays event pool.

    The wheel owns no policy: the engine allocates slots in the shared
    {!pool}, fills in time/tie/seq/daemon, and hands the slot index to
    {!add}. Extraction returns whole same-instant batches as intrusive
    singly-linked slot lists (via the pool's [nexts] array) in
    ascending-sequence order — FIFO dispatch order; the engine layers
    the Shuffle tie-break sort on top.

    Geometry: [levels = 3] levels of [2^bits = 65536] one-ns-grained
    buckets (level 0 = single instants), a (time, tie, seq) heap for
    events beyond the [2^48] ns horizon, and a "front" heap for events
    scheduled below the cursor (possible only after [run ~until]
    peeked past the last dispatched instant). *)

(** {1 Flat event pool} *)

type pool = {
  mutable times : int array;
  mutable ties : int array;  (** tie-break key; 0 under Fifo *)
  mutable seqs : int array;
  mutable nexts : int array;
      (** intrusive link: free list and bucket chains; -1 terminates *)
  mutable daemons : bool array;
      (** housekeeping events that do not keep the engine busy *)
  mutable fns : (unit -> unit) array;
  mutable free : int;
  mutable cap : int;
}

val create_pool : unit -> pool
val alloc_slot : pool -> int
val free_slot : pool -> int -> unit

(** {1 Wheel} *)

type t

val create : pool -> t
val add : t -> int -> unit
(** Place a slot by [pool.times.(slot)]. Below-cursor times go to the
    front heap; beyond-horizon times to the overflow heap. *)

val peek_time : t -> int
(** Earliest pending event time, or [max_int] when empty. May cascade
    internally (dispatch order is unaffected). *)

val pop_bucket : t -> int
(** Detach the earliest same-instant slot list (linked via [nexts],
    ascending seq); -1 when empty. *)

(** {1 Gauges} *)

val occupancy : t -> int
(** Events currently held (wheel + overflow + front). *)

val cascades : t -> int
val spills : t -> int
