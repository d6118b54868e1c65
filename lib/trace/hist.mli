(** Log-bucketed (HDR-style) latency histogram.

    Records non-negative integers (virtual nanoseconds) into buckets of
    relative width <= 1/16 (values below 32 are exact), so percentiles are
    accurate to ~6% whatever the magnitude, with O(1) recording and a fixed
    small footprint. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** [record t v] adds one sample. Negative values are clamped to 0. *)

val count : t -> int

val sum : t -> int
(** Exact sum of all recorded values (not bucket-quantized), so callers
    can derive totals and rates without a second accumulator. *)

val mean : t -> float
val min_value : t -> int
val max_value : t -> int

val percentile : t -> float -> int
(** [percentile t p] for [p] in [0..100]: a lower bound of the bucket
    containing the [p]-th percentile sample; within 1/16 relative error of
    the true value. 0 if the histogram is empty. *)

val percentile_opt : t -> float -> int option
(** Like {!percentile} but [None] on an empty histogram, so callers can
    distinguish "no samples" from a genuine 0 ns percentile instead of
    dividing into a default. *)

val mean_opt : t -> float option
(** [None] on an empty histogram; {!mean} returns [0.] there. *)

val fold :
  t -> ('a -> low:int -> high:int -> count:int -> 'a) -> 'a -> 'a
(** Fold over non-empty buckets in increasing value order; each bucket
    covers [low, high). *)
