(** Small descriptive-statistics helpers for reporting run-to-run spread
    (the paper reports mean and standard deviation over three runs). *)

type summary = {
  n : int;
  mean : float;
  stdev : float;  (** Sample standard deviation (n-1); 0 when n < 2. *)
  min : float;
  max : float;
}

val summarize : float list -> summary
(** [summarize xs] computes the summary of [xs]. Raises [Invalid_argument]
    on an empty list. *)

val mean : float list -> float
val percent_change : baseline:float -> float -> float
(** [percent_change ~baseline v] is [(v - baseline) / baseline * 100]. *)

val speedup : baseline:float -> float -> float
(** [speedup ~baseline v] is [v /. baseline]. *)
