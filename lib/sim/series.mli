(** Time series recorded during a simulation (e.g. the Fig. 3 used-memory
    trace, sampled every 10 ms of virtual time). *)

type t

val create : unit -> t

val push : t -> time:int -> float -> unit
(** Append a sample. Times should be non-decreasing (asserted). *)

val length : t -> int

val to_array : t -> (int * float) array
(** Samples in chronological order. *)

val last : t -> (int * float) option
val max_value : t -> float
(** Largest sample value; 0 if empty. *)

val sample_every : Engine.t -> t -> period:int -> (unit -> float) -> unit
(** [sample_every eng s ~period f] records [f ()] every [period] ns until
    the engine stops. The first sample is taken at time [period]. *)

val downsample : t -> max_points:int -> (int * float) array
(** Evenly thin the series to at most [max_points] points (keeps endpoints);
    used when printing long traces. *)
