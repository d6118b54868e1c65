(** Virtual-time units.

    Simulation time is an [int] number of nanoseconds (63-bit, enough for
    ~292 years of virtual time). These helpers keep unit conversions explicit
    at call sites. *)

val us : int -> int
(** [us n] is [n] microseconds in nanoseconds. *)

val ms : int -> int
(** [ms n] is [n] milliseconds in nanoseconds. *)

val s : int -> int
(** [s n] is [n] seconds in nanoseconds. *)

val to_s : int -> float
(** [to_s t] converts nanoseconds to (float) seconds. *)

val pp : Format.formatter -> int -> unit
(** Pretty-print a time with an adaptive unit (ns/us/ms/s). *)
