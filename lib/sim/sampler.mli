(** Virtual-time metric sampler.

    A sampler polls a set of named sources ([unit -> float]) at a fixed
    virtual period and records each sweep as one row in a bounded ring
    (oldest rows drop on overflow, like the trace event rings). Rows are
    aligned: every source is read at the same virtual instant, so the
    exported series can be compared column against column.

    Sampling events are daemon events: a running sampler never keeps
    {!Engine.run_until_quiet} alive. Export is deterministic — the same
    engine seed, sources and period produce byte-identical CSV/NDJSON. *)

type t

val create : Engine.t -> ?capacity:int -> period_ns:int -> unit -> t
(** [create eng ~period_ns ()] makes an idle sampler. [capacity] bounds
    the number of retained rows (default 4096; oldest drop first).
    Raises [Invalid_argument] if [period_ns] or [capacity] is not
    positive. *)

val add_source : t -> name:string -> (unit -> float) -> unit
(** Register a source column. Must be called before {!start}; raises
    [Invalid_argument] on duplicate names or after starting. *)

val start : t -> unit
(** Begin sampling every [period_ns] (first sweep one period from now).
    Idempotent. *)

val source_names : t -> string list
(** In registration order (the CSV column order). *)

val rows : t -> int
(** Rows currently retained. *)

val dropped : t -> int
(** Rows evicted by the capacity bound. *)

val to_array : t -> (int * float array) array
(** Retained rows, oldest first: [(time_ns, values)] with one value per
    source in registration order. *)

val series : t -> name:string -> (int * float) array option
(** One source's column as a time series; [None] for unknown names. *)

val to_csv : t -> string
(** Header ["time_ns,<name>,..."] then one row per sweep; floats via
    [%.6g]. *)

val to_ndjson : t -> string
(** One JSON object per line: [{"t":<ns>,"<name>":<value>,...}]. *)
