(** First-class allocator interface.

    Workloads and RCU-protected data structures are written against this
    record so the same benchmark code runs over the SLUB baseline and over
    Prudence — the comparison the whole evaluation depends on. *)

type t = {
  label : string;
      (** The allocator stack's name: "slub", "prudence", "ebr-debra" or
          "hyaline". *)
  create_cache : name:string -> obj_size:int -> Frame.cache;
      (** Create (or reuse) a named slab cache. *)
  alloc : Frame.cache -> Sim.Machine.cpu -> Frame.objekt;
      (** Allocate one object. Raises {!Frame.Oom} on out-of-memory. *)
  free : Frame.cache -> Sim.Machine.cpu -> Frame.objekt -> unit;
      (** Immediate free (the mutator knows no readers can hold it). *)
  free_deferred : Frame.cache -> Sim.Machine.cpu -> Frame.objekt -> unit;
      (** Defer the free until readers are done: Listing 1 (baseline:
          [call_rcu]) vs Listing 2 (Prudence: [free_deferred]). *)
  settle : unit -> unit;
      (** Wait (in process context) until every deferred object has been
          reclaimed; used before end-of-run measurements. *)
  iter_caches : (Frame.cache -> unit) -> unit;
      (** Iterate every cache created through this backend. *)
}
