type t = {
  label : string;
  create_cache : name:string -> obj_size:int -> Frame.cache;
  alloc : Frame.cache -> Sim.Machine.cpu -> Frame.objekt;
  free : Frame.cache -> Sim.Machine.cpu -> Frame.objekt -> unit;
  free_deferred : Frame.cache -> Sim.Machine.cpu -> Frame.objekt -> unit;
  settle : unit -> unit;
  iter_caches : (Frame.cache -> unit) -> unit;
}
