type t = {
  ncpus : int;
  now : unit -> int;
  rings : Event.t Ring.t array;
      (* one ring per CPU plus a final ring for machine-global events
         (cpu = -1): grace-period bookkeeping has no owning CPU. *)
  gp_latency : Hist.t;
  lock_wait : Hist.t;
  alloc_cost : Hist.t;
}

let make ~ring_capacity ~ncpus ~now =
  {
    ncpus;
    now;
    rings =
      Array.init (ncpus + 1) (fun _ -> Ring.create ~capacity:ring_capacity);
    gp_latency = Hist.create ();
    lock_wait = Hist.create ();
    alloc_cost = Hist.create ();
  }

let ring t cpu =
  if cpu >= 0 && cpu < t.ncpus then t.rings.(cpu) else t.rings.(t.ncpus)

let on_event t kind ~cpu ~label a b =
  (match (kind : Event.kind) with
  | Gp_end -> Hist.record t.gp_latency b
  | Lock_contended -> Hist.record t.lock_wait a
  | Alloc_cost -> Hist.record t.alloc_cost a
  | _ -> ());
  if Event.kind_index kind >= 0 then
    let arg = match kind with Defer -> b | _ -> a in
    Ring.push (ring t cpu) { Event.time = t.now (); cpu; kind; label; arg }

let create ~ring_capacity ~ncpus ~now tap =
  if ncpus <= 0 then invalid_arg "Tracer.create: ncpus must be positive";
  let t = make ~ring_capacity ~ncpus ~now in
  Tap.subscribe tap (on_event t);
  t

let null = make ~ring_capacity:1 ~ncpus:0 ~now:(fun () -> 0)

let ncpus t = t.ncpus
let gp_latency t = t.gp_latency
let lock_wait t = t.lock_wait
let alloc_cost t = t.alloc_cost

let events t =
  let all =
    Array.fold_left (fun acc ring -> List.rev_append (Ring.to_list ring) acc) []
      t.rings
  in
  (* Stable by construction within a ring; merge across rings by time. *)
  List.stable_sort
    (fun (a : Event.t) (b : Event.t) -> compare a.Event.time b.Event.time)
    (List.rev all)

let recent_events t ~cpu n = Ring.recent (ring t cpu) n

let total f t = Array.fold_left (fun acc r -> acc + f r) 0 t.rings
let total_events = total Ring.length
let total_dropped = total Ring.dropped
