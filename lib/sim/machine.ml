type cpu = {
  id : int;
  node : int;
  mutable pending_ns : int;
  mutable rcu_nesting : int;
  mutable idle : bool;
  mutable stalled : bool;
  mutable ctx_switches : int;
  mutable suppressed_ticks : int;
  mutable idle_work : (unit -> unit) list;
}

type t = {
  engine : Engine.t;
  cpus : cpu array;
  nr_nodes : int;
  tick : int;
  mutable hooks : (cpu -> unit) list;
  mutable started : bool;
  mutable prof : Prof.t;
}

let create engine ~cpus ?(nodes = 1) ?(tick_ns = 1_000_000) () =
  if cpus <= 0 then invalid_arg "Machine.create: need at least one CPU";
  if nodes <= 0 || nodes > cpus then
    invalid_arg "Machine.create: invalid node count";
  let per_node = (cpus + nodes - 1) / nodes in
  let mk id =
    {
      id;
      node = id / per_node;
      pending_ns = 0;
      rcu_nesting = 0;
      idle = false;
      stalled = false;
      ctx_switches = 0;
      suppressed_ticks = 0;
      idle_work = [];
    }
  in
  {
    engine;
    cpus = Array.init cpus mk;
    nr_nodes = nodes;
    tick = tick_ns;
    hooks = [];
    started = false;
    prof = Prof.null;
  }

let engine t = t.engine
let nr_cpus t = Array.length t.cpus
let nr_nodes t = t.nr_nodes
let cpu t i = t.cpus.(i)
let cpus t = t.cpus
let node_of_cpu t i = t.cpus.(i).node
let tick_ns t = t.tick

let on_context_switch t hook = t.hooks <- hook :: t.hooks

let prof t = t.prof

let set_prof t prof =
  t.prof <- prof;
  Engine.set_prof t.engine prof

let context_switch t c =
  c.ctx_switches <- c.ctx_switches + 1;
  Trace.Tap.emit (Engine.tap t.engine) Ctx_switch ~cpu:c.id ~label:"" 0 0;
  List.iter (fun hook -> hook c) t.hooks

let start t =
  if not t.started then begin
    t.started <- true;
    Array.iter
      (fun c ->
        (* Stagger ticks across CPUs to avoid artificial synchrony. *)
        let phase = t.tick + (c.id * t.tick / Array.length t.cpus) in
        Engine.every t.engine ~period:t.tick ~phase (fun () ->
            if c.stalled then c.suppressed_ticks <- c.suppressed_ticks + 1
            else if c.rcu_nesting = 0 then context_switch t c;
            true))
      t.cpus
  end

let consume c ns =
  if ns < 0 then invalid_arg "Machine.consume: negative cost";
  c.pending_ns <- c.pending_ns + ns

let drain c =
  let p = c.pending_ns in
  c.pending_ns <- 0;
  p

let run_idle_work c =
  let work = List.rev c.idle_work in
  c.idle_work <- [];
  List.iter (fun fn -> fn ()) work

let submit_idle _t c fn =
  if c.idle then fn () else c.idle_work <- fn :: c.idle_work

let is_idle c = c.idle

let idle_sleep t c ns =
  c.idle <- true;
  Trace.Tap.emit (Engine.tap t.engine) Idle_start ~cpu:c.id ~label:"" 0 0;
  run_idle_work c;
  Process.sleep t.engine ns;
  Trace.Tap.emit (Engine.tap t.engine) Idle_end ~cpu:c.id ~label:"" 0 0;
  c.idle <- false
