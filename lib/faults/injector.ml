type t = {
  machine : Sim.Machine.t;
  engine : Sim.Engine.t;
  buddy : Mem.Buddy.t;
  rcu : Rcu.t;
  pressure : Mem.Pressure.t;
  rng : Sim.Rng.t;
  plan : Plan.t;
  mutable readers_stalled : int;
  mutable stall_windows : int;
  mutable flood_cbs : int;
  mutable pages_seized : int;
  mutable peak_pages_seized : int;
  mutable faults_fired : int;
}

type stats = {
  faults_fired : int;
  readers_stalled : int;
  stall_windows : int;
  flood_cbs : int;
  peak_pages_seized : int;
  alloc_refusals : int;
}

let stats (t : t) : stats =
  {
    faults_fired = t.faults_fired;
    readers_stalled = t.readers_stalled;
    stall_windows = t.stall_windows;
    flood_cbs = t.flood_cbs;
    peak_pages_seized = t.peak_pages_seized;
    alloc_refusals = Mem.Buddy.injected_failures t.buddy;
  }

let fire (t : t) spec ~cpu =
  t.faults_fired <- t.faults_fired + 1;
  Trace.Tap.emit (Sim.Engine.tap t.engine) Fault_inject ~cpu
    ~label:(Plan.spec_name spec) t.faults_fired 0

let at t time fn =
  Sim.Engine.schedule_at ~daemon:true t.engine ~time fn

(* The §3.4 flood's callback: it frees nothing, so it ignores its CPU
   and payload. *)
let ignore_cb _ _ = ()

let install_spec t spec =
  match spec with
  | Plan.Stalled_reader { cpu; at_ns; hold_ns } ->
      at t at_ns (fun () ->
          let c = Sim.Machine.cpu t.machine cpu in
          Rcu.read_lock t.rcu c;
          t.readers_stalled <- t.readers_stalled + 1;
          fire t spec ~cpu;
          match hold_ns with
          | None -> () (* held forever: the CPU never reports a QS again *)
          | Some hold ->
              at t (at_ns + hold) (fun () -> Rcu.read_unlock t.rcu c))
  | Plan.Cpu_stall { cpu; at_ns; duration_ns } ->
      at t at_ns (fun () ->
          let c = Sim.Machine.cpu t.machine cpu in
          c.Sim.Machine.stalled <- true;
          t.stall_windows <- t.stall_windows + 1;
          fire t spec ~cpu;
          at t (at_ns + duration_ns) (fun () ->
              c.Sim.Machine.stalled <- false))
  | Plan.Alloc_fault { at_ns; duration_ns; fail_prob } ->
      at t at_ns (fun () ->
          fire t spec ~cpu:(-1);
          Mem.Buddy.set_fail_hook t.buddy
            (Some (fun ~order:_ -> Sim.Rng.chance t.rng fail_prob));
          at t (at_ns + duration_ns) (fun () ->
              Mem.Buddy.set_fail_hook t.buddy None))
  | Plan.Pressure_spike { at_ns; duration_ns; pages } ->
      at t at_ns (fun () ->
          fire t spec ~cpu:(-1);
          (* Greedily seize the largest blocks that fit the remaining
             request, so a big reserve costs few buddy operations. *)
          let blocks = ref [] in
          let got = ref 0 in
          let continue = ref true in
          while !continue && !got < pages do
            let lfo = Mem.Buddy.largest_free_order t.buddy in
            if lfo < 0 then continue := false
            else begin
              let rec fit o =
                if o > 0 && 1 lsl o > pages - !got then fit (o - 1) else o
              in
              let order = fit lfo in
              let page = Mem.Buddy.alloc t.buddy ~order in
              if page >= 0 then begin
                blocks := (page, order) :: !blocks;
                got := !got + (1 lsl order)
              end
              else
                (* Refused (e.g. an overlapping alloc-fault window):
                   don't spin. *)
                continue := false
            end
          done;
          t.pages_seized <- t.pages_seized + !got;
          if t.pages_seized > t.peak_pages_seized then
            t.peak_pages_seized <- t.pages_seized;
          Mem.Pressure.poll t.pressure;
          at t (at_ns + duration_ns) (fun () ->
              List.iter
                (fun (page, order) -> Mem.Buddy.free t.buddy ~page ~order)
                !blocks;
              t.pages_seized <- t.pages_seized - !got;
              Mem.Pressure.poll t.pressure))
  | Plan.Cb_flood { cpu; at_ns; duration_ns; per_ms } ->
      let until = at_ns + duration_ns in
      let rec tick () =
        if Sim.Engine.now t.engine <= until then begin
          let c = Sim.Machine.cpu t.machine cpu in
          for _ = 1 to per_ms do
            Rcu.call_rcu t.rcu c ignore_cb 0
          done;
          t.flood_cbs <- t.flood_cbs + per_ms;
          Sim.Engine.schedule ~daemon:true t.engine ~after:1_000_000 tick
        end
      in
      at t at_ns (fun () ->
          fire t spec ~cpu;
          tick ())

let install ~pressure plan ~machine ~buddy ~rcu =
  let t =
    {
      machine;
      engine = Sim.Machine.engine machine;
      buddy;
      rcu;
      pressure;
      rng = Sim.Rng.create ~seed:plan.Plan.seed;
      plan;
      readers_stalled = 0;
      stall_windows = 0;
      flood_cbs = 0;
      pages_seized = 0;
      peak_pages_seized = 0;
      faults_fired = 0;
    }
  in
  List.iter (install_spec t) plan.Plan.specs;
  t

let plan t = t.plan
