(* Shared helpers for building small simulated environments in tests. *)

let make_sim ?(cpus = 4) ?(nodes = 1) ?(seed = 1) ?(tick_ns = 1_000_000) () =
  let eng = Sim.Engine.create ~seed () in
  let machine = Sim.Machine.create eng ~cpus ~nodes ~tick_ns () in
  Sim.Machine.start machine;
  (eng, machine)

type env = {
  eng : Sim.Engine.t;
  machine : Sim.Machine.t;
  buddy : Mem.Buddy.t;
  pressure : Mem.Pressure.t;
  rcu : Rcu.t;
  fenv : Slab.Frame.env;
}

let make_env ?(cpus = 4) ?(nodes = 1) ?(seed = 1) ?(tick_ns = 1_000_000)
    ?(total_pages = 65536) ?rcu_config () =
  let eng, machine = make_sim ~cpus ~nodes ~seed ~tick_ns () in
  let buddy = Mem.Buddy.create ~total_pages () in
  let pressure = Mem.Pressure.create buddy in
  let rcu = Rcu.create ?config:rcu_config machine in
  Rcu.attach_pressure rcu pressure;
  let fenv = Slab.Frame.make_env ~pressure machine buddy in
  { eng; machine; buddy; pressure; rcu; fenv }

let cpu0 env = Sim.Machine.cpu env.machine 0
let cpu env i = Sim.Machine.cpu env.machine i

(* Run [body] as a process and drive the engine until it finishes or
   [horizon] virtual ns elapse. Returns whether the body completed. *)
let run_process ?(horizon = 10_000_000_000) env body =
  let finished = ref false in
  Sim.Process.spawn env.eng (fun () ->
      body ();
      finished := true);
  Sim.Engine.run ~until:horizon env.eng;
  !finished

let check_completed what finished =
  if not finished then Alcotest.failf "%s: process did not finish" what

(* An invariant audit ({!Check.Audit}) must come back empty; a failure
   names each broken invariant. *)
let audit_clean errs = Alcotest.(check (list string)) "audit" [] errs

(* Words allocated in or promoted to the major heap so far. Arrays too
   large for the minor heap are allocated there directly, so a growth
   shows here and not in [Gc.minor_words]. *)
let major_words () =
  let _, _, w = Gc.counters () in
  w
