type config = {
  missed_qs : bool;
  cb_conservation : bool;
  stall_bound_ns : int;
}

let default_config ~duration_ns =
  { missed_qs = true; cb_conservation = true; stall_bound_ns = duration_ns / 4 }

type stall_violation = {
  at_ns : int;
  gp_seq : int;
  age_ns : int;
  holdouts : int list;
}

type cb_violation = { at_ns : int; queued : int; invoked : int; in_list : int }

let describe_stall (v : stall_violation) =
  Printf.sprintf
    "[%d ns] grace period %d active for %d ns past the %s bound with no \
     stall warning; holdout cpu(s): %s (missed-QS stall went undetected)"
    v.at_ns v.gp_seq v.age_ns "oracle"
    (String.concat "," (List.map string_of_int v.holdouts))

let describe_cb (v : cb_violation) =
  Printf.sprintf
    "[%d ns] callback conservation broken: %d queued - %d invoked = %d \
     expected in flight, but the per-CPU lists hold %d (%d callback(s) \
     lost)"
    v.at_ns v.queued v.invoked (v.queued - v.invoked) v.in_list
    (v.queued - v.invoked - v.in_list)

let max_logged = 16

type t = {
  rcu : Rcu.t;
  engine : Sim.Engine.t;
  cfg : config;
  mutable stall_flagged_seq : int; (* last GP seq already flagged *)
  mutable stall_log : stall_violation list; (* reversed, first K *)
  mutable stall_logged : int;
  mutable cb_log : cb_violation list; (* reversed, first K *)
  mutable cb_logged : int;
  mutable dropped : int;
}

(* Missed-QS stall: a grace period has been waiting on holdout CPUs past
   the bound and the stall detector has said nothing about it. With the
   detector armed (its timeout is below the bound), a warning always
   exists by the time the bound passes, so the oracle stays silent on
   every unmutated run; a detector that was disabled, broken, or pointed
   at the wrong grace period is the bug class ([--mutate=drop-stall]). *)
let poll_stall t =
  if t.cfg.missed_qs && Rcu.gp_active t.rcu then begin
    let age = Rcu.gp_age_ns t.rcu in
    if age > t.cfg.stall_bound_ns then begin
      let seq = Rcu.gp_seq t.rcu in
      if t.stall_flagged_seq <> seq then begin
        let warned =
          match Rcu.last_stall t.rcu with
          | Some w -> w.Rcu.gp_seq = seq
          | None -> false
        in
        if not warned then begin
          t.stall_flagged_seq <- seq;
          let holdouts = Rcu.holdout_cpus t.rcu in
          if t.stall_logged < max_logged then begin
            t.stall_log <-
              {
                at_ns = Sim.Engine.now t.engine;
                gp_seq = seq;
                age_ns = age;
                holdouts;
              }
              :: t.stall_log;
            t.stall_logged <- t.stall_logged + 1
          end
          else t.dropped <- t.dropped + 1
        end
      end
    end
  end

(* Callback conservation: queued = invoked + (waiting + ready across the
   per-CPU lists) holds at every instant — enqueue raises both sides,
   invocation lowers both. A callback that vanishes between the
   accounting and its list ([--mutate=lose-cb]) breaks the equation
   forever after. Checked at each grace-period completion and once at
   finalize. *)
let check_conservation t =
  if t.cfg.cb_conservation then begin
    (* Runs on every grace period: the counters are read one by one, so
       a check that passes allocates nothing. *)
    let queued = Rcu.cbs_queued t.rcu and invoked = Rcu.cbs_invoked t.rcu in
    let in_list = Rcu.listed_callbacks t.rcu in
    if queued - invoked <> in_list then
      if t.cb_logged < max_logged then begin
        t.cb_log <-
          { at_ns = Sim.Engine.now t.engine; queued; invoked; in_list }
          :: t.cb_log;
        t.cb_logged <- t.cb_logged + 1
      end
      else t.dropped <- t.dropped + 1
  end

let install cfg (env : Workloads.Env.t) =
  let t =
    {
      rcu = env.Workloads.Env.rcu;
      engine = Sim.Machine.engine env.Workloads.Env.machine;
      cfg;
      stall_flagged_seq = 0;
      stall_log = [];
      stall_logged = 0;
      cb_log = [];
      cb_logged = 0;
      dropped = 0;
    }
  in
  if cfg.cb_conservation then
    Rcu.on_gp_complete t.rcu (fun _completed -> check_conservation t);
  t

let finalize t =
  poll_stall t;
  check_conservation t

let stall_violations t = List.rev_map describe_stall t.stall_log
let cb_violations t = List.rev_map describe_cb t.cb_log
let dropped_violations t = t.dropped
