type t = {
  rcu : Gp.t;
  refs : (int, int) Hashtbl.t; (* oid -> total refcount *)
  per_cpu_held : int list array; (* oids held by the open section on a CPU *)
  mutable violation_log : string list; (* reversed; first K kept *)
  mutable logged : int;
  mutable dropped : int;
  tap : Trace.Tap.t;
}

(* Bound the log so a badly mutated run inside a long fuzz session cannot
   grow memory without bound; the count of what was cut is kept. *)
let max_logged_violations = 64

let create rcu =
  {
    rcu;
    refs = Hashtbl.create 512;
    per_cpu_held = Array.make (Sim.Machine.nr_cpus (Gp.machine rcu)) [];
    violation_log = [];
    logged = 0;
    dropped = 0;
    tap = Sim.Engine.tap (Sim.Machine.engine (Gp.machine rcu));
  }

let record_violation t msg =
  if t.logged < max_logged_violations then begin
    t.violation_log <- msg :: t.violation_log;
    t.logged <- t.logged + 1
  end
  else t.dropped <- t.dropped + 1

let violations t = List.rev t.violation_log
let dropped_violations t = t.dropped

let refcount t ~oid =
  match Hashtbl.find_opt t.refs oid with None -> 0 | Some n -> n

let incr_ref t oid =
  Hashtbl.replace t.refs oid (refcount t ~oid + 1)

let decr_ref t oid =
  let n = refcount t ~oid in
  if n <= 1 then Hashtbl.remove t.refs oid
  else Hashtbl.replace t.refs oid (n - 1)

let enter t cpu = Gp.read_lock t.rcu cpu

let exit t (cpu : Sim.Machine.cpu) =
  (* A section cannot carry references out: drop everything it holds. *)
  List.iter (fun oid -> decr_ref t oid) t.per_cpu_held.(cpu.id);
  t.per_cpu_held.(cpu.id) <- [];
  Gp.read_unlock t.rcu cpu

let hold t (cpu : Sim.Machine.cpu) ~oid =
  Trace.Tap.emit t.tap Reader_access ~cpu:cpu.id ~label:"" cpu.id oid;
  if cpu.rcu_nesting = 0 then
    record_violation t
      (Printf.sprintf "cpu%d held a reference to object %d outside a \
                       read-side critical section" cpu.id oid)
  else begin
    incr_ref t oid;
    t.per_cpu_held.(cpu.id) <- oid :: t.per_cpu_held.(cpu.id)
  end

let release t (cpu : Sim.Machine.cpu) ~oid =
  let rec remove = function
    | [] -> None
    | x :: rest when x = oid -> Some rest
    | x :: rest -> (
        match remove rest with None -> None | Some r -> Some (x :: r))
  in
  match remove t.per_cpu_held.(cpu.id) with
  | Some rest ->
      t.per_cpu_held.(cpu.id) <- rest;
      decr_ref t oid
  | None ->
      record_violation t
        (Printf.sprintf "cpu%d released object %d it did not hold" cpu.id oid)

let with_section t cpu f =
  enter t cpu;
  match f () with
  | v ->
      exit t cpu;
      v
  | exception e ->
      exit t cpu;
      raise e

let check_reusable t ~oid ~where =
  let n = refcount t ~oid in
  if n > 0 then
    record_violation t
      (Printf.sprintf
         "%s: object %d reused while %d reader(s) still reference it" where
         oid n)

let check_allocs t ~where =
  Trace.Tap.subscribe t.tap (fun kind ~cpu:_ ~label:_ oid _ ->
      match kind with Alloc -> check_reusable t ~oid ~where | _ -> ())
