(* Each CPU's open section keeps the oids it holds on an int stack:
   [held.(c)] up to depth [held_n.(c)], doubled when full. An oid's
   refcount is its count across these stacks, so holding, releasing
   and ending a section only move ints. *)
type t = {
  rcu : Gp.t;
  held : int array array;
  held_n : int array;
  mutable violation_log : string list; (* reversed; first K kept *)
  mutable logged : int;
  mutable dropped : int;
  tap : Trace.Tap.t;
}

(* Bound the log so a badly mutated run inside a long fuzz session cannot
   grow memory without bound; the count of what was cut is kept. *)
let max_logged_violations = 64

let create rcu =
  let cpus = Sim.Machine.nr_cpus (Gp.machine rcu) in
  {
    rcu;
    held = Array.init cpus (fun _ -> Array.make 4 0);
    held_n = Array.make cpus 0;
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
  let n = ref 0 in
  for c = 0 to Array.length t.held - 1 do
    let a = t.held.(c) in
    for j = 0 to t.held_n.(c) - 1 do
      if a.(j) = oid then incr n
    done
  done;
  !n

let enter t cpu = Gp.read_lock t.rcu cpu

let exit t (cpu : Sim.Machine.cpu) =
  (* A section cannot carry references out: drop everything it holds. *)
  t.held_n.(cpu.id) <- 0;
  Gp.read_unlock t.rcu cpu

let hold t (cpu : Sim.Machine.cpu) ~oid =
  Trace.Tap.emit t.tap Reader_access ~cpu:cpu.id ~label:"" cpu.id oid;
  if cpu.rcu_nesting = 0 then
    record_violation t
      (Printf.sprintf "cpu%d held a reference to object %d outside a \
                       read-side critical section" cpu.id oid)
  else begin
    let c = cpu.id in
    let n = t.held_n.(c) in
    if n = Array.length t.held.(c) then begin
      let a = Array.make (2 * n) 0 in
      Array.blit t.held.(c) 0 a 0 n;
      t.held.(c) <- a
    end;
    t.held.(c).(n) <- oid;
    t.held_n.(c) <- n + 1
  end

(* Drop the newest hold of [oid]; the stack's top takes its slot. *)
let release t (cpu : Sim.Machine.cpu) ~oid =
  let c = cpu.id in
  let a = t.held.(c) in
  let j = ref (t.held_n.(c) - 1) in
  while !j >= 0 && a.(!j) <> oid do
    decr j
  done;
  if !j >= 0 then begin
    let top = t.held_n.(c) - 1 in
    a.(!j) <- a.(top);
    t.held_n.(c) <- top
  end
  else
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
