open Effect.Deep

(* One record per process, made at spawn. A suspended process parks its
   continuation in [k]; the preallocated [resume] continues it, and the
   preallocated [on_sleep] is the handler's reply to every sleep. A
   sleep therefore allocates only the runtime's continuation and the
   [Sleep] effect itself, and a wakeup allocates nothing. *)
type proc = {
  eng : Engine.t;
  mutable k : (unit, unit) continuation array;
      (* the parked continuation: [||] until the first suspension, then
         one slot overwritten by every later one *)
  mutable delay : int; (* length of the sleep [on_sleep] schedules *)
  mutable next : proc option; (* towards newer waiters on the same Cond *)
  link : proc option; (* [Some] of this record: its Cond queue link *)
  resume : unit -> unit;
  on_sleep : ((unit, unit) continuation -> unit) option;
}

(* Waiters queue intrusively through [proc.next], oldest at [head]. *)
type cond = {
  engine : Engine.t;
  mutable head : proc option;
  mutable tail : proc option;
  mutable count : int;
}

type _ Effect.t += Sleep : int -> unit Effect.t | Wait : cond -> unit Effect.t

let sleep _eng ns = Effect.perform (Sleep ns)

let yield eng = sleep eng 0

let park p k = if Array.length p.k = 0 then p.k <- [| k |] else p.k.(0) <- k

module Cond = struct
  type t = cond

  let create engine = { engine; head = None; tail = None; count = 0 }

  let wait c =
    Engine.incr_waiters c.engine;
    Effect.perform (Wait c)

  let enqueue c p =
    p.next <- None;
    (match c.tail with None -> c.head <- p.link | Some t -> t.next <- p.link);
    c.tail <- p.link;
    c.count <- c.count + 1

  (* Detach the whole queue first, then wake oldest-first: a woken
     process runs only after this returns, so it cannot re-enter the
     queue being walked. *)
  let broadcast c =
    let rec wake = function
      | None -> ()
      | Some p ->
          let next = p.next in
          Engine.decr_waiters c.engine;
          ignore (Engine.schedule c.engine ~after:0 p.resume);
          wake next
    in
    let first = c.head in
    c.head <- None;
    c.tail <- None;
    c.count <- 0;
    wake first

  let waiters c = c.count
end

let spawn eng body =
  let rec p =
    {
      eng;
      k = [||];
      delay = 0;
      next = None;
      link = Some p;
      resume = (fun () -> continue p.k.(0) ());
      on_sleep =
        Some
          (fun k ->
            park p k;
            ignore (Engine.schedule p.eng ~after:p.delay p.resume));
    }
  in
  let handler =
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep ns ->
              p.delay <- ns;
              (p.on_sleep : ((a, unit) continuation -> unit) option)
          | Wait c ->
              Some
                (fun (k : (a, unit) continuation) ->
                  park p k;
                  Cond.enqueue c p)
          | _ -> None);
    }
  in
  ignore (Engine.schedule eng ~after:0 (fun () -> match_with body () handler))

let wait_until c pred =
  let rec loop () =
    if not (pred ()) then begin
      Cond.wait c;
      loop ()
    end
  in
  loop ()
