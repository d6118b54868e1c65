type level = Normal | Low | Critical

let pp_level fmt = function
  | Normal -> Format.pp_print_string fmt "normal"
  | Low -> Format.pp_print_string fmt "low"
  | Critical -> Format.pp_print_string fmt "critical"

type t = {
  buddy : Buddy.t;
  low_pages : int;
  critical_pages : int;
  mutable current : level;
  mutable notifiers : (level -> unit) list;
  mutable oom_handlers : (unit -> bool) list;
  mutable oom_at : int option;
}

(* The watermarks, as shares of total pages free. *)
let low_ratio = 0.25
let critical_ratio = 0.10

let create buddy =
  let total = Buddy.total_pages buddy in
  {
    buddy;
    low_pages = int_of_float (float_of_int total *. low_ratio);
    critical_pages = int_of_float (float_of_int total *. critical_ratio);
    current = Normal;
    notifiers = [];
    oom_handlers = [];
    oom_at = None;
  }

let compute t =
  let free = Buddy.free_pages t.buddy in
  if free <= t.critical_pages then Critical
  else if free <= t.low_pages then Low
  else Normal

let level t = compute t

let on_level_change t fn = t.notifiers <- t.notifiers @ [ fn ]

let poll t =
  let next = compute t in
  if next <> t.current then begin
    t.current <- next;
    List.iter (fun fn -> fn next) t.notifiers
  end

let on_oom t fn = t.oom_handlers <- t.oom_handlers @ [ fn ]

let handle_alloc_failure t =
  List.fold_left (fun retry fn -> fn () || retry) false t.oom_handlers

let declare_oom t ~now =
  match t.oom_at with None -> t.oom_at <- Some now | Some _ -> ()

let oom_time t = t.oom_at
let oom_hit t = t.oom_at <> None
