type t =
  | Engine_dispatch
  | Engine_schedule
  | Buddy_alloc
  | Buddy_free
  | Slab_alloc
  | Slab_free
  | Slab_defer
  | Slab_grow
  | Latq_push
  | Latq_harvest
  | Rcu_qs
  | Rcu_gp
  | Rcu_cb_drain
  | Prudence_defer
  | Prudence_scan
  | Prudence_flush
  | Check_probe
  | Engine_pop

let count = 18

let index = function
  | Engine_dispatch -> 0
  | Engine_schedule -> 1
  | Buddy_alloc -> 2
  | Buddy_free -> 3
  | Slab_alloc -> 4
  | Slab_free -> 5
  | Slab_defer -> 6
  | Slab_grow -> 7
  | Latq_push -> 8
  | Latq_harvest -> 9
  | Rcu_qs -> 10
  | Rcu_gp -> 11
  | Rcu_cb_drain -> 12
  | Prudence_defer -> 13
  | Prudence_scan -> 14
  | Prudence_flush -> 15
  | Check_probe -> 16
  | Engine_pop -> 17

let of_index = function
  | 0 -> Engine_dispatch
  | 1 -> Engine_schedule
  | 2 -> Buddy_alloc
  | 3 -> Buddy_free
  | 4 -> Slab_alloc
  | 5 -> Slab_free
  | 6 -> Slab_defer
  | 7 -> Slab_grow
  | 8 -> Latq_push
  | 9 -> Latq_harvest
  | 10 -> Rcu_qs
  | 11 -> Rcu_gp
  | 12 -> Rcu_cb_drain
  | 13 -> Prudence_defer
  | 14 -> Prudence_scan
  | 15 -> Prudence_flush
  | 16 -> Check_probe
  | 17 -> Engine_pop
  | i -> invalid_arg (Printf.sprintf "Prof.Span.of_index %d" i)

let all = List.init count of_index

let name = function
  | Engine_dispatch -> "engine.dispatch"
  | Engine_schedule -> "engine.schedule"
  | Buddy_alloc -> "buddy.alloc"
  | Buddy_free -> "buddy.free"
  | Slab_alloc -> "slab.alloc"
  | Slab_free -> "slab.free"
  | Slab_defer -> "slab.defer"
  | Slab_grow -> "slab.grow"
  | Latq_push -> "slab.latq_push"
  | Latq_harvest -> "slab.latq_harvest"
  | Rcu_qs -> "rcu.qs"
  | Rcu_gp -> "rcu.gp"
  | Rcu_cb_drain -> "rcu.cb_drain"
  | Prudence_defer -> "prudence.defer"
  | Prudence_scan -> "prudence.scan"
  | Prudence_flush -> "prudence.flush"
  | Check_probe -> "check.probe"
  | Engine_pop -> "engine.pop"

let subsystem s =
  let n = name s in
  String.sub n 0 (String.index n '.')

let subsystems =
  List.fold_left
    (fun acc s ->
      let sub = subsystem s in
      if List.mem sub acc then acc else acc @ [ sub ])
    [] all
