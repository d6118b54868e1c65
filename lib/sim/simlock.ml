type t = {
  lock_name : string;
  tap : Trace.Tap.t;
  mutable free_at : int;
  mutable acquisitions : int;
  mutable contended : int;
  mutable total_wait : int;
  mutable total_hold : int;
}

let create ~name tap =
  {
    lock_name = name;
    tap;
    free_at = 0;
    acquisitions = 0;
    contended = 0;
    total_wait = 0;
    total_hold = 0;
  }

let acquire l ~cpu ~now ~hold =
  if hold < 0 then invalid_arg "Simlock.acquire: negative hold";
  let start = if now >= l.free_at then now else l.free_at in
  let wait = start - now in
  l.free_at <- start + hold;
  l.acquisitions <- l.acquisitions + 1;
  if wait > 0 then l.contended <- l.contended + 1;
  l.total_wait <- l.total_wait + wait;
  l.total_hold <- l.total_hold + hold;
  Trace.Tap.emit l.tap Lock_acquire ~cpu ~label:l.lock_name 0 0;
  if wait > 0 then
    Trace.Tap.emit l.tap Lock_contended ~cpu ~label:l.lock_name wait 0;
  wait + hold

let acquisitions l = l.acquisitions
let contended l = l.contended
let total_wait_ns l = l.total_wait
let total_hold_ns l = l.total_hold

let reset_stats l =
  l.acquisitions <- 0;
  l.contended <- 0;
  l.total_wait <- 0;
  l.total_hold <- 0
