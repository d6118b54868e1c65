type t = {
  lock_name : string;
  mutable free_at : int;
  mutable acquisitions : int;
  mutable contended : int;
  mutable total_wait : int;
  mutable total_hold : int;
}

let create ~name =
  {
    lock_name = name;
    free_at = 0;
    acquisitions = 0;
    contended = 0;
    total_wait = 0;
    total_hold = 0;
  }

let acquire ?(tracer = Trace.null) ?(cpu = -1) l ~now ~hold =
  if hold < 0 then invalid_arg "Simlock.acquire: negative hold";
  let start = if now >= l.free_at then now else l.free_at in
  let wait = start - now in
  l.free_at <- start + hold;
  l.acquisitions <- l.acquisitions + 1;
  if wait > 0 then l.contended <- l.contended + 1;
  l.total_wait <- l.total_wait + wait;
  l.total_hold <- l.total_hold + hold;
  if Trace.enabled tracer then begin
    Trace.emit tracer ~time:now ~cpu ~label:l.lock_name
      Trace.Event.Lock_acquire;
    if wait > 0 then begin
      Trace.emit tracer ~time:now ~cpu ~label:l.lock_name ~arg:wait
        Trace.Event.Lock_contended;
      Trace.record_lock_wait tracer wait
    end
  end;
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
