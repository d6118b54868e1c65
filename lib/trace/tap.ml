type subscriber = Event.kind -> cpu:int -> label:string -> int -> int -> unit

(* Subscribers are folded into one closure at subscription time, so an
   emission is a single option test plus, when armed, one call. *)
type t = { mutable sub : subscriber option }

let create () = { sub = None }

let subscribe t f =
  t.sub <-
    Some
      (match t.sub with
      | None -> f
      | Some g ->
          fun kind ~cpu ~label a b ->
            g kind ~cpu ~label a b;
            f kind ~cpu ~label a b)

let armed t = Option.is_some t.sub

let emit t kind ~cpu ~label a b =
  match t.sub with None -> () | Some f -> f kind ~cpu ~label a b
