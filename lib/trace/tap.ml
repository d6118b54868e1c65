type kind =
  | Alloc
  | Free
  | Defer
  | Pool
  | Page_release
  | Reader_access
  | Gp_request
  | Gp_start
  | Gp_qs
  | Epoch_request
  | Epoch_scan
  | Epoch_blocked
  | Batch_request
  | Batch_seal
  | Batch_unref

(* Subscribers are folded into one closure at subscription time, so an
   emission is a single option test plus, when armed, one call. *)
type t = { mutable sub : (kind -> int -> int -> unit) option }

let create () = { sub = None }

let subscribe t f =
  t.sub <-
    Some
      (match t.sub with
      | None -> f
      | Some g ->
          fun kind a b ->
            g kind a b;
            f kind a b)

let armed t = Option.is_some t.sub

let emit t kind a b = match t.sub with None -> () | Some f -> f kind a b
