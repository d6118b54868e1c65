(* Two-stack deque with lazy rebalancing: [front] holds elements from the
   front inward, [back] from the back inward. *)
type 'a t = {
  mutable front : 'a list;
  mutable back : 'a list;
  mutable size : int;
}

let create () = { front = []; back = []; size = 0 }

let length d = d.size
let is_empty d = d.size = 0

let push_front d x =
  d.front <- x :: d.front;
  d.size <- d.size + 1

let push_back d x =
  d.back <- x :: d.back;
  d.size <- d.size + 1

let pop_front d =
  match d.front with
  | x :: rest ->
      d.front <- rest;
      d.size <- d.size - 1;
      Some x
  | [] -> (
      match List.rev d.back with
      | [] -> None
      | x :: rest ->
          d.back <- [];
          d.front <- rest;
          d.size <- d.size - 1;
          Some x)

let pop_back d =
  match d.back with
  | x :: rest ->
      d.back <- rest;
      d.size <- d.size - 1;
      Some x
  | [] -> (
      match List.rev d.front with
      | [] -> None
      | x :: rest ->
          d.front <- [];
          d.back <- rest;
          d.size <- d.size - 1;
          Some x)

let peek_front d =
  match d.front with
  | x :: _ -> Some x
  | [] -> ( match List.rev d.back with [] -> None | x :: _ -> Some x)

let peek_back d =
  match d.back with
  | x :: _ -> Some x
  | [] -> ( match List.rev d.front with [] -> None | x :: _ -> Some x)

let to_list d = d.front @ List.rev d.back

let clear d =
  d.front <- [];
  d.back <- [];
  d.size <- 0
