type source = { name : string; read : unit -> float }

type t = {
  eng : Engine.t;
  sample_period_ns : int;
  capacity : int;
  mutable sources : source list;  (* reverse registration order *)
  mutable n_sources : int;
  ring : (int * float array) option array;
  mutable head : int;  (* next write slot *)
  mutable len : int;
  mutable dropped : int;
  mutable running : bool;
}

let create eng ?(capacity = 4096) ~period_ns () =
  if period_ns <= 0 then invalid_arg "Sampler.create: period_ns must be positive";
  if capacity <= 0 then invalid_arg "Sampler.create: capacity must be positive";
  {
    eng;
    sample_period_ns = period_ns;
    capacity;
    sources = [];
    n_sources = 0;
    ring = Array.make capacity None;
    head = 0;
    len = 0;
    dropped = 0;
    running = false;
  }

let add_source t ~name read =
  if t.running then invalid_arg "Sampler.add_source: sampler already started";
  if List.exists (fun s -> s.name = name) t.sources then
    invalid_arg (Printf.sprintf "Sampler.add_source: duplicate source %S" name);
  t.sources <- { name; read } :: t.sources;
  t.n_sources <- t.n_sources + 1

let ordered_sources t = List.rev t.sources

let sweep t =
  let values = Array.make t.n_sources 0. in
  List.iteri (fun i s -> values.(i) <- s.read ()) (ordered_sources t);
  if t.len = t.capacity then t.dropped <- t.dropped + 1
  else t.len <- t.len + 1;
  t.ring.(t.head) <- Some (Engine.now t.eng, values);
  t.head <- (t.head + 1) mod t.capacity

let start t =
  if not t.running then begin
    t.running <- true;
    Engine.every t.eng ~period:t.sample_period_ns (fun () ->
        sweep t;
        true)
  end

let source_names t = List.map (fun s -> s.name) (ordered_sources t)
let rows t = t.len
let dropped t = t.dropped

let to_array t =
  Array.init t.len (fun i ->
      let idx = (t.head - t.len + i + (2 * t.capacity)) mod t.capacity in
      match t.ring.(idx) with
      | Some row -> row
      | None -> assert false)

let series t ~name =
  let rec index i = function
    | [] -> None
    | s :: rest -> if s.name = name then Some i else index (i + 1) rest
  in
  match index 0 (ordered_sources t) with
  | None -> None
  | Some i ->
      Some (Array.map (fun (time, values) -> (time, values.(i))) (to_array t))

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time_ns";
  List.iter
    (fun s ->
      Buffer.add_char buf ',';
      Buffer.add_string buf s.name)
    (ordered_sources t);
  Buffer.add_char buf '\n';
  Array.iter
    (fun (time, values) ->
      Buffer.add_string buf (string_of_int time);
      Array.iter
        (fun v ->
          Buffer.add_char buf ',';
          Buffer.add_string buf (fmt_value v))
        values;
      Buffer.add_char buf '\n')
    (to_array t);
  Buffer.contents buf

let to_ndjson t =
  let names = source_names t in
  let buf = Buffer.create 1024 in
  Array.iter
    (fun (time, values) ->
      Buffer.add_string buf (Printf.sprintf "{\"t\":%d" time);
      List.iteri
        (fun i name ->
          Buffer.add_string buf
            (Printf.sprintf ",%S:%s" name (fmt_value values.(i))))
        names;
      Buffer.add_string buf "}\n")
    (to_array t);
  Buffer.contents buf
