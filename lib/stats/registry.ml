type kind = Counter | Gauge | Derived

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Derived -> "derived"

type metric = {
  name : string;
  kind : kind;
  unit_ : string;
  help : string;
  read : unit -> float;
}

type t = {
  mutable rev_metrics : metric list;
  index : (string, metric) Hashtbl.t;
}

let create () = { rev_metrics = []; index = Hashtbl.create 64 }

let register t ~kind ~name ?(unit_ = "") ?(help = "") read =
  if Hashtbl.mem t.index name then
    invalid_arg (Printf.sprintf "Registry.register: duplicate metric %S" name);
  let m = { name; kind; unit_; help; read } in
  Hashtbl.add t.index name m;
  t.rev_metrics <- m :: t.rev_metrics

let counter t ~name ?unit_ ?help read =
  register t ~kind:Counter ~name ?unit_ ?help read

let gauge t ~name ?unit_ ?help read = register t ~kind:Gauge ~name ?unit_ ?help read

let derived t ~name ?unit_ ?help read =
  register t ~kind:Derived ~name ?unit_ ?help read

let all t = List.rev t.rev_metrics
let find t name = Hashtbl.find_opt t.index name
let names t = List.map (fun m -> m.name) (all t)
let size t = List.length t.rev_metrics
let read_all t = List.map (fun m -> (m, m.read ())) (all t)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

let table t =
  let rows =
    List.map
      (fun (m, v) -> [ m.name; kind_name m.kind; fmt_value v; m.unit_; m.help ])
      (read_all t)
  in
  Metrics.Table.render
    ~align:Metrics.Table.[ L; L; R; L; L ]
    ~header:[ "metric"; "kind"; "value"; "unit"; "description" ]
    rows

let attach t ?(filter = fun _ -> true) sampler =
  List.fold_left
    (fun n m ->
      if filter m then begin
        Sim.Sampler.add_source sampler ~name:m.name m.read;
        n + 1
      end
      else n)
    0 (all t)
