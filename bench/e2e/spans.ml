(* Per-layer attribution for the traced run.

   The library's own [Prof] spans cover the engine, buddy, slab, latq,
   RCU, Prudence and checker hot paths. The benchmark adds "outside"
   spans around calls it makes into public layer functions: the
   [Slab.Backend.t] closures, [Rcuhash.lookup]/[update], the shadow
   heap's grace-period callback and the stall poll.

   Outside spans are recorded in the same profiler, as frames of one
   marker span in rows above the simulated CPUs (the library only ever
   uses rows [-1 .. cpus-1]). Prof subtracts every frame's children
   from its self time, so the two kinds nest correctly both ways: the
   shadow's per-GP scan leaves [rcu.gp]'s self time, and [slab.alloc]
   leaves [slab.api.alloc]'s. Every self time therefore belongs to
   exactly one row. Prof also subtracts its probes' own cost from every
   frame, so that cost, with the engine loop's few instructions outside
   any frame, is the [tracing] remainder of the traced wall time. *)

type outside =
  | Api_alloc
  | Api_free
  | Api_free_deferred
  | Hash_lookup
  | Hash_update
  | Gp_promote
  | Stall_poll

let all_outside =
  [ Api_alloc; Api_free; Api_free_deferred; Hash_lookup; Hash_update;
    Gp_promote; Stall_poll ]

let outside_name = function
  | Api_alloc -> "slab.api.alloc"
  | Api_free -> "slab.api.free"
  | Api_free_deferred -> "slab.api.free_deferred"
  | Hash_lookup -> "rcudata.lookup"
  | Hash_update -> "rcudata.update"
  | Gp_promote -> "check.gp_promote"
  | Stall_poll -> "check.poll"

let outside_layer = function
  | Api_alloc | Api_free | Api_free_deferred -> "slab"
  | Hash_lookup | Hash_update -> "rcudata"
  | Gp_promote | Stall_poll -> "check"

let outside_row = function
  | Api_alloc -> 0
  | Api_free -> 1
  | Api_free_deferred -> 2
  | Hash_lookup -> 3
  | Hash_update -> 4
  | Gp_promote -> 5
  | Stall_poll -> 6

(* Event dispatch never runs inside a wrapped call, so its frames cannot
   interleave with the markers. *)
let marker = Prof.Span.Engine_dispatch

(* Disjoint rows of the traced wall time, in report order; [tracing]
   is the remainder. *)
let layers =
  [ "engine"; "buddy"; "slab"; "latq"; "rcu"; "prudence"; "rcudata"; "check";
    "unattributed" ]

let tracing = "tracing"

type t = { prof : Prof.t; cpus : int }

let create ~cpus =
  { prof = Prof.create ~ncpus:(cpus + List.length all_outside) (); cpus }

let prof t = t.prof
let enter t o = Prof.enter t.prof ~cpu:(t.cpus + outside_row o) marker
let exit t = Prof.exit t.prof marker

let backend t (b : Slab.Backend.t) =
  {
    b with
    Slab.Backend.alloc =
      (fun c cpu ->
        enter t Api_alloc;
        let r = b.Slab.Backend.alloc c cpu in
        exit t;
        r);
    free =
      (fun c cpu o ->
        enter t Api_free;
        b.Slab.Backend.free c cpu o;
        exit t);
    free_deferred =
      (fun c cpu o ->
        enter t Api_free_deferred;
        b.Slab.Backend.free_deferred c cpu o;
        exit t);
  }

let smr t (s : Slab.Smr.t) =
  {
    s with
    Slab.Smr.on_ripen =
      (fun f ->
        s.Slab.Smr.on_ripen (fun frontier ->
            enter t Gp_promote;
            f frontier;
            exit t));
  }

(* One span's totals over the run. [self_*] exclude nested spans of
   either kind; [incl_ns] is the whole call. *)
type stat = { calls : int; self_ns : float; incl_ns : float; self_words : float }

let zero = { calls = 0; self_ns = 0.; incl_ns = 0.; self_words = 0. }

let add a (c : Prof.cell) =
  {
    calls = a.calls + c.Prof.calls;
    self_ns = a.self_ns +. c.Prof.self_ns;
    incl_ns = a.incl_ns +. c.Prof.incl_ns;
    self_words = a.self_words +. c.Prof.self_minor_words;
  }

let outside_of_cell t (c : Prof.cell) =
  if c.Prof.span <> marker || c.Prof.cpu < t.cpus then None
  else List.find_opt (fun o -> outside_row o = c.Prof.cpu - t.cpus) all_outside

(* Per-span totals keyed by span name (library spans summed over CPU
   rows, outside spans by their own names). *)
let stats t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (c : Prof.cell) ->
      let key =
        match outside_of_cell t c with
        | Some o -> outside_name o
        | None -> Prof.Span.name c.Prof.span
      in
      let prev = Option.value (Hashtbl.find_opt tbl key) ~default:zero in
      Hashtbl.replace tbl key (add prev c))
    (Prof.cells t.prof);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The row a span's self time belongs to. [engine.dispatch] is the
   body of every event: its self time is code with no span of its own
   (process, workload, rculist, SMR-backend and Appmodel code). *)
let layer_of name =
  match List.find_opt (fun o -> outside_name o = name) all_outside with
  | Some o -> outside_layer o
  | None -> (
      match name with
      | "engine.dispatch" -> "unattributed"
      | "slab.latq_push" | "slab.latq_harvest" -> "latq"
      | _ ->
          let l = String.sub name 0 (String.index name '.') in
          if List.mem l layers then l else "unattributed")

(* [(layer, self ns, self words)] for every row of [layers], then the
   remainder of [wall_ns]/[words], from the output of [stats]. *)
let rows stats ~wall_ns ~words =
  let attributed =
    List.map
      (fun l ->
        List.fold_left
          (fun (l, ns, w) (name, s) ->
            if layer_of name = l then (l, ns +. s.self_ns, w +. s.self_words)
            else (l, ns, w))
          (l, 0., 0.) stats)
      layers
  in
  let sum f = List.fold_left (fun a r -> a +. f r) 0. attributed in
  attributed
  @ [
      ( tracing,
        wall_ns -. sum (fun (_, n, _) -> n),
        words -. sum (fun (_, _, w) -> w) );
    ]
