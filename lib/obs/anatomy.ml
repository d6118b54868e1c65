(* The grace-period anatomy tracer + object-lineage flight recorder.

   One instance observes a whole environment as a subscriber of the
   engine's reclamation event tap plus a frontier hook on the truthful
   SMR view. Both are pure observation — they read the virtual clock and
   mutate only the recorder's own state, never consume virtual time, and
   never schedule events — so a run with the recorder armed is
   byte-identical (in every deterministic counter) to one without. A run
   without it simply has no subscriber.

   Phase attribution: each reclamation token (GP number / epoch / batch
   id) gets a record stamped at defer, detection request, detection
   start, and completion; each deferred object gets a lineage stamped at
   defer, harvest (free-pool entry) and reuse. At reuse the two are
   joined into the five-phase decomposition of {!Phase}, with each edge
   clamped to be monotone so per-object phase samples always sum exactly
   to the object's total defer->reuse latency. *)

type gp_record = {
  cookie : int;
  mutable defer_ns : int;  (* first defer issuing this token; -1 none *)
  mutable request_ns : int;  (* first detection request at/after issue *)
  mutable start_ns : int;  (* detection cycle actually began *)
  mutable complete_ns : int;  (* truthful frontier passed the token *)
  mutable first_qs_cpu : int;
  mutable first_qs_ns : int;
  mutable holdout_cpu : int;  (* last CPU to report before completion *)
  mutable holdout_ns : int;
  mutable objects : int;  (* objects deferred under this token *)
}

type lineage = {
  oid : int;
  l_cookie : int;
  l_deferred_ns : int;
  mutable l_pooled_ns : int;  (* harvested into a free pool; -1 pending *)
  mutable l_reused_ns : int;  (* handed to a new owner; -1 pending *)
}

type t = {
  scheme : string;
  now : unit -> int;
  hists : Trace.Hist.t array;  (* one per Phase.t *)
  total : Trace.Hist.t;  (* defer->reuse, the sum identity's right side *)
  tokens : (int, gp_record) Hashtbl.t;
  mutable open_toks : gp_record list;  (* complete_ns < 0, newest first *)
  mutable awaiting_request : gp_record list;  (* request_ns < 0 *)
  completed_log : gp_record Trace.Ring.t;  (* completed, bounded *)
  lineages : (int, lineage) Hashtbl.t;  (* outstanding deferred objects *)
  recent_lineage : lineage Trace.Ring.t;  (* closed lineages, bounded *)
  mutable frontier : int;  (* truthful frontier last observed *)
  mutable defers : int;
  mutable reuses : int;
  mutable dropped : int;  (* reuses whose token record was missing *)
}

let completed_log_capacity = 1_024
let recent_lineage_capacity = 4_096

let make ~scheme ~now =
  {
    scheme;
    now;
    hists = Array.init Phase.count (fun _ -> Trace.Hist.create ());
    total = Trace.Hist.create ();
    tokens = Hashtbl.create 256;
    open_toks = [];
    awaiting_request = [];
    completed_log = Trace.Ring.create ~capacity:completed_log_capacity;
    lineages = Hashtbl.create 256;
    recent_lineage = Trace.Ring.create ~capacity:recent_lineage_capacity;
    frontier = 0;
    defers = 0;
    reuses = 0;
    dropped = 0;
  }

let scheme t = t.scheme

(* {1 Observation entry points} *)

let note_defer t ~oid ~cookie =
  let now = t.now () in
  t.defers <- t.defers + 1;
  (match Hashtbl.find_opt t.tokens cookie with
  | Some r -> r.objects <- r.objects + 1
  | None ->
      let r =
        {
          cookie;
          defer_ns = now;
          request_ns = -1;
          start_ns = -1;
          complete_ns = -1;
          first_qs_cpu = -1;
          first_qs_ns = -1;
          holdout_cpu = -1;
          holdout_ns = -1;
          objects = 1;
        }
      in
      Hashtbl.replace t.tokens cookie r;
      if cookie <= t.frontier then begin
        (* Token already ripe at defer (frontier-corrupting mutants or
           an instant scheme): complete immediately, no open window. *)
        r.complete_ns <- now;
        Trace.Ring.push t.completed_log r
      end
      else begin
        t.open_toks <- r :: t.open_toks;
        t.awaiting_request <- r :: t.awaiting_request
      end);
  Hashtbl.replace t.lineages oid
    { oid; l_cookie = cookie; l_deferred_ns = now; l_pooled_ns = -1;
      l_reused_ns = -1 }

let note_request t =
  if t.awaiting_request <> [] then begin
    let now = t.now () in
    List.iter
      (fun r -> if r.request_ns < 0 then r.request_ns <- now)
      t.awaiting_request;
    t.awaiting_request <- []
  end

(* A detection cycle began for one specific token (RCU GP number,
   Hyaline batch seal). *)
let note_start t ~token =
  match Hashtbl.find_opt t.tokens token with
  | Some r when r.start_ns < 0 && r.complete_ns < 0 -> r.start_ns <- t.now ()
  | Some _ | None -> ()

(* A detection cycle began for every open token at once (EBR: an
   advancement attempt scans on behalf of all outstanding epochs). *)
let note_start_open t =
  let now = t.now () in
  List.iter (fun r -> if r.start_ns < 0 then r.start_ns <- now) t.open_toks

(* [cpu] reported progress for every started open token: a QS report, a
   blocking stale announcement, or a batch-ref decrement. The last
   report standing when the token completes is its holdout. *)
let note_qs t ~cpu =
  let now = t.now () in
  List.iter
    (fun r ->
      if r.start_ns >= 0 then begin
        if r.first_qs_ns < 0 then begin
          r.first_qs_cpu <- cpu;
          r.first_qs_ns <- now
        end;
        r.holdout_cpu <- cpu;
        r.holdout_ns <- now
      end)
    t.open_toks

let note_complete t ~frontier =
  if frontier > t.frontier then begin
    t.frontier <- frontier;
    let now = t.now () in
    t.open_toks <-
      List.filter
        (fun r ->
          if r.cookie <= frontier then begin
            r.complete_ns <- now;
            Trace.Ring.push t.completed_log r;
            false
          end
          else true)
        t.open_toks;
    t.awaiting_request <-
      List.filter (fun r -> r.complete_ns < 0) t.awaiting_request
  end

(* Clamped five-edge decomposition: a missing stamp inherits the previous
   edge (zero-width phase), so the five samples sum exactly to total. *)
let record_phases t (ln : lineage) ~reused_ns =
  match Hashtbl.find_opt t.tokens ln.l_cookie with
  | None -> t.dropped <- t.dropped + 1
  | Some r ->
      let lift prev v = if v < 0 then prev else max prev v in
      let e0 = ln.l_deferred_ns in
      let e1 = lift e0 r.request_ns in
      let e2 = lift e1 r.start_ns in
      let e3 = lift e2 r.complete_ns in
      let e4 = lift e3 ln.l_pooled_ns in
      let e5 = lift e4 reused_ns in
      Trace.Hist.record t.hists.(Phase.(index Defer_to_request)) (e1 - e0);
      Trace.Hist.record t.hists.(Phase.(index Request_to_start)) (e2 - e1);
      Trace.Hist.record t.hists.(Phase.(index Qs_collection)) (e3 - e2);
      Trace.Hist.record t.hists.(Phase.(index Complete_to_harvest)) (e4 - e3);
      Trace.Hist.record t.hists.(Phase.(index Harvest_to_reuse)) (e5 - e4);
      Trace.Hist.record t.total (e5 - e0)

let note_pool t ~oid =
  match Hashtbl.find_opt t.lineages oid with
  | Some ln when ln.l_pooled_ns < 0 -> ln.l_pooled_ns <- t.now ()
  | Some _ | None -> ()

let note_alloc t ~oid =
  match Hashtbl.find_opt t.lineages oid with
  | None -> ()
  | Some ln ->
      let now = t.now () in
      ln.l_reused_ns <- now;
      t.reuses <- t.reuses + 1;
      record_phases t ln ~reused_ns:now;
      Hashtbl.remove t.lineages oid;
      Trace.Ring.push t.recent_lineage ln

(* The object died with its page (never reused): close the lineage
   without a reuse edge so the bundle can still show it. *)
let note_page_release t ~oid =
  match Hashtbl.find_opt t.lineages oid with
  | None -> ()
  | Some ln ->
      Hashtbl.remove t.lineages oid;
      Trace.Ring.push t.recent_lineage ln

(* {1 Subscription} *)

(* The detector whose events feed the phase edges: the scheme behind the
   truthful SMR view. Another detector on the same engine (RCU driven by
   a callback flood under an epoch backend) does not reclaim this
   backend's objects and is ignored. *)
type detector = Rcu_gp | Epoch | Batch

let detector_of (smr : Slab.Smr.t) =
  match smr.Slab.Smr.scheme with
  | "ebr-debra" -> Epoch
  | "hyaline" -> Batch
  | _ -> Rcu_gp

let on_event t detector (kind : Trace.Event.kind) ~cpu:_ ~label:_ a b =
  match (kind, detector) with
  | Defer, _ -> note_defer t ~oid:a ~cookie:b
  | Pool, _ -> note_pool t ~oid:a
  | Alloc, _ -> note_alloc t ~oid:a
  | Page_release, _ -> note_page_release t ~oid:a
  | (Gp_request, Rcu_gp | Epoch_request, Epoch | Batch_request, Batch) ->
      note_request t
  | (Gp_start, Rcu_gp | Batch_seal, Batch) -> note_start t ~token:a
  | Epoch_scan, Epoch -> note_start_open t
  | (Gp_qs, Rcu_gp | Epoch_blocked, Epoch | Batch_unref, Batch) ->
      note_qs t ~cpu:a
  | _ -> ()

let create ~scheme engine (smr : Slab.Smr.t) =
  let t = make ~scheme ~now:(fun () -> Sim.Engine.now engine) in
  Trace.Tap.subscribe (Sim.Engine.tap engine) (on_event t (detector_of smr));
  smr.Slab.Smr.on_ripen (fun f -> note_complete t ~frontier:f);
  t

(* {1 Results} *)

let phase_hist t p = t.hists.(Phase.index p)
let total_hist t = t.total
let defers t = t.defers
let reuses t = t.reuses
let dropped t = t.dropped
let frontier t = t.frontier

let find_gp t cookie = Hashtbl.find_opt t.tokens cookie

let completed_gps t n = Trace.Ring.recent t.completed_log n

(* Worst completed grace period by detection-cycle span (start ->
   complete): the one whose holdout CPU cost the most. *)
let worst_gp t =
  let best = ref None in
  Trace.Ring.iter t.completed_log (fun r ->
      if r.start_ns >= 0 && r.complete_ns >= 0 then
        let span = r.complete_ns - r.start_ns in
        match !best with
        | Some (_, s) when s >= span -> ()
        | _ -> best := Some (r, span));
  Option.map fst !best

let lineage_of t ~oid =
  match Hashtbl.find_opt t.lineages oid with
  | Some ln -> Some ln
  | None ->
      let found = ref None in
      (* Newest first: the most recent incarnation of a reused oid. *)
      Trace.Ring.iter_rev t.recent_lineage (fun ln ->
          if !found = None && ln.oid = oid then found := Some ln);
      !found

let recent_lineages t n = Trace.Ring.recent t.recent_lineage n

(* {1 Rendering} *)

(* The sum identity's left side: equals [Trace.Hist.sum (total_hist t)]
   by construction of the clamped decomposition. *)
let phase_sum t =
  List.fold_left
    (fun acc p -> acc + Trace.Hist.sum (phase_hist t p))
    0 Phase.all

let sum_identity_ok t = phase_sum t = Trace.Hist.sum t.total

let fmt_ns_opt = function
  | None -> "-"
  | Some ns when ns >= 1_000_000 ->
      Printf.sprintf "%.2fms" (float_of_int ns /. 1e6)
  | Some ns when ns >= 1_000 ->
      Printf.sprintf "%.1fus" (float_of_int ns /. 1e3)
  | Some ns -> Printf.sprintf "%dns" ns

let fmt_ns ns = fmt_ns_opt (Some ns)

let hist_row label h =
  [
    label;
    Metrics.Table.fmt_i (Trace.Hist.count h);
    fmt_ns_opt (Trace.Hist.percentile_opt h 50.);
    fmt_ns_opt (Trace.Hist.percentile_opt h 99.);
    (match Trace.Hist.mean_opt h with
    | None -> "-"
    | Some m -> fmt_ns (int_of_float m));
    fmt_ns (Trace.Hist.sum h);
  ]

let worst_gp_line t =
  match worst_gp t with
  | None -> "worst gp: none completed inside the recorder window"
  | Some r ->
      let span = r.complete_ns - max 0 r.start_ns in
      Printf.sprintf
        "worst gp: cookie %d span %s (start %s -> complete %s), %d objects%s%s"
        r.cookie (fmt_ns span) (fmt_ns r.start_ns) (fmt_ns r.complete_ns)
        r.objects
        (if r.holdout_cpu >= 0 then
           Printf.sprintf ", holdout cpu %d @ %s" r.holdout_cpu
             (fmt_ns r.holdout_ns)
         else ", no holdout observed")
        (if r.first_qs_cpu >= 0 then
           Printf.sprintf ", first qs cpu %d @ %s" r.first_qs_cpu
             (fmt_ns r.first_qs_ns)
         else "")

(* One recorder's text block: the phase table (count / p50 / p99 / mean
   / sum per phase, then the total), the worst-GP line naming the
   holdout CPU, and the sum-identity line. *)
let render t =
  let rows =
    List.map (fun p -> hist_row (Phase.name p) (phase_hist t p)) Phase.all
    @ [ hist_row "total" t.total ]
  in
  let identity =
    let ps = phase_sum t and ts = Trace.Hist.sum t.total in
    if ps = ts then Printf.sprintf "phase sums == total (%s): exact" (fmt_ns ts)
    else
      Printf.sprintf "SUM MISMATCH: phases %s vs total %s" (fmt_ns ps)
        (fmt_ns ts)
  in
  Printf.sprintf "-- %s (%s: %d defers, %d reuses, %d dropped) --\n%s\n%s\n%s\n"
    t.scheme t.scheme t.defers t.reuses t.dropped
    (Metrics.Table.render
       ~header:[ "phase"; "count"; "p50"; "p99"; "mean"; "sum" ]
       rows)
    (worst_gp_line t) identity

(* One recorder's NDJSON objects: a [phase] line per phase, the [total]
   line, and the [worst_gp] line when a grace period completed. *)
let json t =
  let module J = Metrics.Json in
  let opt = function None -> J.Null | Some v -> J.Int v in
  let hist_json h =
    [
      ("count", J.Int (Trace.Hist.count h));
      ("p50_ns", opt (Trace.Hist.percentile_opt h 50.));
      ("p99_ns", opt (Trace.Hist.percentile_opt h 99.));
      ( "mean_ns",
        match Trace.Hist.mean_opt h with None -> J.Null | Some m -> J.Float m );
      ("sum_ns", J.Int (Trace.Hist.sum h));
    ]
  in
  let scheme = ("scheme", J.Str t.scheme) in
  let phases =
    List.map
      (fun p ->
        J.Obj
          (("type", J.Str "phase") :: scheme
          :: ("phase", J.Str (Phase.name p))
          :: hist_json (phase_hist t p)))
      Phase.all
  in
  let total = J.Obj (("type", J.Str "total") :: scheme :: hist_json t.total) in
  let worst =
    match worst_gp t with
    | None -> []
    | Some g ->
        let i v = if v < 0 then J.Null else J.Int v in
        [
          J.Obj
            [
              ("type", J.Str "worst_gp");
              scheme;
              ("cookie", J.Int g.cookie);
              ("defer_ns", i g.defer_ns);
              ("request_ns", i g.request_ns);
              ("start_ns", i g.start_ns);
              ("complete_ns", i g.complete_ns);
              ("span_ns", J.Int (g.complete_ns - max 0 g.start_ns));
              ("first_qs_cpu", i g.first_qs_cpu);
              ("first_qs_ns", i g.first_qs_ns);
              ("holdout_cpu", i g.holdout_cpu);
              ("holdout_ns", i g.holdout_ns);
              ("objects", J.Int g.objects);
            ];
        ]
  in
  phases @ (total :: worst)
