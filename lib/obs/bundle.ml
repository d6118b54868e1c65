(* Forensic bundles: self-contained NDJSON post-mortems emitted when an
   oracle fires or a chaos mitigation triggers.

   One bundle is a sequence of JSON lines, version-tagged
   ["prudence-bundle/1"]: a header (reason, scheme, capture time, exact
   replay command), the violations, the flight-recorder window (newest
   events per CPU), the offending object lineages plus a window of
   recent ones, the anatomy of the implicated grace periods, and a full
   metric snapshot. Every timestamp is virtual, and the JSON printer is
   deterministic, so the same seed and the same violation produce a
   byte-identical bundle — a bundle is a reproducible artifact, not a
   log. *)

module J = Metrics.Json

let version = "prudence-bundle/1"
let default_window = 128

let intn v = if v < 0 then J.Null else J.Int v

let event_line (e : Trace.Event.t) =
  J.Obj
    [
      ("type", J.Str "event");
      ("cpu", J.Int e.Trace.Event.cpu);
      ("time_ns", J.Int e.time);
      ("kind", J.Str (Trace.Event.kind_name e.kind));
      ("label", if e.label = "" then J.Null else J.Str e.label);
      ("arg", J.Int e.arg);
    ]

let lineage_line ~offender ~detail (ln : Anatomy.lineage) =
  J.Obj
    [
      ("type", J.Str "lineage");
      ("oid", J.Int ln.Anatomy.oid);
      ("cookie", J.Int ln.l_cookie);
      ("offender", J.Bool offender);
      ("detail", (match detail with None -> J.Null | Some d -> J.Str d));
      ("deferred_ns", J.Int ln.l_deferred_ns);
      ("pooled_ns", intn ln.l_pooled_ns);
      ("reused_ns", intn ln.l_reused_ns);
    ]

let gp_line ~tag (r : Anatomy.gp_record) =
  J.Obj
    [
      ("type", J.Str "gp");
      ("cookie", J.Int r.Anatomy.cookie);
      ("tag", J.Str tag);
      ("defer_ns", intn r.defer_ns);
      ("request_ns", intn r.request_ns);
      ("start_ns", intn r.start_ns);
      ("complete_ns", intn r.complete_ns);
      ("first_qs_cpu", intn r.first_qs_cpu);
      ("first_qs_ns", intn r.first_qs_ns);
      ("holdout_cpu", intn r.holdout_cpu);
      ("holdout_ns", intn r.holdout_ns);
      ("objects", J.Int r.objects);
    ]

(* The bundle as a list of JSON lines. [offenders] carries the objects
   the oracle convicted, with the human-readable verdicts; implicated
   grace periods are derived from the offenders' cookies. *)
let lines ?(window = default_window) ~reason ~replay ~scheme ~at_ns ~tracer
    ~anatomy ~offenders ~violations ~metrics () =
  let header =
    J.Obj
      [
        ("type", J.Str "bundle");
        ("version", J.Str version);
        ("reason", J.Str reason);
        ("scheme", J.Str scheme);
        ("at_ns", J.Int at_ns);
        ("replay", J.Str replay);
        ("cpus", J.Int (Trace.ncpus tracer));
        ("window", J.Int window);
        ("defers", J.Int (Anatomy.defers anatomy));
        ("reuses", J.Int (Anatomy.reuses anatomy));
        ("events_retained", J.Int (Trace.total_events tracer));
        ("events_dropped", J.Int (Trace.total_dropped tracer));
      ]
  in
  let violation_lines =
    List.map
      (fun d -> J.Obj [ ("type", J.Str "violation"); ("detail", J.Str d) ])
      violations
  in
  let event_lines =
    let cpus = Trace.ncpus tracer in
    let per cpu =
      List.map event_line (Trace.recent_events tracer ~cpu window)
    in
    List.concat_map per (List.init cpus (fun i -> i) @ [ -1 ])
  in
  let offender_lines =
    List.filter_map
      (fun (oid, detail) ->
        match Anatomy.lineage_of anatomy ~oid with
        | Some ln -> Some (lineage_line ~offender:true ~detail:(Some detail) ln)
        | None ->
            (* Conviction without a lineage (recorder window overrun or an
               object the recorder never saw deferred): keep the verdict. *)
            Some
              (J.Obj
                 [
                   ("type", J.Str "lineage");
                   ("oid", J.Int oid);
                   ("cookie", J.Null);
                   ("offender", J.Bool true);
                   ("detail", J.Str detail);
                 ]))
      offenders
  in
  let offender_oids = List.map fst offenders in
  let recent_lines =
    List.filter_map
      (fun ln ->
        if List.mem ln.Anatomy.oid offender_oids then None
        else Some (lineage_line ~offender:false ~detail:None ln))
      (Anatomy.recent_lineages anatomy 32)
  in
  let implicated =
    List.sort_uniq compare
      (List.filter_map
         (fun (oid, _) ->
           Option.map
             (fun ln -> ln.Anatomy.l_cookie)
             (Anatomy.lineage_of anatomy ~oid))
         offenders)
  in
  let gp_lines =
    let impl =
      List.filter_map
        (fun cookie ->
          Option.map (gp_line ~tag:"implicated")
            (Anatomy.find_gp anatomy cookie))
        implicated
    in
    match Anatomy.worst_gp anatomy with
    | Some r when not (List.mem r.Anatomy.cookie implicated) ->
        impl @ [ gp_line ~tag:"worst" r ]
    | Some _ | None -> impl
  in
  let metric_lines =
    List.map
      (fun (name, v) ->
        J.Obj
          [ ("type", J.Str "metric"); ("name", J.Str name); ("value", J.Float v) ])
      metrics
  in
  let trailer =
    J.Obj
      [
        ("type", J.Str "end");
        ("violations", J.Int (List.length violation_lines));
        ("events", J.Int (List.length event_lines));
        ("lineages", J.Int (List.length offender_lines + List.length recent_lines));
        ("gps", J.Int (List.length gp_lines));
        ("metrics", J.Int (List.length metric_lines));
      ]
  in
  (header :: violation_lines)
  @ event_lines @ offender_lines @ recent_lines @ gp_lines @ metric_lines
  @ [ trailer ]

let to_string lns =
  String.concat "" (List.map (fun l -> J.to_string l ^ "\n") lns)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write ?window ~path ~reason ~replay ~scheme ~at_ns ~tracer ~anatomy
    ~offenders ~violations ~metrics () =
  let body =
    to_string
      (lines ?window ~reason ~replay ~scheme ~at_ns ~tracer ~anatomy
         ~offenders ~violations ~metrics ())
  in
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc body;
  close_out oc

(* {1 Parsing and the postmortem timeline view} *)

let parse content =
  let lns =
    List.filteri
      (fun _ l -> String.trim l <> "")
      (String.split_on_char '\n' content)
  in
  let rec go acc n = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
        match J.of_string l with
        | Ok j -> go (j :: acc) (n + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" (n + 1) e))
  in
  match go [] 0 lns with
  | Error _ as e -> e
  | Ok [] -> Error "empty bundle"
  | Ok (header :: _ as all) -> (
      match
        (J.member "type" header, J.member "version" header)
      with
      | Some (J.Str "bundle"), Some (J.Str v) when v = version -> Ok all
      | Some (J.Str "bundle"), Some (J.Str v) ->
          Error (Printf.sprintf "unsupported bundle version %S" v)
      | _ -> Error "not a prudence forensic bundle (missing header line)")

let str_field key j = Option.bind (J.member key j) J.to_string_opt
let int_field key j = Option.bind (J.member key j) J.to_int_opt
let typ j = Option.value ~default:"" (str_field "type" j)

let pp_opt_ns = function None -> "(pending)" | Some v -> Printf.sprintf "%d ns" v

let render_parsed lns =
  let b = Buffer.create 4_096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let header = List.hd lns in
  let field ?(default = "?") k = Option.value ~default (str_field k header) in
  let ifield k = Option.value ~default:0 (int_field k header) in
  pf "== forensic bundle %s ==\n" (field "version");
  pf "reason:   %s\n" (field "reason");
  pf "scheme:   %s\n" (field "scheme");
  pf "captured: %d ns (events retained %d, dropped %d; %d defers, %d reuses)\n"
    (ifield "at_ns") (ifield "events_retained") (ifield "events_dropped")
    (ifield "defers") (ifield "reuses");
  pf "replay:   %s\n" (field "replay");
  let of_type t = List.filter (fun j -> typ j = t) lns in
  (* violations *)
  let violations = of_type "violation" in
  pf "\nviolations (%d):\n" (List.length violations);
  List.iter
    (fun j -> pf "  - %s\n" (Option.value ~default:"?" (str_field "detail" j)))
    violations;
  (* per-CPU timeline *)
  let events = of_type "event" in
  pf "\ntimeline (newest %d events per cpu):\n" (ifield "window");
  let cpus = ifield "cpus" in
  List.iter
    (fun cpu ->
      let mine =
        List.filter (fun j -> int_field "cpu" j = Some cpu) events
      in
      if mine <> [] then begin
        if cpu < 0 then pf "  global:\n" else pf "  cpu %d:\n" cpu;
        List.iter
          (fun j ->
            pf "    [%12d ns] %-16s%s arg=%d\n"
              (Option.value ~default:0 (int_field "time_ns" j))
              (Option.value ~default:"?" (str_field "kind" j))
              (match str_field "label" j with
              | Some l -> " [" ^ l ^ "]"
              | None -> "")
              (Option.value ~default:0 (int_field "arg" j)))
          mine
      end)
    (List.init cpus (fun i -> i) @ [ -1 ]);
  (* lineages *)
  let lineages = of_type "lineage" in
  pf "\nobject lineages (%d, offenders first):\n" (List.length lineages);
  List.iter
    (fun j ->
      let offender =
        match J.member "offender" j with Some (J.Bool b) -> b | _ -> false
      in
      pf "  %s oid %d (cookie %s)%s\n"
        (if offender then "*" else "-")
        (Option.value ~default:(-1) (int_field "oid" j))
        (match int_field "cookie" j with
        | Some c -> string_of_int c
        | None -> "?")
        (match str_field "detail" j with
        | Some d -> ": " ^ d
        | None -> "");
      match int_field "deferred_ns" j with
      | None -> ()
      | Some d ->
          pf "      deferred @ %d ns -> pooled @ %s -> reused @ %s\n" d
            (pp_opt_ns (int_field "pooled_ns" j))
            (pp_opt_ns (int_field "reused_ns" j)))
    lineages;
  (* grace periods *)
  let gps = of_type "gp" in
  pf "\ngrace-period anatomy (%d):\n" (List.length gps);
  List.iter
    (fun j ->
      pf "  cookie %d [%s]: defer @ %s, request @ %s, start @ %s, complete @ %s\n"
        (Option.value ~default:(-1) (int_field "cookie" j))
        (Option.value ~default:"?" (str_field "tag" j))
        (pp_opt_ns (int_field "defer_ns" j))
        (pp_opt_ns (int_field "request_ns" j))
        (pp_opt_ns (int_field "start_ns" j))
        (pp_opt_ns (int_field "complete_ns" j));
      pf "      first qs: %s, holdout: %s, %d objects\n"
        (match (int_field "first_qs_cpu" j, int_field "first_qs_ns" j) with
        | Some c, Some n -> Printf.sprintf "cpu %d @ %d ns" c n
        | _ -> "(none)")
        (match (int_field "holdout_cpu" j, int_field "holdout_ns" j) with
        | Some c, Some n -> Printf.sprintf "cpu %d @ %d ns" c n
        | _ -> "(none)")
        (Option.value ~default:0 (int_field "objects" j)))
    gps;
  (* metrics *)
  let metrics = of_type "metric" in
  pf "\nmetric snapshot (%d entries):\n" (List.length metrics);
  List.iter
    (fun j ->
      pf "  %-40s %s\n"
        (Option.value ~default:"?" (str_field "name" j))
        (match Option.bind (J.member "value" j) J.to_float_opt with
        | Some v ->
            if Float.is_integer v && Float.abs v < 1e15 then
              Printf.sprintf "%d" (int_of_float v)
            else Printf.sprintf "%.12g" v
        | None -> "?"))
    metrics;
  Buffer.contents b

let render content = Result.map render_parsed (parse content)
