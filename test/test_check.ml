(* The verification subsystem itself: shadow-heap oracle lifecycle, the
   auditors, schedule sweeps, differential replay — and the mutation
   self-tests proving the oracle actually fires on broken reclamation. *)

module W = Workloads
module Shadow = Check.Shadow
module Audit = Check.Audit
module Sweep = Check.Sweep
module Diff = Check.Differential

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let build ?(kind = W.Env.Baseline) ?(track_readers = true)
    ?(prudence_config = Prudence.default_config) () =
  W.Env.build
    {
      W.Env.default_config with
      W.Env.kind;
      cpus = 2;
      seed = 7;
      total_pages = 4_096;
      prudence_config;
      track_readers;
    }

let drive ?(horizon = Sim.Clock.s 2) (env : W.Env.t) body =
  let finished = ref false in
  Sim.Process.spawn env.W.Env.eng (fun () ->
      body ();
      finished := true);
  Sim.Engine.run ~until:horizon env.W.Env.eng;
  if not !finished then Alcotest.fail "driver process did not finish"

let state_name = function
  | None -> "untracked"
  | Some s -> Format.asprintf "%a" Shadow.pp_state s

let check_state oracle ~oid expect =
  Alcotest.(check string) (Printf.sprintf "object %d state" oid) expect
    (state_name (Shadow.state oracle ~oid))

(* live -> deferred -> ripe across a grace period, then back into
   circulation, with zero violations: the oracle observes the full legal
   lifecycle without disturbing it. *)
let test_oracle_lifecycle () =
  let env = build ~kind:W.Env.Prudence_alloc () in
  let oracle = Shadow.install env in
  let backend = env.W.Env.backend in
  let cache = backend.Slab.Backend.create_cache ~name:"lc" ~obj_size:256 in
  let c = W.Env.cpu env 0 in
  drive env (fun () ->
      let obj = backend.Slab.Backend.alloc cache c in
      let oid = Slab.Frame.oid cache obj in
      check_state oracle ~oid "live";
      backend.Slab.Backend.free_deferred cache c obj;
      (match Shadow.state oracle ~oid with
      | Some (Shadow.Deferred _) -> ()
      | other ->
          Alcotest.failf "expected deferred, got %s" (state_name other));
      Rcu.synchronize env.W.Env.rcu;
      check_state oracle ~oid "ripe";
      (* Allocation pressure merges the ripe object back eventually. *)
      let churn =
        List.init 200 (fun _ -> backend.Slab.Backend.alloc cache c)
      in
      List.iter (fun o -> backend.Slab.Backend.free cache c o) churn;
      match Shadow.state oracle ~oid with
      | Some (Shadow.Live | Shadow.Reclaimed) -> ()
      | other ->
          Alcotest.failf "expected live or reclaimed after churn, got %s"
            (state_name other));
  Alcotest.(check int) "no violations" 0 (Shadow.violation_count oracle);
  Alcotest.(check bool) "probes fired" true (Shadow.events oracle > 0)

(* Oracles do not displace each other: two shadow heaps on one
   environment both subscribe to the tap and see every event, reader
   accesses included. *)
let test_two_oracles_one_env () =
  let env = build ~kind:W.Env.Prudence_alloc () in
  let first = Shadow.install env in
  let second = Shadow.install env in
  let backend = env.W.Env.backend in
  let cache = backend.Slab.Backend.create_cache ~name:"two" ~obj_size:256 in
  let c = W.Env.cpu env 0 in
  let readers = env.W.Env.readers in
  drive env (fun () ->
      let obj = backend.Slab.Backend.alloc cache c in
      Rcu.Readers.with_section readers c (fun () ->
          Rcu.Readers.hold readers c ~oid:(Slab.Frame.oid cache obj));
      backend.Slab.Backend.free_deferred cache c obj;
      Rcu.synchronize env.W.Env.rcu);
  Alcotest.(check bool) "first oracle saw events" true (Shadow.events first > 0);
  Alcotest.(check int) "both saw the same events" (Shadow.events first)
    (Shadow.events second)

(* A reader derefencing an object after it returned to a free pool must be
   flagged, and only then. *)
let test_oracle_use_after_reclaim () =
  let env = build () in
  let oracle = Shadow.install env in
  let backend = env.W.Env.backend in
  let cache = backend.Slab.Backend.create_cache ~name:"uar" ~obj_size:256 in
  let c = W.Env.cpu env 0 in
  let readers = env.W.Env.readers in
  drive env (fun () ->
      let obj = backend.Slab.Backend.alloc cache c in
      let oid = Slab.Frame.oid cache obj in
      (* Legal: reading a live object. *)
      Rcu.Readers.with_section readers c (fun () ->
          Rcu.Readers.hold readers c ~oid);
      Alcotest.(check int) "no violation on live access" 0
        (Shadow.violation_count oracle);
      backend.Slab.Backend.free cache c obj;
      check_state oracle ~oid "reclaimed";
      (* Broken: the reader kept a stale pointer past the free. *)
      Rcu.Readers.with_section readers c (fun () ->
          Rcu.Readers.hold readers c ~oid));
  match Shadow.violations oracle with
  | [ { Shadow.kind = Shadow.Use_after_reclaim { cpu = 0 }; oid = _; _ } ] ->
      ()
  | vs ->
      Alcotest.failf "expected one use-after-reclaim, got %d: %s"
        (List.length vs)
        (String.concat "; " (List.map Shadow.describe vs))

(* Mutation self-test: double free. The frame's own assert aborts the
   operation, but the probe fires first, so the oracle must have recorded
   the bad transition by the time the assert trips. *)
let test_oracle_double_free () =
  let env = build () in
  let oracle = Shadow.install env in
  let backend = env.W.Env.backend in
  let cache = backend.Slab.Backend.create_cache ~name:"df" ~obj_size:256 in
  let c = W.Env.cpu env 0 in
  drive env (fun () ->
      let obj = backend.Slab.Backend.alloc cache c in
      backend.Slab.Backend.free cache c obj;
      match backend.Slab.Backend.free cache c obj with
      | () -> Alcotest.fail "double free was not rejected"
      | exception Assert_failure _ -> ());
  Alcotest.(check bool) "oracle saw the double free" true
    (List.exists
       (fun v ->
         match v.Shadow.kind with
         | Shadow.Bad_transition { event = "freed"; _ } -> true
         | _ -> false)
       (Shadow.violations oracle))

(* A shadow heap driven by hand: events go straight onto the env's tap,
   and the frontier is whatever the test says. The wrapped SMR view's
   [on_ripen] captures the promotion hook and its [ripe_upto] reads the
   test's frontier, so an advance is "set the frontier, call the hook". *)
type harness = {
  oracle : Shadow.t;
  emit : Trace.Event.kind -> int -> int -> unit;
  advance : int -> unit;
}

let harness ?coverage () =
  let env = build ~track_readers:false () in
  let frontier = ref 0 and hook = ref ignore in
  let smr =
    {
      env.W.Env.smr with
      Slab.Smr.ripe_upto = (fun () -> !frontier);
      on_ripen = (fun f -> hook := f);
    }
  in
  let oracle = Shadow.install ?coverage { env with W.Env.smr } in
  let tap = Sim.Engine.tap env.W.Env.eng in
  {
    oracle;
    emit = (fun kind a b -> Trace.Tap.emit tap kind ~cpu:(-1) ~label:"" a b);
    advance =
      (fun f ->
        frontier := f;
        !hook f);
  }

(* The reference: the shadow heap as a hash table with a full scan of
   every tracked object per frontier advance. *)
module Model = struct
  type t = {
    states : (int, Shadow.state) Hashtbl.t;
    cov : Check.Coverage.t;
    mutable log : Shadow.violation list;  (* reversed, unbounded *)
    mutable frontier : int;
  }

  let create () =
    {
      states = Hashtbl.create 64;
      cov = Check.Coverage.create ();
      log = [];
      frontier = 0;
    }

  let tag = function
    | None -> 0
    | Some Shadow.Live -> 1
    | Some (Shadow.Deferred _) -> 2
    | Some Shadow.Ripe -> 3
    | Some Shadow.Reclaimed -> 4

  let state m oid = Hashtbl.find_opt m.states oid
  let flag m oid kind = m.log <- { Shadow.at_ns = 0; oid; kind } :: m.log

  let bad m oid event =
    flag m oid (Shadow.Bad_transition { from = state m oid; event })

  let set m oid st =
    Check.Coverage.note_transition m.cov ~from_tag:(tag (state m oid))
      ~to_tag:(tag (Some st));
    Hashtbl.replace m.states oid st

  let alloc m oid =
    (match state m oid with
    | Some (Shadow.Live | Shadow.Deferred _) -> bad m oid "allocated"
    | _ -> ());
    set m oid Shadow.Live

  let free m oid = if state m oid <> Some Shadow.Live then bad m oid "freed"

  let defer m oid cookie =
    if state m oid <> Some Shadow.Live then bad m oid "defer-freed";
    set m oid (Shadow.Deferred cookie)

  let pool m oid =
    (match state m oid with
    | Some (Shadow.Deferred c) when c > m.frontier ->
        flag m oid (Shadow.Early_reuse { cookie = c; completed = m.frontier })
    | _ -> ());
    set m oid Shadow.Reclaimed

  let page_release m oid cookie =
    (match state m oid with
    | Some (Shadow.Deferred c) when c > m.frontier ->
        flag m oid (Shadow.Page_reuse { cookie = c; completed = m.frontier })
    | None when cookie > m.frontier ->
        flag m oid (Shadow.Page_reuse { cookie; completed = m.frontier })
    | _ -> ());
    Check.Coverage.note_transition m.cov ~from_tag:(tag (state m oid))
      ~to_tag:5;
    Hashtbl.remove m.states oid

  let reader_access m ~cpu oid =
    if state m oid = Some Shadow.Reclaimed then
      flag m oid (Shadow.Use_after_reclaim { cpu })

  let advance m completed =
    m.frontier <- completed;
    let ripe =
      Hashtbl.fold
        (fun oid st acc ->
          match st with
          | Shadow.Deferred c when c <= completed -> oid :: acc
          | _ -> acc)
        m.states []
    in
    List.iter (fun oid -> set m oid Shadow.Ripe) ripe
end

(* One step of a random stream. Tokens are offsets from the frontier at
   the time the step runs, so they land both above and below the newest
   token issued, and some are already ripe. *)
type op =
  | Ev of Trace.Event.kind * int * int  (* kind, oid, token offset or cpu *)
  | Advance of int  (* frontier step *)

let op_gen =
  let open QCheck.Gen in
  (* Mostly a small pool of oids so lifecycles collide; sometimes a far
     one so the table grows mid-stream. *)
  let oid = frequency [ (9, int_bound 11); (1, int_bound 700) ] in
  let offset = int_range (-3) 6 in
  let ev kind arg = map2 (fun o a -> Ev (kind, o, a)) oid arg in
  frequency
    [
      (4, ev Trace.Event.Alloc (return 0));
      (1, ev Trace.Event.Free (return 0));
      (4, ev Trace.Event.Defer offset);
      (3, ev Trace.Event.Pool (return 0));
      (1, ev Trace.Event.Page_release offset);
      (1, ev Trace.Event.Reader_access (int_bound 3));
      (3, map (fun k -> Advance k) (int_bound 2));
    ]

let print_op = function
  | Ev (kind, oid, arg) ->
      let name =
        match kind with
        | Trace.Event.Alloc -> "alloc"
        | Free -> "free"
        | Defer -> "defer"
        | Pool -> "pool"
        | Page_release -> "page-release"
        | Reader_access -> "reader"
        | _ -> "other"
      in
      Printf.sprintf "%s(%d,%d)" name oid arg
  | Advance k -> Printf.sprintf "advance+%d" k

let prop_shadow_matches_model =
  QCheck.Test.make ~name:"shadow: flat table + index equal the full-scan model"
    ~count:300
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat " " (List.map print_op ops))
       QCheck.Gen.(list_size (int_range 1 160) op_gen))
    (fun ops ->
      let cov = Check.Coverage.create () in
      let h = harness ~coverage:cov () in
      let m = Model.create () in
      let first_k k l = List.filteri (fun i _ -> i < k) l in
      (* Every oid the stream touches, and one it never does. *)
      let oids =
        720
        :: List.filter_map (function Ev (_, o, _) -> Some o | _ -> None) ops
        |> List.sort_uniq compare
      in
      let agrees () =
        let logged = List.rev m.Model.log in
        let n = List.length logged in
        List.for_all
          (fun oid -> Shadow.state h.oracle ~oid = Model.state m oid)
          oids
        && Shadow.tracked h.oracle = Hashtbl.length m.Model.states
        && Shadow.violations h.oracle = first_k 64 logged
        && Shadow.violation_count h.oracle = min n 64
        && Shadow.dropped_violations h.oracle = max 0 (n - 64)
        && Check.Coverage.features cov
           = Check.Coverage.features m.Model.cov
      in
      List.for_all
        (fun op ->
          (match op with
          | Advance k ->
              let f = m.Model.frontier + k in
              Model.advance m f;
              h.advance f
          | Ev (kind, oid, arg) -> (
              let cookie = m.Model.frontier + arg in
              match kind with
              | Trace.Event.Alloc ->
                  Model.alloc m oid;
                  h.emit kind oid 0
              | Free ->
                  Model.free m oid;
                  h.emit kind oid 0
              | Defer ->
                  Model.defer m oid cookie;
                  h.emit kind oid cookie
              | Pool ->
                  Model.pool m oid;
                  h.emit kind oid 0
              | Page_release ->
                  Model.page_release m oid cookie;
                  h.emit kind oid cookie
              | Reader_access ->
                  Model.reader_access m ~cpu:arg oid;
                  h.emit kind arg oid
              | _ -> ()));
          agrees ())
        ops
      && List.map Shadow.describe (Shadow.violations h.oracle)
         = List.map Shadow.describe (first_k 64 (List.rev m.Model.log)))

(* Once its tables have grown, the shadow heap allocates nothing per
   event or per frontier advance. The frontier trails the newest token
   by [lag], so the index always holds entries and slides them back to
   its front in the steady state; each advance ripens the object the
   pool step then takes. *)
let test_shadow_allocation_free () =
  let h = harness () in
  let lag = 8 in
  let cycle i =
    let oid = i land 1023 and ripe = (i - lag) land 1023 in
    h.emit Trace.Event.Alloc oid 0;
    h.emit Trace.Event.Defer oid i;
    h.advance (i - lag);
    h.emit Trace.Event.Pool ripe (i - lag)
  in
  for i = 0 to 2_047 do
    cycle i
  done;
  let before = Gc.minor_words () in
  for i = 2_048 to 12_047 do
    cycle i
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "10k cycles, 0 minor words" 0. words;
  Alcotest.(check int) "no violations" 0 (Shadow.violation_count h.oracle);
  Alcotest.(check int) "every object tracked" 1_024 (Shadow.tracked h.oracle)

let small_sweep =
  {
    Sweep.default_config with
    Sweep.scenarios = [ W.Chaos.Clean; W.Chaos.Cb_flood ];
    sweeps = 2;
    base_shuffle_seed = 11;
    cpus = 2;
    duration_ns = Sim.Clock.ms 10;
    total_pages = 4_096;
  }

(* The sweep matrix at smoke scale: every shuffled schedule of every
   scenario must come back clean on both allocators, having actually done
   work. *)
let test_sweep_smoke () =
  let verdicts = Sweep.run small_sweep in
  Alcotest.(check int) "matrix size" (2 * 2 * 2) (List.length verdicts);
  List.iter
    (fun v ->
      if not (Sweep.ok v) then
        Alcotest.failf "unexpected failure: %s"
          (Format.asprintf "%a" Sweep.pp_verdict v);
      Alcotest.(check bool) "did work" true (v.Sweep.updates > 0);
      Alcotest.(check bool) "probes fired" true (v.Sweep.oracle_events > 0))
    verdicts

(* Same case, same seeds: the verdict must reproduce exactly (this is what
   makes the printed replay command trustworthy). *)
let test_sweep_deterministic_replay () =
  let case =
    { Sweep.scenario = W.Chaos.Cb_flood;
      kind = W.Env.Prudence_alloc;
      shuffle_seed = 13 }
  in
  let a = Sweep.run_case small_sweep case
  and b = Sweep.run_case small_sweep case in
  Alcotest.(check int) "same updates" a.Sweep.updates b.Sweep.updates;
  Alcotest.(check int) "same probe events" a.Sweep.oracle_events
    b.Sweep.oracle_events;
  Alcotest.(check bool) "same verdict" true (Sweep.ok a = Sweep.ok b);
  Alcotest.(check bool) "replay names the shuffle seed" true
    (contains ~affix:"--shuffle-seed=13" a.Sweep.replay)

(* Mutation self-test: reclaim one grace period early (Prudence with
   unsafe_skip_gp pretends everything is ripe). The oracle must fail the
   sweep with early-reuse violations and hand back a replayable seed. *)
let test_sweep_skip_gp_mutation_fires () =
  let cfg =
    {
      small_sweep with
      Sweep.scenarios = [ W.Chaos.Clean ];
      kinds = [ W.Env.Prudence_alloc ];
      sweeps = 1;
      mutation = Sweep.Skip_gp;
    }
  in
  match Sweep.run cfg with
  | [ v ] ->
      Alcotest.(check bool) "verdict fails" false (Sweep.ok v);
      Alcotest.(check bool) "early reuse reported" true
        (List.exists
           (fun viol ->
             match viol.Shadow.kind with
             | Shadow.Early_reuse _ -> true
             | _ -> false)
           v.Sweep.oracle_violations);
      Alcotest.(check bool) "replay command carries the mutation" true
        (contains ~affix:"--mutate=skip-gp" v.Sweep.replay)
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs)

(* The epoch-backend mutants: each corrupts one backend's grace
   detection while the truthful SMR view stays honest, so the shadow
   oracle's early-reuse check — and only that check — must catch it. *)
let epoch_mutation_cfg kind mutation =
  {
    small_sweep with
    Sweep.scenarios = [ W.Chaos.Stalled_reader ];
    kinds = [ kind ];
    sweeps = 1;
    duration_ns = Sim.Clock.ms 30;
    mutation;
  }

let run_epoch_mutation ?(oracles = Sweep.all_oracles) kind mutation =
  match Sweep.run { (epoch_mutation_cfg kind mutation) with Sweep.oracles } with
  | [ v ] -> v
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs)

let check_epoch_mutation_teeth kind mutation flag =
  let v = run_epoch_mutation kind mutation in
  Alcotest.(check bool) "verdict fails" false (Sweep.ok v);
  Alcotest.(check bool) "early reuse reported" true
    (List.exists
       (fun viol ->
         match viol.Shadow.kind with
         | Shadow.Early_reuse _ -> true
         | _ -> false)
       v.Sweep.oracle_violations);
  Alcotest.(check bool) "replay command carries the mutation" true
    (contains ~affix:("--mutate=" ^ flag) v.Sweep.replay)

let test_skip_epoch_advance_mutation_fires () =
  check_epoch_mutation_teeth W.Env.Ebr_debra Sweep.Skip_epoch_advance
    "skip-epoch-advance"

let test_drop_retire_batch_mutation_fires () =
  check_epoch_mutation_teeth W.Env.Hyaline_alloc Sweep.Drop_retire_batch
    "drop-retire-batch"

(* Necessity: with the early-reuse oracle disabled, the same mutated runs
   pass — no other oracle covers the bug, so early-reuse pulls its
   weight. *)
let test_early_reuse_oracle_necessary () =
  let oracles = { Sweep.all_oracles with Sweep.early_reuse = false } in
  List.iter
    (fun (kind, mutation) ->
      let v = run_epoch_mutation ~oracles kind mutation in
      if not (Sweep.ok v) then
        Alcotest.failf "%s without early-reuse oracle still failed: %s"
          (W.Env.kind_label kind)
          (Format.asprintf "%a" Sweep.pp_verdict v))
    [
      (W.Env.Ebr_debra, Sweep.Skip_epoch_advance);
      (W.Env.Hyaline_alloc, Sweep.Drop_retire_batch);
    ]

(* Auditors pass on a freshly built stack and after real churn. *)
let test_audit_clean () =
  let env = build ~kind:W.Env.Prudence_alloc () in
  Alcotest.(check (list string)) "fresh stack" [] (Audit.env env);
  let backend = env.W.Env.backend in
  let cache = backend.Slab.Backend.create_cache ~name:"aud" ~obj_size:512 in
  let c = W.Env.cpu env 0 in
  drive env (fun () ->
      let objs = List.init 300 (fun _ -> backend.Slab.Backend.alloc cache c) in
      List.iteri
        (fun i o ->
          if i mod 2 = 0 then backend.Slab.Backend.free cache c o
          else backend.Slab.Backend.free_deferred cache c o)
        objs;
      (* Mid-flight audit: deferred objects outstanding. *)
      Alcotest.(check (list string)) "mid-flight" [] (Audit.env env);
      backend.Slab.Backend.settle ());
  Alcotest.(check (list string)) "after settle" [] (Audit.env env)

(* The frame's records are private, so a teeth case corrupts a field
   through [Obj]. [field] is the field's position in its record
   declaration; [was], read through the typed accessor, must be what that
   position holds, so a reordered declaration fails here instead of
   corrupting another field. *)
let poke r ~field ~was v =
  let r = Obj.repr r in
  if Obj.field r field != Obj.repr was then
    Alcotest.failf "field %d does not hold the value its accessor read" field;
  Obj.set_field r field (Obj.repr v)

(* A latent-aware cache with one partial slab [s]: both CPUs' object
   caches hold objects from it, two objects are live, one waits in
   cpu0's latent cache and one on [s]'s latent list. *)
let teeth_fixture () =
  let module F = Slab.Frame in
  let env = Test_util.make_env ~cpus:2 ~total_pages:1024 () in
  let cache =
    F.create_cache env.Test_util.fenv ~name:"teeth" ~obj_size:512
      ~latent_aware:true ()
  in
  let c0 = Test_util.cpu env 0 and c1 = Test_util.cpu env 1 in
  let s = Option.get (F.grow cache c0) in
  ignore (F.refill_from_node cache c0 ~want:5 ~select:F.select_slub);
  ignore (F.refill_from_node cache c1 ~want:5 ~select:F.select_slub);
  let pc0 = F.pcpu_for cache c0 and pc1 = F.pcpu_for cache c1 in
  let take pc =
    let o = F.pop_ocache_exn pc in
    F.hand_to_user cache pc.F.cpu o;
    o
  in
  ignore (take pc0);
  ignore (take pc0);
  let o = take pc0 in
  F.stamp_deferred cache c0 o ~cookie:1;
  F.obj_to_latent_cache cache pc0 o;
  let o = take pc1 in
  F.stamp_deferred cache c1 o ~cookie:1;
  F.obj_to_latent_slab cache o;
  ignore (F.relocate cache s);
  (env, cache, s)

(* Each case breaks one invariant of the fixture and returns the report
   line, naming its slab or object, that the slab audit must print. *)
let teeth_cases =
  let module F = Slab.Frame in
  let node (c : F.cache) = c.F.nodes.(0) in
  [
    ( "one object in two containers",
      fun _env (c : F.cache) _s ->
        let pc0 = c.F.pcpus.(0) and pc1 = c.F.pcpus.(1) in
        let o = pc1.F.ocache.(0) in
        pc0.F.ocache.(0) <- o;
        Printf.sprintf
          "object %d is in cpu0's object cache and again in cpu1's object \
           cache"
          (F.oid c o) );
    ( "wrong on_list tag",
      fun _env _c (s : F.slab) ->
        poke s ~field:13 ~was:s.F.on_list F.L_full;
        Printf.sprintf "slab %d tagged full but found on the partial list"
          s.F.sid );
    ( "list len off by one",
      fun _env c _s ->
        let l = (node c).F.partial in
        poke l ~field:2 ~was:l.F.len (l.F.len + 1);
        "node 0's partial list links 1 slabs but len = 2" );
    ( "slab on the wrong list for its counts",
      fun env c _s ->
        (* A fresh free slab loses an object to cpu0's object cache, and
           nobody relocates it. *)
        let c0 = Test_util.cpu env 0 in
        let s = Option.get (F.grow c c0) in
        F.push_ocache c (F.pcpu_for c c0) (F.take_free_obj_exn s);
        Printf.sprintf
          "slab %d sits on the free list, but free %d, latent 0 and \
           in-flight 1 put it on the partial list"
          s.F.sid s.F.free_n );
    ( "negative in_flight",
      fun _env _c (s : F.slab) ->
        poke s ~field:12 ~was:s.F.in_flight (-1);
        Printf.sprintf "slab %d has in_flight = -1" s.F.sid );
    ( "latent slab missing from the latent-slab list",
      fun _env c (s : F.slab) ->
        let l = (node c).F.latent_slabs in
        poke l ~field:0 ~was:l.F.head None;
        poke l ~field:1 ~was:l.F.tail None;
        poke l ~field:2 ~was:l.F.len 0;
        Printf.sprintf
          "slab %d holds 1 latent objects but is not on node 0's \
           latent-slab list"
          s.F.sid );
    ( "latent_count off by one",
      fun _env (c : F.cache) _s ->
        poke c ~field:15 ~was:c.F.latent_count (c.F.latent_count + 1);
        "latent_count = 3 but latent slabs hold 1 + latent caches 1" );
  ]

(* The slab audit has teeth: on a clean fixture it reports nothing, and
   a corruption is reported with the slab or object it concerns. *)
let audit_teeth corrupt () =
  let env, cache, s = teeth_fixture () in
  let audit () = Audit.slab ~rcu:env.Test_util.rcu cache in
  Alcotest.(check (list string)) "clean before" [] (audit ());
  let expect = corrupt env cache s in
  let report = audit () in
  if not (List.exists (contains ~affix:expect) report) then
    Alcotest.failf "no report line contains %S; report:\n%s" expect
      (String.concat "\n" report)

(* The buddy audit has teeth: on a 40-page arena (order-4 blocks at 0
   and 16, an order-3 block at 32) whose one page-0 allocation split the
   order-3 block, each case breaks the allocator's state and returns the
   report line the audit must print. [Mem.Buddy.t] is abstract, so a case
   reaches its page table (field 2) and per-order counts (field 3)
   through [Obj], after checking that each field holds what its accessor
   reads. *)
let buddy_teeth_cases =
  let counts b : int array =
    let a = Obj.obj (Obj.field (Obj.repr b) 3) in
    if
      Array.length a <> Mem.Buddy.max_order b + 1
      || not
           (List.for_all
              (fun order -> a.(order) = Mem.Buddy.free_blocks b ~order)
              (List.init (Array.length a) Fun.id))
    then Alcotest.fail "field 3 is not the per-order free count";
    a
  in
  let page_table b : Bytes.t =
    let p = Obj.obj (Obj.field (Obj.repr b) 2) in
    if Bytes.length p <> Mem.Buddy.total_pages b then
      Alcotest.fail "field 2 is not the page table";
    p
  in
  [
    ( "buddy free count off by one",
      fun b ->
        let a = counts b in
        a.(2) <- a.(2) + 1;
        "buddy: order 2 counts 2 free blocks but the page table has 1" );
    ( "buddy head byte inside a free block",
      fun b ->
        (* Page 35 lies inside the free order-1 block at 34. *)
        Bytes.set (page_table b) 35 (Bytes.get (page_table b) 33);
        "buddy: free block page 35 order 0 overlaps the previous block \
         (expected page 36)" );
  ]

let buddy_audit_teeth corrupt () =
  let b = Mem.Buddy.create ~max_order:4 ~total_pages:40 () in
  Alcotest.(check int) "split the order-3 block" 32
    (Mem.Buddy.alloc b ~order:0);
  Alcotest.(check (list string)) "clean before" [] (Audit.buddy b);
  let expect = corrupt b in
  let report = Audit.buddy b in
  if not (List.exists (contains ~affix:expect) report) then
    Alcotest.failf "no report line contains %S; report:\n%s" expect
      (String.concat "\n" report)

let test_differential_identical () =
  let trace = Diff.gen ~n_ops:800 ~seed:5 () in
  let r = Diff.run ~seed:5 trace in
  if not r.Diff.ok then
    Alcotest.failf "differential diverged: %s"
      (String.concat "; " r.Diff.mismatches);
  List.iter
    (fun (rp : Diff.replay) ->
      Alcotest.(check bool)
        (rp.Diff.label ^ " finished")
        true rp.Diff.finished)
    r.Diff.replays;
  (* The trace must actually exercise the deferred path. *)
  let deferred =
    Array.fold_left
      (fun n o -> if o = Diff.Deferred_ok then n + 1 else n)
      0 (List.hd r.Diff.replays).Diff.outcomes
  in
  Alcotest.(check bool) "trace defers objects" true (deferred > 50)

let test_differential_trace_deterministic () =
  let a = Diff.gen ~n_ops:400 ~seed:9 () and b = Diff.gen ~n_ops:400 ~seed:9 () in
  Alcotest.(check bool) "same ops" true (a.Diff.ops = b.Diff.ops);
  let c = Diff.gen ~n_ops:400 ~seed:10 () in
  Alcotest.(check bool) "different seed, different ops" true
    (a.Diff.ops <> c.Diff.ops)

let suite =
  [
    Alcotest.test_case "oracle: legal lifecycle is silent" `Quick
      test_oracle_lifecycle;
    Alcotest.test_case "oracle: two on one env both observe" `Quick
      test_two_oracles_one_env;
    Alcotest.test_case "oracle: use after reclaim flagged" `Quick
      test_oracle_use_after_reclaim;
    Alcotest.test_case "mutation: double free flagged" `Quick
      test_oracle_double_free;
    QCheck_alcotest.to_alcotest prop_shadow_matches_model;
    Alcotest.test_case "shadow: allocation-free once grown" `Quick
      test_shadow_allocation_free;
    Alcotest.test_case "sweep: smoke matrix clean" `Quick test_sweep_smoke;
    Alcotest.test_case "sweep: verdicts replay deterministically" `Quick
      test_sweep_deterministic_replay;
    Alcotest.test_case "mutation: skip-gp makes the sweep fail" `Quick
      test_sweep_skip_gp_mutation_fires;
    Alcotest.test_case "mutation: skip-epoch-advance caught on ebr-debra"
      `Quick test_skip_epoch_advance_mutation_fires;
    Alcotest.test_case "mutation: drop-retire-batch caught on hyaline" `Quick
      test_drop_retire_batch_mutation_fires;
    Alcotest.test_case "necessity: early-reuse oracle pulls its weight"
      `Quick test_early_reuse_oracle_necessary;
    Alcotest.test_case "auditors: clean stack, clean verdict" `Quick
      test_audit_clean;
    Alcotest.test_case "differential: stacks agree on a trace" `Quick
      test_differential_identical;
    Alcotest.test_case "differential: trace generation deterministic" `Quick
      test_differential_trace_deterministic;
  ]
  @ List.map
      (fun (case, corrupt) ->
        Alcotest.test_case ("audit teeth: " ^ case) `Quick
          (audit_teeth corrupt))
      teeth_cases
  @ List.map
      (fun (case, corrupt) ->
        Alcotest.test_case ("audit teeth: " ^ case) `Quick
          (buddy_audit_teeth corrupt))
      buddy_teeth_cases
