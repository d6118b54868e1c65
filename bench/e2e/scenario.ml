(* The four pinned workloads and one repetition of each.

   Every workload is a closed loop over 8 simulated CPUs on one host
   thread: each CPU issues its next operation only after the previous
   one plus its think or sleep time has completed in virtual time.
   Inputs derive from the seed alone, so the deterministic counters of
   a repetition are a function of (workload, size, seed). *)

module W = Workloads

type name = Endurance | Pgbench | Routing | Checked

let all = [ Endurance; Pgbench; Routing; Checked ]

let label = function
  | Endurance -> "endurance"
  | Pgbench -> "pgbench"
  | Routing -> "routing"
  | Checked -> "checked"

let of_label s = List.find_opt (fun w -> label w = s) all

(* [Tiny] is the test size: at most 20 ms virtual or 500 txns per CPU. *)
type size = Full | Tiny

let cpus = 8

(* The Fig. 3 endurance regime: throttled callback processing, so
   deferred frees pile up behind RCU unless the allocator absorbs
   them. *)
let throttled_rcu =
  {
    Rcu.default_config with
    Rcu.blimit = 10;
    expedited_blimit = 30;
    softirq_period_ns = 1_000_000;
    qhimark = max_int;
  }

let env_config ?(rcu = Rcu.default_config) ?(track_readers = false) ~kind
    ~seed ~prof () =
  {
    W.Env.default_config with
    W.Env.kind;
    cpus;
    seed;
    total_pages = 65_536;
    rcu_config = rcu;
    track_readers;
    prof;
    debug_checks = false;
  }

(* Routing table: 512 routes of 128 B in 128 buckets. CPU 0 rewrites a
   random route every 5 us; CPUs 1-7 look one up every 1 us. *)
let routes = 128 * 4
let update_gap_ns = 5_000
let lookup_gap_ns = 1_000

type gc = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
}

type rep = {
  workload : name;
  traced : bool;
  setup_s : float;  (** [Env.build] up to the first dispatched event. *)
  wall_s : float;  (** The workload's run call. *)
  sim_s : float;  (** Virtual length of the measured phase. *)
  ops : int;
  attempted : int;
  failed : int;
  gc : gc;
  counters : (string * int) list;  (** Deterministic: replay-identical. *)
  errors : string list;  (** Violations and wrong outputs. *)
  spans : (string * Spans.stat) list;  (** Traced only. *)
}

type outcome = {
  o_ops : int;
  o_attempted : int;
  o_sim_ns : int;
  o_extra : (string * int) list;
  o_errors : string list;
}

let now = Unix.gettimeofday

(* Summed over caches; churns are per-cache pairs (Figs. 8-9). *)
let slab_counters (env : W.Env.t) =
  let names =
    [ "allocs"; "frees"; "deferred_frees"; "hits"; "ocache_churns";
      "slab_churns"; "merged_objs"; "latent_overflows" ]
  in
  let acc = Array.make (List.length names) 0 in
  env.W.Env.backend.Slab.Backend.iter_caches (fun c ->
      let s = Slab.Slab_stats.snapshot c.Slab.Frame.stats in
      let open Slab.Slab_stats in
      List.iteri
        (fun i v -> acc.(i) <- acc.(i) + v)
        [ s.allocs; s.frees; s.deferred_frees; s.hits; ocache_churns s;
          slab_churns s; s.merged_objs; s.latent_overflows ]);
  List.combine names (Array.to_list acc)

let counters (env : W.Env.t) o =
  let eng = env.W.Env.eng and buddy = env.W.Env.buddy in
  let rcu = Rcu.stats env.W.Env.rcu in
  [
    ("ops", o.o_ops);
    ("attempted", o.o_attempted);
    ("events", Sim.Engine.executed eng);
    ("sim_ns", Sim.Engine.now eng);
    ("cascades", Sim.Engine.cascades eng);
    ("buddy_allocs", Mem.Buddy.alloc_count buddy);
    ("buddy_frees", Mem.Buddy.free_count buddy);
    ("buddy_failed", Mem.Buddy.failed_allocs buddy);
    ("peak_pages", Mem.Buddy.peak_used_pages buddy);
    ("gps", rcu.Rcu.gps_completed);
    ("cbs_invoked", rcu.Rcu.cbs_invoked);
    ("max_backlog", rcu.Rcu.max_backlog);
    ("frontier", env.W.Env.smr.Slab.Smr.ripe_upto ());
  ]
  @ slab_counters env @ o.o_extra

let endurance env ~duration_ns =
  let r =
    W.Endurance.run env
      { W.Endurance.default_config with W.Endurance.duration_ns }
  in
  let oom = Option.is_some r.W.Endurance.oom_at_ns in
  {
    o_ops = r.W.Endurance.updates;
    o_attempted = (r.W.Endurance.updates + if oom then 1 else 0);
    o_sim_ns = duration_ns;
    o_extra = [];
    o_errors = [];
  }

let pgbench env ~txns_per_cpu =
  let r = W.Appmodel.run env (W.Postgresql.config ~txns_per_cpu ()) in
  {
    o_ops = r.W.Appmodel.txns;
    o_attempted = cpus * txns_per_cpu;
    o_sim_ns = r.W.Appmodel.duration_ns;
    o_extra = [];
    o_errors = [];
  }

(* Prepopulation happens here, before the engine starts, so it counts
   as set-up. Each route's value is its key plus a multiple of
   [routes]; the writer records every value it publishes, and a lookup
   must return exactly the latest one. *)
let routing ?spans env ~duration_ns =
  let backend = env.W.Env.backend and eng = env.W.Env.eng in
  let cache = backend.Slab.Backend.create_cache ~name:"route" ~obj_size:128 in
  let table =
    Rcudata.Rcuhash.create ~backend ~readers:env.W.Env.readers ~cache
      ~buckets:128 ~name:"fib"
  in
  let lookup, update =
    match spans with
    | None -> (Rcudata.Rcuhash.lookup table, Rcudata.Rcuhash.update table)
    | Some s ->
        ( (fun cpu ~key ->
            Spans.enter s Spans.Hash_lookup;
            let r = Rcudata.Rcuhash.lookup table cpu ~key in
            Spans.exit s;
            r),
          fun cpu ~key ~value ->
            Spans.enter s Spans.Hash_update;
            let r = Rcudata.Rcuhash.update table cpu ~key ~value in
            Spans.exit s;
            r )
  in
  let current = Array.init routes Fun.id in
  Array.iteri
    (fun key value ->
      if not (Rcudata.Rcuhash.insert table (W.Env.cpu env 0) ~key ~value) then
        failwith "routing: out of memory while prepopulating")
    current;
  let lookups = ref 0 and updates = ref 0 and failed = ref 0 in
  let wrong = ref 0 and checksum = ref 0 in
  let running () = Sim.Engine.now eng < duration_ns in
  let worker i body =
    let cpu = W.Env.cpu env i and rng = Sim.Rng.split env.W.Env.rng in
    Sim.Process.spawn eng (fun () ->
        while running () do
          Sim.Process.sleep eng (body cpu rng + Sim.Machine.drain cpu)
        done)
  in
  worker 0 (fun cpu rng ->
      let key = Sim.Rng.int rng routes in
      let value = current.(key) + routes in
      (match update cpu ~key ~value with
      | `Updated ->
          current.(key) <- value;
          incr updates
      | `Absent | `Oom -> incr failed);
      update_gap_ns);
  for i = 1 to cpus - 1 do
    worker i (fun cpu rng ->
        let key = Sim.Rng.int rng routes in
        (match lookup cpu ~key with
        | Some v ->
            if v <> current.(key) then incr wrong;
            checksum := (!checksum + v) land 0xffff_ffff;
            incr lookups
        | None -> incr failed);
        lookup_gap_ns)
  done;
  fun () ->
    Sim.Engine.run ~until:duration_ns eng;
    let ops = !lookups + !updates in
    {
      o_ops = ops;
      o_attempted = ops + !failed;
      o_sim_ns = duration_ns;
      o_extra =
        [ ("lookups", !lookups); ("updates", !updates); ("lookup_sum", !checksum) ];
      o_errors =
        (if !wrong = 0 then []
         else [ Printf.sprintf "routing: %d lookups returned a stale value" !wrong ]);
    }

(* Pgbench runs to its transaction count, not to a deadline. *)
let duration_ns name size =
  match (name, size) with
  | _, Tiny -> Sim.Clock.ms 20
  | Endurance, Full -> Sim.Clock.s 8
  | Routing, Full -> Sim.Clock.s 1
  | Checked, Full -> Sim.Clock.s 1
  | Pgbench, Full -> 0

let txns_per_cpu = function Full -> 40_000 | Tiny -> 500

let env_for name ~seed ~prof ~duration_ns =
  match name with
  | Endurance ->
      env_config ~kind:W.Env.Prudence_alloc ~rcu:throttled_rcu ~seed ~prof ()
  | Pgbench -> env_config ~kind:W.Env.Baseline ~seed ~prof ()
  | Routing ->
      env_config ~kind:W.Env.Ebr_debra ~track_readers:true ~seed ~prof ()
  | Checked ->
      (* The check campaigns' stack: stall detector at duration/8. *)
      env_config ~kind:W.Env.Baseline ~track_readers:true ~seed ~prof
        ~rcu:
          {
            throttled_rcu with
            Rcu.stall_timeout_ns = Some (max 1 (duration_ns / 8));
          }
        ()

(* Workload-specific set-up on a built stack: returns the engine
   observer to keep once the first event has run, and the measured run
   call. *)
let prepare name size ~spans env ~duration_ns =
  match name with
  | Endurance -> (None, fun () -> endurance env ~duration_ns)
  | Pgbench ->
      (None, fun () -> pgbench env ~txns_per_cpu:(txns_per_cpu size))
  | Routing -> (None, routing ?spans env ~duration_ns)
  | Checked ->
      let shadow_env =
        match spans with
        | None -> env
        | Some s -> { env with W.Env.smr = Spans.smr s env.W.Env.smr }
      in
      let shadow = Check.Shadow.install shadow_env in
      let orc =
        Check.Oracles.install (Check.Oracles.default_config ~duration_ns) env
      in
      let poll =
        match spans with
        | None -> fun ~time:_ -> Check.Oracles.poll_stall orc
        | Some s ->
            fun ~time:_ ->
              Spans.enter s Spans.Stall_poll;
              Check.Oracles.poll_stall orc;
              Spans.exit s
      in
      ( Some poll,
        fun () ->
          let o = endurance env ~duration_ns in
          Check.Oracles.finalize orc;
          {
            o with
            o_extra = [ ("tracked_objects", Check.Shadow.tracked shadow) ];
            o_errors =
              List.map Check.Shadow.describe (Check.Shadow.violations shadow)
              @ Check.Oracles.stall_violations orc
              @ Check.Oracles.cb_violations orc;
          } )

(* Build the stack up to the measured run call. Set-up ends when the
   engine dispatches its first event; the workload's own observer takes
   over then. *)
let start name size ~seed ~spans =
  let prof = match spans with Some s -> Spans.prof s | None -> Prof.null in
  let duration_ns = duration_ns name size in
  let t0 = now () in
  let env = W.Env.build (env_for name ~seed ~prof ~duration_ns) in
  let env =
    match spans with
    | None -> env
    | Some s -> { env with W.Env.backend = Spans.backend s env.W.Env.backend }
  in
  let steady, go = prepare name size ~spans env ~duration_ns in
  let setup_s = ref nan in
  let eng = env.W.Env.eng in
  Sim.Engine.set_observer eng
    (Some
       (fun ~time ->
         setup_s := now () -. t0;
         Sim.Engine.set_observer eng steady;
         Option.iter (fun f -> f ~time) steady));
  (env, go, setup_s)

let run name size ~seed ~traced =
  let spans = if traced then Some (Spans.create ~cpus) else None in
  let env, go, setup_s = start name size ~seed ~spans in
  Option.iter (fun s -> Prof.reset (Spans.prof s)) spans;
  let g0 = Gc.quick_stat () and m0 = Gc.minor_words () in
  let w0 = now () in
  let o = go () in
  let w1 = now () in
  let m1 = Gc.minor_words () and g1 = Gc.quick_stat () in
  let wall_s = w1 -. w0 in
  (* [Gc.minor_words] is exact, as the profiler's own probe is;
     [quick_stat]'s figure lags by the unflushed minor heap. *)
  let minor_words = m1 -. m0 in
  let errors = W.Env.safety_violations env @ o.o_errors in
  {
    workload = name;
    traced;
    setup_s = !setup_s;
    wall_s;
    sim_s = Sim.Clock.to_s o.o_sim_ns;
    ops = o.o_ops;
    attempted = o.o_attempted;
    failed = o.o_attempted - o.o_ops;
    gc =
      {
        minor_words;
        promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        top_heap_words = g1.Gc.top_heap_words;
      };
    counters = counters env o;
    errors;
    spans = (match spans with None -> [] | Some s -> Spans.stats s);
  }

(* The traced repetition's disjoint rows (see [Spans.rows]). *)
let rows r =
  Spans.rows r.spans ~wall_ns:(r.wall_s *. 1e9) ~words:r.gc.minor_words
