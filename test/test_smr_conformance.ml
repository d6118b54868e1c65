(* Cross-backend SMR conformance battery: the same safety and liveness
   contract, checked against every registered reclamation scheme — the
   RCU-backed baseline and Prudence, EBR/DEBRA and Hyaline. A backend
   that passes shows (1) no token ripens while a covering reader window
   is open, (2) settle drains every deferred object, (3) the allocation
   counters conserve across defer/reclaim, and (4) deferred memory keeps
   allocation alive after exhaustion (OOM forward progress). *)

module W = Workloads
module Smr = Slab.Smr
module Shadow = Check.Shadow
module Audit = Check.Audit

let build ?(kind = W.Env.Baseline) ?(total_pages = 4_096) () =
  W.Env.build
    {
      W.Env.default_config with
      W.Env.kind;
      cpus = 2;
      seed = 7;
      total_pages;
      track_readers = true;
    }

let drive ?(horizon = Sim.Clock.s 20) (env : W.Env.t) body =
  let finished = ref false in
  Sim.Process.spawn env.W.Env.eng (fun () ->
      body ();
      finished := true);
  Sim.Engine.run ~until:horizon env.W.Env.eng;
  if not !finished then Alcotest.fail "driver process did not finish"

let latent_total (env : W.Env.t) =
  let acc = ref 0 in
  env.W.Env.backend.Slab.Backend.iter_caches (fun c ->
      acc := !acc + Slab.Frame.latent_total c);
  !acc

(* Tokens are monotone: later defers never get a smaller token, and the
   ripe frontier only moves forward. *)
let test_token_monotone kind () =
  let env = build ~kind () in
  let smr = env.W.Env.smr in
  drive env (fun () ->
      let last_tok = ref min_int and last_frontier = ref min_int in
      for _ = 1 to 200 do
        let tok = smr.Smr.defer ~cpu:0 in
        Alcotest.(check bool) "token non-decreasing" true (tok >= !last_tok);
        last_tok := tok;
        let f = smr.Smr.ripe_upto () in
        Alcotest.(check bool) "frontier monotone" true (f >= !last_frontier);
        last_frontier := f;
        smr.Smr.advance ();
        Sim.Process.sleep env.W.Env.eng 50_000
      done;
      smr.Smr.request ();
      smr.Smr.wait ();
      Alcotest.(check bool) "every token eventually ripe" true
        (Smr.ripe smr !last_tok))

(* The core safety contract: a token deferred while a reader section is
   open on another CPU must not ripen until that section closes, no
   matter how much time passes or how often advancement is requested. *)
let test_reader_window_blocks_ripening kind () =
  let env = build ~kind () in
  let smr = env.W.Env.smr in
  let c0 = W.Env.cpu env 0 in
  drive env (fun () ->
      Rcu.read_lock env.W.Env.rcu c0;
      let tok = smr.Smr.defer ~cpu:1 in
      smr.Smr.request ();
      (* Give pollers and amortized advancement every chance to run. *)
      for _ = 1 to 20 do
        smr.Smr.advance ();
        Sim.Process.sleep env.W.Env.eng 2_000_000
      done;
      Alcotest.(check bool) "not ripe inside the reader window" false
        (Smr.ripe smr tok);
      Rcu.read_unlock env.W.Env.rcu c0;
      smr.Smr.request ();
      smr.Smr.wait ();
      Alcotest.(check bool) "ripe once the reader is done" true
        (Smr.ripe smr tok))

(* Settle drains everything and the counters conserve: every alloc is
   matched by a deferred free, and after settle no object is live, latent
   or queued anywhere — with the shadow oracle confirming zero safety
   violations along the way. *)
let test_settle_drains_and_conserves kind () =
  let env = build ~kind () in
  let oracle = Shadow.install env in
  let backend = env.W.Env.backend in
  let cache = backend.Slab.Backend.create_cache ~name:"conf" ~obj_size:512 in
  let n = 400 in
  drive env (fun () ->
      for i = 0 to n - 1 do
        let c = W.Env.cpu env (i mod 2) in
        match backend.Slab.Backend.alloc cache c with
        | exception Slab.Frame.Oom -> Alcotest.fail "unexpected OOM"
        | o ->
            (* A short covering reader per object keeps the read side hot. *)
            let rc = W.Env.cpu env ((i + 1) mod 2) in
            Rcu.read_lock env.W.Env.rcu rc;
            backend.Slab.Backend.free_deferred cache c o;
            Rcu.read_unlock env.W.Env.rcu rc;
            if i mod 50 = 0 then Sim.Process.sleep env.W.Env.eng 500_000
      done;
      backend.Slab.Backend.settle ());
  let snap = Slab.Slab_stats.snapshot cache.Slab.Frame.stats in
  Alcotest.(check int) "allocs" n snap.Slab.Slab_stats.allocs;
  Alcotest.(check int) "deferred frees" n snap.Slab.Slab_stats.deferred_frees;
  Alcotest.(check int) "nothing live" 0 (Slab.Frame.live_objects cache);
  Alcotest.(check int) "latent drained" 0 (latent_total env);
  Alcotest.(check int) "rcu drained" 0
    (Rcu.pending_callbacks env.W.Env.rcu);
  Alcotest.(check int) "zero violations" 0 (Shadow.violation_count oracle);
  Alcotest.(check bool) "oracle observed the run" true
    (Shadow.events oracle > 0);
  Alcotest.(check (list string)) "audit clean" [] (Audit.env env)

(* OOM forward progress: exhaust physical memory, defer-free everything,
   and allocation must succeed again — deferred memory is a reserve the
   scheme can always recycle, never a leak. *)
let test_oom_forward_progress kind () =
  let env = build ~kind ~total_pages:1_024 () in
  let backend = env.W.Env.backend in
  let cache = backend.Slab.Backend.create_cache ~name:"oom" ~obj_size:2048 in
  let c = W.Env.cpu env 0 in
  drive env (fun () ->
      let held = ref [] and full = ref false and guard = ref 0 in
      while (not !full) && !guard < 50_000 do
        incr guard;
        match backend.Slab.Backend.alloc cache c with
        | o -> held := o :: !held
        | exception Slab.Frame.Oom -> full := true
      done;
      Alcotest.(check bool) "memory was exhausted" true !full;
      Alcotest.(check bool) "held a real population" true
        (List.length !held > 100);
      List.iter (fun o -> backend.Slab.Backend.free_deferred cache c o) !held;
      backend.Slab.Backend.settle ();
      match backend.Slab.Backend.alloc cache c with
      | _ -> ()
      | exception Slab.Frame.Oom ->
          Alcotest.fail "allocation still failing after settle")

let per_kind name f =
  List.map
    (fun kind ->
      Alcotest.test_case
        (Printf.sprintf "%s [%s]" name (W.Env.kind_label kind))
        `Quick (f kind))
    W.Env.all_kinds

let suite =
  per_kind "tokens monotone, eventually ripe" test_token_monotone
  @ per_kind "reader window blocks ripening" test_reader_window_blocks_ripening
  @ per_kind "settle drains, counters conserve" test_settle_drains_and_conserves
  @ per_kind "OOM forward progress" test_oom_forward_progress
