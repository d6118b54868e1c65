let caches =
  [
    { Appmodel.cache_name = "kmalloc-64"; obj_size = 64 };
    { Appmodel.cache_name = "filp"; obj_size = 256 };
    { Appmodel.cache_name = "selinux"; obj_size = 64 };
  ]

(* The SQL work: a memory-context arena — a burst of small palloc-style
   allocations built up while parsing/executing, then released together
   when the context is reset. This bursty, non-deferred traffic on
   kmalloc-64 is what interferes with Prudence's latent-cache sizing
   decisions (the Fig. 8 regression). *)
let palloc_storm n =
  List.init n (fun _ -> Appmodel.Acquire "kmalloc-64")
  @ [ Appmodel.Work (150 * n) ]
  @ List.init n (fun _ -> Appmodel.Release_newest "kmalloc-64")

(* Occasionally a client session cycles: socket filp + selinux blob,
   deferred at close. *)
let connection_churn =
  Appmodel.
    [
      Acquire "filp";
      Acquire "selinux";
      Work 400;
      Release_deferred "filp";
      Release_deferred "selinux";
    ]

let txn ~churn =
  Appmodel.[ Work 800 ]
  @ palloc_storm 40
  (* One catalog/snapshot entry published via RCU-style deferral. *)
  @ Appmodel.[ Acquire "kmalloc-64"; Release_deferred "kmalloc-64" ]
  @ (if churn then connection_churn else [])
  @ Appmodel.[ Work 600 ]

let txns = [| txn ~churn:false; txn ~churn:true |]
let next_txn rng = if Sim.Rng.chance rng 0.10 then 1 else 0

let config ?(txns_per_cpu = 3_000) () =
  {
    Appmodel.bench_name = "postgresql";
    caches;
    standing = [ ("filp", 32); ("selinux", 32); ("kmalloc-64", 60) ];
    txns;
    next_txn;
    txns_per_cpu;
    think_ns_mean = 4_000.;
  }
