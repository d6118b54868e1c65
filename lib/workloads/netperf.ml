let caches =
  [
    { Appmodel.cache_name = "filp"; obj_size = 256 };
    { Appmodel.cache_name = "selinux"; obj_size = 64 };
    { Appmodel.cache_name = "kmalloc-256"; obj_size = 256 };
  ]

(* One TCP_CRR transaction: handshake, one request/response, teardown.
   ~12 sk_buffs flow through kmalloc-256; the socket's filp and selinux
   objects are deferred at connection teardown. *)
let crr_txn =
  let skb_burst n =
    List.concat
      (List.init n (fun _ ->
           Appmodel.[ Acquire "kmalloc-256"; Release_newest "kmalloc-256" ]))
  in
  Appmodel.[ Acquire "filp"; Acquire "selinux"; Work 500 ]
  @ skb_burst 4 (* handshake *)
  @ Appmodel.[ Work 700 ]
  @ skb_burst 8 (* request/response + teardown *)
  @ Appmodel.[ Work 400; Release_deferred "filp"; Release_deferred "selinux" ]

let config ?(txns_per_cpu = 3_000) () =
  {
    Appmodel.bench_name = "netperf";
    caches;
    standing = [ ("filp", 80); ("selinux", 80); ("kmalloc-256", 40) ];
    txns = [| crr_txn |];
    next_txn = (fun _ -> 0);
    txns_per_cpu;
    think_ns_mean = 2_500.;
  }
