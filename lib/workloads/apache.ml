let caches =
  [
    { Appmodel.cache_name = "filp"; obj_size = 256 };
    { Appmodel.cache_name = "eventpoll_epi"; obj_size = 128 };
    { Appmodel.cache_name = "selinux"; obj_size = 64 };
    { Appmodel.cache_name = "kmalloc-64"; obj_size = 64 };
  ]

let request_txn =
  let buffers n =
    List.init n (fun _ -> Appmodel.Acquire "kmalloc-64")
    @ [ Appmodel.Work 800 ]
    @ List.init n (fun _ -> Appmodel.Release_newest "kmalloc-64")
  in
  (* accept + epoll registration *)
  Appmodel.
    [ Acquire "filp"; Acquire "eventpoll_epi"; Acquire "selinux"; Work 400 ]
  (* parse headers, open and serve the target file *)
  @ buffers 6
  @ Appmodel.[ Acquire "filp"; Work 600 ]
  @ buffers 6
  @ Appmodel.[ Release_newest "filp" ]
  (* connection close: epoll removal and socket release are RCU-deferred *)
  @ Appmodel.
      [
        Work 300;
        Release_deferred "filp";
        Release_deferred "eventpoll_epi";
        Release_deferred "selinux";
      ]

let config ?(txns_per_cpu = 3_000) () =
  {
    Appmodel.bench_name = "apache";
    caches;
    standing = [ ("filp", 80); ("eventpoll_epi", 80); ("selinux", 80); ("kmalloc-64", 40) ];
    txns = [| request_txn |];
    next_txn = (fun _ -> 0);
    txns_per_cpu;
    think_ns_mean = 2_500.;
  }
