let caches =
  [
    { Appmodel.cache_name = "ext4_inode"; obj_size = 1024 };
    { Appmodel.cache_name = "dentry"; obj_size = 192 };
    { Appmodel.cache_name = "filp"; obj_size = 256 };
    { Appmodel.cache_name = "selinux"; obj_size = 64 };
    { Appmodel.cache_name = "kmalloc-64"; obj_size = 64 };
  ]

(* Postmark creates and deletes files in batches: two files per create
   transaction, two per delete transaction. *)
let create_txn =
  let one_file =
    Appmodel.[ Acquire "ext4_inode"; Acquire "dentry"; Acquire "selinux" ]
  in
  one_file @ one_file
  @ Appmodel.
      [
        Acquire "filp";
        Acquire "kmalloc-64";
        Acquire "kmalloc-64";
        Work 1_000;
        Release_newest "kmalloc-64";
        Release_newest "kmalloc-64";
        Release_newest "filp";
      ]

let readwrite_txn =
  Appmodel.
    [
      Acquire "filp";
      Acquire "kmalloc-64";
      Acquire "kmalloc-64";
      Acquire "kmalloc-64";
      Acquire "kmalloc-64";
      Work 1_200;
      Release_newest "kmalloc-64";
      Release_newest "kmalloc-64";
      Release_newest "kmalloc-64";
      Release_newest "kmalloc-64";
      Release_newest "filp";
    ]

(* unlink: the directory entry, inode and its security blob are published
   to RCU readers (path walk), so their frees are deferred. *)
let delete_txn =
  let one_file =
    Appmodel.
      [
        Release_deferred "dentry";
        Release_deferred "ext4_inode";
        Release_deferred "selinux";
      ]
  in
  Appmodel.[ Work 600 ] @ one_file @ one_file

let txns = [| create_txn; readwrite_txn; delete_txn |]

let next_txn rng =
  let p = Sim.Rng.float rng 1.0 in
  if p < 0.30 then 0 else if p < 0.82 then 1 else 2

let config ?(txns_per_cpu = 3_000) () =
  {
    Appmodel.bench_name = "postmark";
    caches;
    standing = [ ("ext4_inode", 60); ("dentry", 60); ("filp", 20) ];
    txns;
    next_txn;
    txns_per_cpu;
    think_ns_mean = 1_000.;
  }
