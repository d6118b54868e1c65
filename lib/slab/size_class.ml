let kmalloc_sizes = [| 8; 16; 32; 64; 96; 128; 192; 256; 512; 1024; 2048; 4096; 8192 |]

let kmalloc_class size =
  if size <= 0 then invalid_arg "Size_class.kmalloc_class: non-positive size";
  let rec find i =
    if i >= Array.length kmalloc_sizes then
      invalid_arg
        (Printf.sprintf "Size_class.kmalloc_class: %d exceeds largest class"
           size)
    else if kmalloc_sizes.(i) >= size then kmalloc_sizes.(i)
    else find (i + 1)
  in
  find 0

let kmalloc_cache_name size = Printf.sprintf "kmalloc-%d" (kmalloc_class size)

let objs_per_slab ~obj_size ~page_size ~order =
  max 1 ((page_size lsl order) / obj_size)

let slab_order ~obj_size ~page_size =
  let rec go order =
    if order >= 3 then 3
    else if objs_per_slab ~obj_size ~page_size ~order >= 16 then order
    else go (order + 1)
  in
  go 0

let object_cache_capacity ~obj_size =
  if obj_size <= 64 then 120
  else if obj_size <= 128 then 60
  else if obj_size <= 256 then 54
  else if obj_size <= 512 then 30
  else if obj_size <= 1024 then 24
  else if obj_size <= 2048 then 15
  else if obj_size <= 4096 then 9
  else 6

let batch_count ~capacity = max 1 (capacity / 2)

let min_free_slabs = 8
