type t = {
  hit : int;
  free_to_cache : int;
  refill : int;
  refill_per_obj : int;
  flush : int;
  flush_per_obj : int;
  grow : int;
  shrink : int;
  node_lock_hold : int;
  defer_enqueue : int;
  latent_put : int;
  merge : int;
  merge_per_obj : int;
  premove : int;
  page_lock_hold : int;
  page_zero_per_page : int;
  cold_touch : int;
  cold_touch_per_256b : int;
  llc_bytes : int;
  llc_pressure : int;
}

let default =
  {
    hit = 40;
    free_to_cache = 35;
    refill = 45;
    refill_per_obj = 1;
    flush = 50;
    flush_per_obj = 1;
    grow = 100;
    shrink = 150;
    node_lock_hold = 60;
    defer_enqueue = 30;
    latent_put = 25;
    merge = 50;
    merge_per_obj = 1;
    premove = 50;
    page_lock_hold = 60;
    page_zero_per_page = 80;
    cold_touch = 60;
    cold_touch_per_256b = 15;
    llc_bytes = 2 * 1024 * 1024;
    llc_pressure = 100;
  }
