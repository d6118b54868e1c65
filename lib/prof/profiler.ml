let nspans = Span.count
let max_depth = 256

type t = {
  enabled : bool;
  ncpus : int;
  rows : int;  (* ncpus + 1; row 0 is the global (-1) row *)
  (* Accumulators, indexed [row * nspans + span]. *)
  acc_calls : int array;
  acc_self_ns : float array;
  acc_incl_ns : float array;
  acc_self_minor : float array;
  acc_self_major : float array;
  (* Open-frame stack as parallel arrays: no allocation per enter. *)
  mutable depth : int;
  f_span : int array;
  f_row : int array;
  f_node : int array;  (* path-tree node *)
  f_t0 : float array;
  f_m0 : float array;  (* minor_words at enter *)
  f_j0 : float array;  (* major_words at enter *)
  f_child_ns : float array;  (* sum of children's inclusive ns *)
  f_child_minor : float array;
  f_child_major : float array;
  f_pairs : int array;  (* completed descendant enter/exit pairs *)
  mutable truncated : int;
  mutable dropped_exits : int;
  (* Interned call-path tree (growable parallel arrays). [node_child]
     is a dense [capacity * nspans] table of child node ids (-1 none). *)
  mutable nnodes : int;
  mutable node_cap : int;
  mutable node_span : int array;
  mutable node_parent : int array;
  mutable node_calls : int array;
  mutable node_self_ns : float array;
  mutable node_self_minor : float array;
  mutable node_child : int array;
  (* Calibrated probe overhead (see mli). *)
  mutable own_ns : float;  (* probe cost inside a leaf span's own window *)
  mutable own_minor : float;
  mutable pair_ns : float;  (* full enter+exit pair cost seen by parent *)
  mutable pair_minor : float;
}

(* Allocation-free probes (see prof_stubs.c). The native externals
   return unboxed floats in registers, so reading a GC counter does not
   move it; bytecode falls back to the boxed primitives, where the
   calibration below absorbs the probe footprint. [minor_words] must not
   be [@@noalloc]: native code keeps the minor-heap pointer in a
   register and publishes it to the domain state only through
   [caml_c_call] (or a GC entry), so a noalloc read sees a stale pointer
   and charges a span's inline allocations to whichever span next makes
   an allocating C call. *)
external minor_words : unit -> (float [@unboxed])
  = "caml_gc_minor_words" "caml_gc_minor_words_unboxed"

external major_words : unit -> (float [@unboxed])
  = "prof_major_words" "prof_major_words_unboxed"
[@@noalloc]

external now_ns : unit -> (float [@unboxed])
  = "prof_monotonic_ns" "prof_monotonic_ns_unboxed"
[@@noalloc]

let make ~enabled ~ncpus ~node_cap =
  let rows = ncpus + 1 in
  let cells = rows * nspans in
  {
    enabled;
    ncpus;
    rows;
    acc_calls = Array.make (max cells 1) 0;
    acc_self_ns = Array.make (max cells 1) 0.;
    acc_incl_ns = Array.make (max cells 1) 0.;
    acc_self_minor = Array.make (max cells 1) 0.;
    acc_self_major = Array.make (max cells 1) 0.;
    depth = 0;
    f_span = Array.make max_depth 0;
    f_row = Array.make max_depth 0;
    f_node = Array.make max_depth (-1);
    f_t0 = Array.make max_depth 0.;
    f_m0 = Array.make max_depth 0.;
    f_j0 = Array.make max_depth 0.;
    f_child_ns = Array.make max_depth 0.;
    f_child_minor = Array.make max_depth 0.;
    f_child_major = Array.make max_depth 0.;
    f_pairs = Array.make max_depth 0;
    truncated = 0;
    dropped_exits = 0;
    nnodes = 0;
    node_cap;
    node_span = Array.make (max node_cap 1) 0;
    node_parent = Array.make (max node_cap 1) (-1);
    node_calls = Array.make (max node_cap 1) 0;
    node_self_ns = Array.make (max node_cap 1) 0.;
    node_self_minor = Array.make (max node_cap 1) 0.;
    node_child = Array.make (max (node_cap * nspans) 1) (-1);
    own_ns = 0.;
    own_minor = 0.;
    pair_ns = 0.;
    pair_minor = 0.;
  }

let null = make ~enabled:false ~ncpus:0 ~node_cap:0
let enabled t = t.enabled

(* -- path tree -- *)

let grow_nodes t =
  let cap = max 16 (t.node_cap * 2) in
  let copy_int a = Array.append a (Array.make (cap - t.node_cap) 0) in
  let copy_f a = Array.append a (Array.make (cap - t.node_cap) 0.) in
  t.node_span <- copy_int t.node_span;
  t.node_parent <-
    Array.append t.node_parent (Array.make (cap - t.node_cap) (-1));
  t.node_calls <- copy_int t.node_calls;
  t.node_self_ns <- copy_f t.node_self_ns;
  t.node_self_minor <- copy_f t.node_self_minor;
  t.node_child <-
    Array.append t.node_child
      (Array.make ((cap - t.node_cap) * nspans) (-1));
  t.node_cap <- cap

(* Child of [parent] (-1 = root) for span [si], interning on miss. The
   root's children live at virtual parent slot via a linear scan over
   depth-0 nodes — kept simple: root children are also interned through
   the dense table by reserving node 0 as a synthetic root. *)
let intern t ~parent ~si =
  (* Node 0 is the synthetic root, created lazily. *)
  if t.nnodes = 0 then begin
    if t.node_cap = 0 then grow_nodes t;
    t.node_span.(0) <- -1;
    t.node_parent.(0) <- -1;
    t.nnodes <- 1
  end;
  let p = if parent < 0 then 0 else parent in
  let slot = (p * nspans) + si in
  let existing = t.node_child.(slot) in
  if existing >= 0 then existing
  else begin
    if t.nnodes >= t.node_cap then grow_nodes t;
    let id = t.nnodes in
    t.nnodes <- id + 1;
    t.node_span.(id) <- si;
    t.node_parent.(id) <- p;
    t.node_calls.(id) <- 0;
    t.node_self_ns.(id) <- 0.;
    t.node_self_minor.(id) <- 0.;
    (* [grow_nodes] may have reallocated [node_child]; recompute slot
       base off the stable [p]. *)
    t.node_child.((p * nspans) + si) <- id;
    id
  end

(* -- instrumentation -- *)

(* [enter] and [exit] are inlined at every call site, so a null
   profiler costs the caller one load and one branch; the live bodies
   stay out of line. *)
let[@inline never] enter_live t ~cpu span =
  let si = Span.index span in
  let row = if cpu >= 0 && cpu < t.ncpus then cpu + 1 else 0 in
  t.acc_calls.((row * nspans) + si) <- t.acc_calls.((row * nspans) + si) + 1;
  if t.depth >= max_depth then t.truncated <- t.truncated + 1
  else begin
    let d = t.depth in
    let parent = if d = 0 then -1 else t.f_node.(d - 1) in
    let node = intern t ~parent ~si in
    t.node_calls.(node) <- t.node_calls.(node) + 1;
    t.f_span.(d) <- si;
    t.f_row.(d) <- row;
    t.f_node.(d) <- node;
    t.f_child_ns.(d) <- 0.;
    t.f_child_minor.(d) <- 0.;
    t.f_child_major.(d) <- 0.;
    t.f_pairs.(d) <- 0;
    t.f_t0.(d) <- now_ns ();
    t.f_j0.(d) <- major_words ();
    t.f_m0.(d) <- minor_words ();
    t.depth <- d + 1
  end

let[@inline] enter t ~cpu span = if t.enabled then enter_live t ~cpu span

let comp raw own pairs_below pair =
  let v = raw -. own -. (float_of_int pairs_below *. pair) in
  if v > 0. then v else 0.

let minus_child incl child = if incl > child then incl -. child else 0.

(* Close the top frame unconditionally, attributing its window. *)
let pop_top t =
  let m1 = minor_words () in
  let j1 = major_words () in
  let t1 = now_ns () in
  let d = t.depth - 1 in
  let si = t.f_span.(d) in
  let row = t.f_row.(d) in
  let node = t.f_node.(d) in
  let pairs_below = t.f_pairs.(d) in
  let raw_ns = t1 -. t.f_t0.(d) in
  let raw_minor = m1 -. t.f_m0.(d) in
  let raw_major = j1 -. t.f_j0.(d) in
  let incl_ns = comp raw_ns t.own_ns pairs_below t.pair_ns in
  let incl_minor = comp raw_minor t.own_minor pairs_below t.pair_minor in
  let incl_major = if raw_major > 0. then raw_major else 0. in
  let self_ns = minus_child incl_ns t.f_child_ns.(d) in
  let self_minor = minus_child incl_minor t.f_child_minor.(d) in
  let self_major = minus_child incl_major t.f_child_major.(d) in
  let idx = (row * nspans) + si in
  t.acc_self_ns.(idx) <- t.acc_self_ns.(idx) +. self_ns;
  t.acc_incl_ns.(idx) <- t.acc_incl_ns.(idx) +. incl_ns;
  t.acc_self_minor.(idx) <- t.acc_self_minor.(idx) +. self_minor;
  t.acc_self_major.(idx) <- t.acc_self_major.(idx) +. self_major;
  if node >= 0 then begin
    t.node_self_ns.(node) <- t.node_self_ns.(node) +. self_ns;
    t.node_self_minor.(node) <- t.node_self_minor.(node) +. self_minor
  end;
  t.depth <- d;
  if d > 0 then begin
    let p = d - 1 in
    t.f_child_ns.(p) <- t.f_child_ns.(p) +. incl_ns;
    t.f_child_minor.(p) <- t.f_child_minor.(p) +. incl_minor;
    t.f_child_major.(p) <- t.f_child_major.(p) +. incl_major;
    t.f_pairs.(p) <- t.f_pairs.(p) + pairs_below + 1
  end

(* Top-level so [exit] allocates no closure on the hot path. *)
let rec find_frame t si d =
  if d < 0 then -1 else if t.f_span.(d) = si then d else find_frame t si (d - 1)

let[@inline never] exit_live t span =
  let si = Span.index span in
  let d = find_frame t si (t.depth - 1) in
  if d < 0 then t.dropped_exits <- t.dropped_exits + 1
  else begin
    (* Unwind frames abandoned above the match (effect suspensions). *)
    while t.depth - 1 > d do
      pop_top t
    done;
    pop_top t
  end

let[@inline] exit t span = if t.enabled then exit_live t span

(* -- snapshot -- *)

type cell = {
  span : Span.t;
  cpu : int;
  calls : int;
  self_ns : float;
  incl_ns : float;
  self_minor_words : float;
  self_major_words : float;
}

let cell_at t row si =
  let idx = (row * nspans) + si in
  {
    span = Span.of_index si;
    cpu = row - 1;
    calls = t.acc_calls.(idx);
    self_ns = t.acc_self_ns.(idx);
    incl_ns = t.acc_incl_ns.(idx);
    self_minor_words = t.acc_self_minor.(idx);
    self_major_words = t.acc_self_major.(idx);
  }

let cells t =
  if not t.enabled then []
  else
    let out = ref [] in
    for row = t.rows - 1 downto 0 do
      for si = nspans - 1 downto 0 do
        let c = cell_at t row si in
        if c.calls > 0 then out := c :: !out
      done
    done;
    !out

let totals t =
  if not t.enabled then []
  else
    let out = ref [] in
    for si = nspans - 1 downto 0 do
      let acc =
        ref
          {
            span = Span.of_index si;
            cpu = -1;
            calls = 0;
            self_ns = 0.;
            incl_ns = 0.;
            self_minor_words = 0.;
            self_major_words = 0.;
          }
      in
      for row = 0 to t.rows - 1 do
        let c = cell_at t row si in
        acc :=
          {
            !acc with
            calls = !acc.calls + c.calls;
            self_ns = !acc.self_ns +. c.self_ns;
            incl_ns = !acc.incl_ns +. c.incl_ns;
            self_minor_words = !acc.self_minor_words +. c.self_minor_words;
            self_major_words = !acc.self_major_words +. c.self_major_words;
          }
      done;
      if !acc.calls > 0 then out := !acc :: !out
    done;
    !out

let subsystem_totals t =
  List.map
    (fun sub ->
      let ns = ref 0. and words = ref 0. in
      List.iter
        (fun c ->
          if String.equal (Span.subsystem c.span) sub then begin
            ns := !ns +. c.self_ns;
            words := !words +. c.self_minor_words
          end)
        (totals t);
      (sub, !ns, !words))
    Span.subsystems

let total_self_ns t = List.fold_left (fun a c -> a +. c.self_ns) 0. (totals t)

let total_minor_words t =
  List.fold_left (fun a c -> a +. c.self_minor_words) 0. (totals t)

let total_major_words t =
  List.fold_left (fun a c -> a +. c.self_major_words) 0. (totals t)

let truncated t = t.truncated
let dropped_exits t = t.dropped_exits

let node_path t id =
  let rec go id acc =
    if id <= 0 then acc
    else go t.node_parent.(id) (Span.name (Span.of_index t.node_span.(id)) :: acc)
  in
  String.concat ";" (go id [])

let folded ?(weight = `Calls) t =
  if not t.enabled then []
  else begin
    let out = ref [] in
    for id = 1 to t.nnodes - 1 do
      let w =
        match weight with
        | `Calls -> t.node_calls.(id)
        | `Self_ns -> int_of_float (Float.round t.node_self_ns.(id))
        | `Self_minor_words -> int_of_float (Float.round t.node_self_minor.(id))
      in
      if w > 0 then out := (node_path t id, w) :: !out
    done;
    List.sort (fun (a, _) (b, _) -> String.compare a b) !out
  end

let reset t =
  if t.enabled then begin
    Array.fill t.acc_calls 0 (Array.length t.acc_calls) 0;
    Array.fill t.acc_self_ns 0 (Array.length t.acc_self_ns) 0.;
    Array.fill t.acc_incl_ns 0 (Array.length t.acc_incl_ns) 0.;
    Array.fill t.acc_self_minor 0 (Array.length t.acc_self_minor) 0.;
    Array.fill t.acc_self_major 0 (Array.length t.acc_self_major) 0.;
    t.depth <- 0;
    t.truncated <- 0;
    t.dropped_exits <- 0;
    Array.fill t.node_child 0 (t.nnodes * nspans) (-1);
    t.nnodes <- 0
  end

(* -- calibration -- *)

(* Measure the probes' own footprint so exits can subtract it. Two
   figures: OWN = words/ns the probes contribute *inside* a leaf span's
   window; PAIR = the full cost of one enter+exit pair as seen from an
   enclosing window. Run against a scratch span, then reset.

   Each figure comes from [calib_batches] batches of [calib_batch]
   pairs. The word figures are means over every pair; the ns figures
   are the cheapest batch's mean, so a preemption during calibration
   cannot inflate the compensation every later frame subtracts (an
   inflated PAIR clamps enclosing frames' inclusive time at 0). *)
let calib_batches = 16
let calib_batch = 256

let calibrate t =
  let n = float_of_int (calib_batches * calib_batch) in
  let span = Span.Engine_dispatch in
  let si = Span.index span in
  let cheapest = ref infinity in
  let note_batch before =
    let per_pair = (t.acc_self_ns.(si) -. before) /. float_of_int calib_batch in
    if per_pair < !cheapest then cheapest := per_pair
  in
  for _ = 1 to calib_batches do
    let before = t.acc_self_ns.(si) in
    for _ = 1 to calib_batch do
      enter t ~cpu:(-1) span;
      exit t span
    done;
    note_batch before
  done;
  t.own_ns <- !cheapest;
  t.own_minor <- t.acc_self_minor.(si) /. n;
  (* PAIR: wrap each batch of pairs in one outer window of the same
     probes. *)
  reset t;
  cheapest := infinity;
  for _ = 1 to calib_batches do
    let before = t.acc_self_ns.(si) in
    enter t ~cpu:(-1) span;
    for _ = 1 to calib_batch do
      enter t ~cpu:(-1) Span.Buddy_alloc;
      exit t Span.Buddy_alloc
    done;
    exit t span;
    note_batch before
  done;
  (* With pair compensation still zero, the outer frames' self figures
     are full pair footprints (the inner frames' compensated inclusive
     figures are ~0), so per-pair cost is outer self over the pairs. *)
  t.pair_minor <- t.acc_self_minor.(si) /. n;
  t.pair_ns <- !cheapest;
  reset t

let create ?(ncpus = 8) () =
  if ncpus < 0 then invalid_arg "Prof.create: ncpus < 0";
  let t = make ~enabled:true ~ncpus ~node_cap:64 in
  calibrate t;
  t
