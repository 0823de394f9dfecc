(* Metrics registry: named counters and fixed-bucket histograms with
   per-node values and cluster-wide aggregation.

   Counters are plain per-node int arrays keyed by name; histograms
   have a fixed, monotonically increasing bound array (bucket i counts
   observations <= bounds.(i); one extra overflow bucket).  The
   registry is cheap enough to stay always-on: the runtime reports
   into it at every emit point, and phase deltas are taken with
   [copy]/[sub] (the scheduler runs several phases per simulation; the
   benchmark tables only want the timed parallel phase). *)

type hist = {
  bounds : int array;
  counts : int array; (* length = Array.length bounds + 1 (overflow) *)
  mutable n : int;
  mutable sum : int;
  mutable hmax : int;
}

type t = {
  nprocs : int;
  counters : (string, int array) Hashtbl.t;
  hists : (string, hist array) Hashtbl.t;
  (* registration order, reversed; keeps dumps stable *)
  mutable counter_order : string list;
  mutable hist_order : string list;
}

let create ~nprocs =
  { nprocs;
    counters = Hashtbl.create 32;
    hists = Hashtbl.create 8;
    counter_order = [];
    hist_order = [] }

(* Power-of-two-ish buckets covering both payload sizes (longwords)
   and latencies (cycles up to the millions). *)
let default_bounds =
  [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 4096; 16384; 65536;
     262144; 1048576 |]

let counter_cells t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = Array.make t.nprocs 0 in
    Hashtbl.add t.counters name c;
    t.counter_order <- name :: t.counter_order;
    c

let add t ~node name by =
  let c = counter_cells t name in
  c.(node) <- c.(node) + by

let incr t ~node name = add t ~node name 1

let counter t name node =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c.(node)
  | None -> 0

let counter_total t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> Array.fold_left ( + ) 0 c
  | None -> 0

let counter_names t = List.rev t.counter_order
let hist_names t = List.rev t.hist_order

let fresh_hist bounds =
  { bounds; counts = Array.make (Array.length bounds + 1) 0;
    n = 0; sum = 0; hmax = 0 }

let hist_cells t ?(bounds = default_bounds) name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h = Array.init t.nprocs (fun _ -> fresh_hist bounds) in
    Hashtbl.add t.hists name h;
    t.hist_order <- name :: t.hist_order;
    h

let bucket_of bounds v =
  let n = Array.length bounds in
  let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
  go 0

let record h v =
  let b = bucket_of h.bounds v in
  h.counts.(b) <- h.counts.(b) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum + v;
  if v > h.hmax then h.hmax <- v

let observe t ?bounds ~node name v = record (hist_cells t ?bounds name).(node) v

(* Handles resolved once, so a hot path bumps an array slot instead of
   hashing a name.  The name registers at the handle's first bump, just
   as a name-keyed bump would, so registration order and dumps are the
   same either way.  The registry never drops a name, so a resolved
   handle stays valid. *)
type counter = { creg : t; cname : string; mutable cells : int array }

type histogram = { hreg : t; hname : string; mutable hcells : hist array }

let counter_handle t name = { creg = t; cname = name; cells = [||] }
let hist_handle t name = { hreg = t; hname = name; hcells = [||] }

let bump c ~node by =
  if Array.length c.cells = 0 then c.cells <- counter_cells c.creg c.cname;
  c.cells.(node) <- c.cells.(node) + by

let observe_handle h ~node v =
  if Array.length h.hcells = 0 then h.hcells <- hist_cells h.hreg h.hname;
  record h.hcells.(node) v

let hist t name node = (hist_cells t name).(node)

(* Percentile estimate from the bucket counts: find the bucket holding
   the rank-[ceil(p/100 * n)] observation and interpolate linearly
   within it by rank position.  The bucket's upper edge is clamped to
   [hmax] (for the overflow bucket and for bounds beyond the observed
   maximum), so p100 = max exactly; fractional percentiles such as
   99.9 resolve to distinct values instead of all collapsing onto the
   same bucket bound. *)
let percentile (h : hist) p =
  if h.n = 0 then 0
  else begin
    let rank =
      max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int h.n)))
    in
    let nb = Array.length h.bounds in
    let rec go i seen =
      if i > nb then h.hmax
      else
        let c = h.counts.(i) in
        if seen + c >= rank then begin
          let lo = if i = 0 then 0 else h.bounds.(i - 1) in
          let hi = if i >= nb then h.hmax else min h.bounds.(i) h.hmax in
          if hi <= lo then min hi h.hmax
          else
            (* rank-th observation is the (rank-seen)-th of the [c] in
               this bucket; spread them evenly across (lo, hi]. *)
            let frac = float_of_int (rank - seen) /. float_of_int c in
            lo + int_of_float (ceil (frac *. float_of_int (hi - lo)))
        end
        else go (i + 1) (seen + c)
    in
    go 0 0
  end

(* Cluster-wide aggregate of a histogram (bounds are shared). *)
let hist_total t name =
  let hs = hist_cells t name in
  let agg = fresh_hist hs.(0).bounds in
  Array.iter
    (fun h ->
      Array.iteri (fun i c -> agg.counts.(i) <- agg.counts.(i) + c) h.counts;
      agg.n <- agg.n + h.n;
      agg.sum <- agg.sum + h.sum;
      if h.hmax > agg.hmax then agg.hmax <- h.hmax)
    hs;
  agg

(* ------------------------------------------------------------------ *)
(* Snapshots: copy and pointwise subtraction, for phase deltas         *)
(* ------------------------------------------------------------------ *)

let copy t =
  let r = create ~nprocs:t.nprocs in
  Hashtbl.iter (fun k v -> Hashtbl.add r.counters k (Array.copy v)) t.counters;
  Hashtbl.iter
    (fun k hs ->
      Hashtbl.add r.hists k
        (Array.map
           (fun h ->
             { h with counts = Array.copy h.counts; bounds = h.bounds })
           hs))
    t.hists;
  r.counter_order <- t.counter_order;
  r.hist_order <- t.hist_order;
  r

(* [sub a b] = a - b, per node and per bucket.  Metrics present only in
   [a] pass through; [b] must be an earlier snapshot of the same
   registry.  Histogram [hmax] is the later snapshot's max (maxima are
   not invertible). *)
let sub a b =
  let r = copy a in
  Hashtbl.iter
    (fun k v ->
      match Hashtbl.find_opt b.counters k with
      | Some old ->
        for i = 0 to Array.length v - 1 do
          v.(i) <- v.(i) - old.(i)
        done
      | None -> ())
    r.counters;
  Hashtbl.iter
    (fun k hs ->
      match Hashtbl.find_opt b.hists k with
      | Some olds ->
        Array.iteri
          (fun i h ->
            let o = olds.(i) in
            for j = 0 to Array.length h.counts - 1 do
              h.counts.(j) <- h.counts.(j) - o.counts.(j)
            done;
            h.n <- h.n - o.n;
            h.sum <- h.sum - o.sum)
          hs
      | None -> ())
    r.hists;
  r

(* ------------------------------------------------------------------ *)
(* Dumps                                                               *)
(* ------------------------------------------------------------------ *)

let bound_label bounds i =
  if i >= Array.length bounds then Printf.sprintf "> %d" bounds.(Array.length bounds - 1)
  else Printf.sprintf "<= %d" bounds.(i)

(* Aligned text tables: per-node columns plus the aggregate. *)
let to_string t =
  let module Table = Shasta_stats.Table in
  let buf = Buffer.create 1024 in
  let nodes = List.init t.nprocs (fun i -> Printf.sprintf "n%d" i) in
  let ct = Table.create (("counter" :: nodes) @ [ "total" ]) in
  List.iter
    (fun name ->
      Table.add_row ct
        ((name
          :: List.init t.nprocs (fun i -> string_of_int (counter t name i)))
         @ [ string_of_int (counter_total t name) ]))
    (List.sort compare (counter_names t));
  Buffer.add_string buf (Table.render ct);
  List.iter
    (fun name ->
      let agg = hist_total t name in
      Buffer.add_string buf
        (Printf.sprintf
           "\nhistogram %s: n=%d sum=%d max=%d mean=%.1f p50<=%d p95<=%d \
            p99<=%d\n"
           name agg.n agg.sum agg.hmax
           (if agg.n = 0 then 0.0
            else float_of_int agg.sum /. float_of_int agg.n)
           (percentile agg 50.0) (percentile agg 95.0)
           (percentile agg 99.0));
      let ht =
        Table.create (("bucket" :: nodes) @ [ "total" ])
      in
      Array.iteri
        (fun i total ->
          if total > 0 then
            Table.add_row ht
              ((bound_label agg.bounds i
                :: List.init t.nprocs (fun nd ->
                  string_of_int (hist t name nd).counts.(i)))
               @ [ string_of_int total ]))
        agg.counts;
      Buffer.add_string buf (Table.render ht))
    (List.sort compare (hist_names t));
  Buffer.contents buf

(* Machine-readable dump: one line per (metric, node) cell. *)
let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "metric,node,value\n";
  List.iter
    (fun name ->
      for i = 0 to t.nprocs - 1 do
        Buffer.add_string buf
          (Printf.sprintf "%s,%d,%d\n" name i (counter t name i))
      done;
      Buffer.add_string buf
        (Printf.sprintf "%s,total,%d\n" name (counter_total t name)))
    (List.sort compare (counter_names t));
  List.iter
    (fun name ->
      let agg = hist_total t name in
      Array.iteri
        (fun i c ->
          Buffer.add_string buf
            (Printf.sprintf "%s[%s],total,%d\n" name
               (bound_label agg.bounds i) c))
        agg.counts)
    (List.sort compare (hist_names t));
  Buffer.contents buf
