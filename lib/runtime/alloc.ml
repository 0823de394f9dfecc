(* Shared and private memory allocation.

   g_malloc implements the paper's Section 4.2 allocation policy: a
   block size is chosen per object (heuristic or explicit), data is
   placed on pages dedicated to that block size, the per-page block-size
   table is updated everywhere, directory entries are created at the
   home, and the allocating node receives the data in exclusive state
   while every other node's lines are invalid (flagged).

   p_malloc is the private counterpart: per-node, unshared, below the
   shared address range — its pointers exercise the dynamic range check
   exactly like the private heap data of Barnes/Water in the paper. *)

open Shasta_protocol

let round_up v m = (v + m - 1) / m * m

let fresh_pages state n =
  let base = state.State.shared_next_page in
  state.State.shared_next_page <- base + (n * Granularity.page_bytes);
  if state.State.shared_next_page > Shasta.Layout.shared_limit then
    failwith "Alloc: shared heap exhausted";
  base

let pool_for state bsize =
  match Hashtbl.find_opt state.State.pools bsize with
  | Some p -> p
  | None ->
    let p = { State.pool_page = 0; pool_used = Granularity.page_bytes } in
    Hashtbl.add state.State.pools bsize p;
    p

(* Initialize tables and directory for a newly allocated range. *)
let init_range state ~owner ~base ~len ~bsize =
  let ls = state.State.config.line_shift in
  (* per-page block size, known to all nodes *)
  let first_page = base / Granularity.page_bytes
  and last_page = (base + len - 1) / Granularity.page_bytes in
  for page = first_page to last_page do
    Granularity.set_page_block state.State.gran ~page ~block_bytes:bsize
  done;
  (* first-touch placement: the freshly allocated pages are homed at
     the allocating node instead of the round-robin default; a pooled
     page keeps the home of its first allocation (the core writes a
     page's home once).  Under round-robin no override is installed and
     the protocol view stays byte-identical to the seed. *)
  (if state.State.config.home_policy = State.First_touch then
     for page = first_page to last_page do
       Engine.set_home state ~page ~home:owner
     done);
  (* directory entries, owned by the allocator (registered through the
     pure protocol view) *)
  let nblocks = len / bsize in
  let blocks = List.init nblocks (fun k -> base + (k * bsize)) in
  Engine.alloc_blocks state ~owner blocks;
  (* per-node line state *)
  Array.iter
    (fun (n : Node.t) ->
      if n.id = owner then Tables.make_exclusive n ~ls ~addr:base ~len
      else Tables.make_invalid n ~ls ~addr:base ~len)
    state.State.nodes;
  state.State.allocations <- (base, len) :: state.State.allocations

let g_malloc state (node : Node.t) ~size ~bsize_req =
  if size <= 0 then failwith "g_malloc: non-positive size";
  Shasta_machine.Pipeline.stall node.pipe Costs.default.malloc_base;
  let gran = state.State.gran in
  let line_bytes = Granularity.line_bytes gran in
  let bsize =
    match state.State.config.fixed_block with
    | Some b -> Granularity.legalize ~line_bytes b
    | None ->
      if bsize_req > 0 then Granularity.legalize ~line_bytes bsize_req
      else Granularity.heuristic_block gran ~size
  in
  let rounded = round_up size bsize in
  let base, len =
    if rounded >= Granularity.page_bytes then begin
      let npages =
        (rounded + Granularity.page_bytes - 1) / Granularity.page_bytes
      in
      (fresh_pages state npages, npages * Granularity.page_bytes)
    end
    else begin
      let pool = pool_for state bsize in
      if pool.pool_used + rounded > Granularity.page_bytes then begin
        pool.pool_page <- fresh_pages state 1;
        pool.pool_used <- 0
      end;
      let a = pool.pool_page + pool.pool_used in
      pool.pool_used <- pool.pool_used + rounded;
      (a, rounded)
    end
  in
  init_range state ~owner:node.id ~base ~len ~bsize;
  base

let p_malloc state (node : Node.t) ~size =
  if size <= 0 then failwith "p_malloc: non-positive size";
  Shasta_machine.Pipeline.stall node.pipe 50;
  let base = (node.priv_brk + 63) land lnot 63 in
  node.priv_brk <- base + size;
  if node.priv_brk > 0x2000_0000 then failwith "p_malloc: private heap exhausted";
  Tables.mark_private_exclusive node ~ls:state.State.config.line_shift
    ~addr:base ~len:size;
  base
