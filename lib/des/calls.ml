module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Greedy = Ftcsn_routing.Greedy
module Rng = Ftcsn_prng.Rng

type pool = { items : int array; pos : int array; mutable size : int }

let pool_create n =
  { items = Array.init n Fun.id; pos = Array.init n Fun.id; size = n }

let is_idle p x = p.pos.(x) < p.size

let pool_remove p x =
  let i = p.pos.(x) in
  let last = p.size - 1 in
  let y = p.items.(last) in
  p.items.(i) <- y;
  p.pos.(y) <- i;
  p.items.(last) <- x;
  p.pos.(x) <- last;
  p.size <- last

let pool_add p x =
  let i = p.pos.(x) in
  let y = p.items.(p.size) in
  p.items.(p.size) <- x;
  p.pos.(x) <- p.size;
  p.items.(i) <- y;
  p.pos.(y) <- i;
  p.size <- p.size + 1

let draw rng p = p.items.(Rng.int rng p.size)

type t = {
  net : Network.t;
  router : Greedy.t;
  cap : int;
  c_in : int array;
  c_out : int array;
  c_stamp : int array;
  c_plen : int array;
  c_path : int array array;
  c_edges : int array array;
  c_prev : int array;
  c_next : int array;
  mutable live_head : int;
  mutable live_count : int;
  mutable free_head : int;
  owner : int array;
  idle_in : pool;
  idle_out : pool;
  route_buf : int array;
  route_ebuf : int array;
  mutable max_concurrent : int;
}

let create ~router net =
  let n = Digraph.vertex_count net.Network.graph in
  let cap = min (Network.n_inputs net) (Network.n_outputs net) in
  {
    net;
    router;
    cap;
    c_in = Array.make cap (-1);
    c_out = Array.make cap (-1);
    c_stamp = Array.make cap 0;
    c_plen = Array.make cap 0;
    c_path = Array.make cap [||];
    c_edges = Array.make cap [||];
    c_prev = Array.make cap (-1);
    c_next = Array.init cap (fun i -> if i + 1 < cap then i + 1 else -1);
    live_head = -1;
    live_count = 0;
    free_head = (if cap > 0 then 0 else -1);
    owner = Array.make n (-1);
    idle_in = pool_create (Network.n_inputs net);
    idle_out = pool_create (Network.n_outputs net);
    route_buf = Array.make n 0;
    route_ebuf = Array.make n 0;
    max_concurrent = 0;
  }

let route t ~i ~o =
  Greedy.route_into_edges t.router ~input:t.net.Network.inputs.(i)
    ~output:t.net.Network.outputs.(o) ~buf:t.route_buf ~ebuf:t.route_ebuf

(* grow-once per-slot buffers: steady state reuses them *)
let slot_buf bufs slot len =
  let p = bufs.(slot) in
  if Array.length p >= len then p
  else begin
    let p' = Array.make (max len (2 * Array.length p)) 0 in
    bufs.(slot) <- p';
    p'
  end

let alloc t ~i ~o =
  let slot = t.free_head in
  (* an idle input/output pair existed, so a free slot must too *)
  t.free_head <- t.c_next.(slot);
  t.c_in.(slot) <- i;
  t.c_out.(slot) <- o;
  slot

(* the slot's path is set: mark it in [owner], take the endpoints out of
   the pools and link the call live *)
let go_live t slot =
  let p = t.c_path.(slot) in
  for j = 0 to t.c_plen.(slot) - 1 do
    t.owner.(p.(j)) <- slot
  done;
  pool_remove t.idle_in t.c_in.(slot);
  pool_remove t.idle_out t.c_out.(slot);
  t.c_prev.(slot) <- -1;
  t.c_next.(slot) <- t.live_head;
  if t.live_head >= 0 then t.c_prev.(t.live_head) <- slot;
  t.live_head <- slot;
  t.live_count <- t.live_count + 1;
  if t.live_count > t.max_concurrent then t.max_concurrent <- t.live_count

(* adopt the path {!route} left in the buffers *)
let adopt_buf t slot ~len =
  Array.blit t.route_buf 0 (slot_buf t.c_path slot len) 0 len;
  t.c_plen.(slot) <- len;
  let hops = max (len - 1) 0 in
  Array.blit t.route_ebuf 0 (slot_buf t.c_edges slot hops) 0 hops;
  go_live t slot

let set_path_list t slot path =
  let len = List.length path in
  let p = slot_buf t.c_path slot len in
  List.iteri (fun j v -> p.(j) <- v) path;
  t.c_plen.(slot) <- len;
  Greedy.path_edges t.router p ~len
    ~ebuf:(slot_buf t.c_edges slot (max (len - 1) 0))

let place t ~i ~o ~len =
  let slot = alloc t ~i ~o in
  adopt_buf t slot ~len;
  slot

let place_list t ~i ~o path =
  let slot = alloc t ~i ~o in
  set_path_list t slot path;
  go_live t slot;
  slot

let relay t slots paths =
  List.iter
    (fun sl ->
      Greedy.release_buf t.router t.c_path.(sl) ~len:t.c_plen.(sl);
      for j = 0 to t.c_plen.(sl) - 1 do
        t.owner.(t.c_path.(sl).(j)) <- -1
      done)
    slots;
  List.iter2
    (fun sl p ->
      Greedy.occupy t.router p;
      set_path_list t sl p;
      List.iter (fun v -> t.owner.(v) <- sl) p)
    slots paths

let live_slots t =
  let rec go sl acc = if sl < 0 then acc else go t.c_next.(sl) (sl :: acc) in
  go t.live_head []

let vacate t slot =
  let p = t.c_path.(slot) and len = t.c_plen.(slot) in
  Greedy.release_buf t.router p ~len;
  for j = 0 to len - 1 do
    t.owner.(p.(j)) <- -1
  done;
  pool_add t.idle_in t.c_in.(slot);
  pool_add t.idle_out t.c_out.(slot);
  let p = t.c_prev.(slot) and n = t.c_next.(slot) in
  if p >= 0 then t.c_next.(p) <- n else t.live_head <- n;
  if n >= 0 then t.c_prev.(n) <- p;
  t.live_count <- t.live_count - 1

let release t slot =
  t.c_stamp.(slot) <- t.c_stamp.(slot) + 1;
  t.c_next.(slot) <- t.free_head;
  t.free_head <- slot

let key t slot = (t.c_stamp.(slot) * t.cap) + slot

let slot_of_key t key =
  let slot = key mod t.cap in
  if t.c_stamp.(slot) = key / t.cap then slot else -1

let crosses t slot e =
  let edges = t.c_edges.(slot) in
  let k = t.c_plen.(slot) - 1 in
  let found = ref false in
  let j = ref 0 in
  while (not !found) && !j < k do
    if edges.(!j) = e then found := true;
    incr j
  done;
  !found

let sever t ~e v =
  let slot = t.owner.(v) in
  if slot >= 0 && crosses t slot e then begin
    vacate t slot;
    slot
  end
  else -1

let reroute t slot =
  let len = route t ~i:t.c_in.(slot) ~o:t.c_out.(slot) in
  if len >= 0 then adopt_buf t slot ~len;
  len >= 0
