module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Arena = Ftcsn_graph.Arena
module Traverse = Ftcsn_graph.Traverse
module Bitset = Ftcsn_util.Bitset
module Rng = Ftcsn_prng.Rng
module Metrics = Ftcsn_obs.Metrics
module Counter = Ftcsn_obs.Counter

(* searches issued by every router in the process; lets the alloc test
   prove the hot path ran without adding state to [t] *)
let c_search = Metrics.counter Metrics.default "greedy.search"

type engine = [ `Bfs | `Staged | `Loop ]

type fast =
  | No_fast
  | Fast_staged of Staged_route.t
  | Fast_loop of Loop_route.t

type t = {
  net : Network.t;
  allowed : int -> bool;
  edge_ok : int -> bool;
  rng : Rng.t option;
  busy_set : Bitset.t;
  (* epoch-stamped BFS scratch: starting a search is a generation bump,
     not an O(V) refill *)
  arena : Arena.t;
  (* [route]'s list result is built from this internal buffer *)
  path_buf : int array;
  (* prebuilt idle-vertex predicate; per-call [let ok v = ...] closures
     would allocate on every route *)
  ok : int -> bool;
  fast : fast;
  (* where the looping descent writes the switches [route_into] does not
     hand out *)
  hop_buf : int array;
}

let create ?(allowed = fun _ -> true) ?(edge_ok = fun _ -> true) ?rng
    ?(engine = `Bfs) net =
  let n = Digraph.vertex_count net.Network.graph in
  let busy_set = Bitset.create n in
  let ok v = allowed v && not (Bitset.mem busy_set v) in
  let fast =
    match engine with
    | `Bfs -> No_fast
    | `Staged -> (
        match Staged_route.create net with
        | Some s -> Fast_staged s
        | None -> No_fast)
    | `Loop -> (
        match Loop_route.create net with
        | Some l -> Fast_loop l
        | None -> (
            match Staged_route.create net with
            | Some s -> Fast_staged s
            | None -> No_fast))
  in
  {
    net;
    allowed;
    edge_ok;
    rng;
    busy_set;
    arena = Arena.create n;
    path_buf = Array.make n 0;
    ok;
    fast;
    hop_buf =
      (match fast with
      | Fast_loop l -> Array.make (Loop_route.path_length l) 0
      | No_fast | Fast_staged _ -> [||]);
  }

let network t = t.net

let engine_name t =
  match t.fast with
  | No_fast -> "bfs"
  | Fast_staged _ -> "staged"
  | Fast_loop _ -> "loop"

let busy t v = Bitset.mem t.busy_set v

(* the deterministic search behind [route]/[route_into]: plain CSR-order
   BFS on the arena (path-identical to [Traverse.shortest_path_into]), or
   the structure-aware engine when one engaged at [create].  The looping
   descent also writes the path's switches into [ebuf]. *)
let search t ~src ~dst ~buf ~ebuf =
  Counter.incr c_search;
  match t.fast with
  | No_fast ->
      Traverse.shortest_path_arena_buf ~allowed:t.ok ~edge_ok:t.edge_ok
        t.net.Network.graph ~arena:t.arena ~src ~dst ~buf
  | Fast_staged s ->
      Staged_route.route_into s ~allowed:t.ok ~edge_ok:t.edge_ok ~src ~dst
        ~buf
  | Fast_loop l ->
      Loop_route.route_into l ~allowed:t.ok ~edge_ok:t.edge_ok ~src ~dst ~buf
        ~ebuf

(* BFS with shuffled expansion order: each dequeued vertex's edge_ok
   out-neighbours are collected in CSR order and shuffled, so the parent
   choice among equal-distance vertices — and hence the returned path —
   is sampled uniformly among the tie-breaks.  Visit discipline otherwise
   matches [Traverse.shortest_path_into] exactly (here in the stamp
   encoding: "seen" was [v = src || parent.(v) >= 0], now it is
   [stamp.(v) = gen] with the source pre-stamped). *)
let route_shuffled t rng ~src ~dst =
  let g = t.net.Network.graph in
  if src = dst then Some [ src ]
  else begin
    Counter.incr c_search;
    let a = t.arena in
    let gen = Arena.next_generation a in
    let stamp = a.Arena.stamp
    and parent = a.Arena.parent
    and queue = a.Arena.queue in
    stamp.(src) <- gen;
    queue.(0) <- src;
    a.Arena.head <- 0;
    a.Arena.tail <- 1;
    let found = ref false in
    while (not !found) && a.Arena.head < a.Arena.tail do
      let u = queue.(a.Arena.head) in
      a.Arena.head <- a.Arena.head + 1;
      let nbrs = Array.make (Digraph.out_degree g u) (-1) in
      let k = ref 0 in
      Digraph.iter_out g u (fun ~dst:v ~eid ->
          if t.edge_ok eid then begin
            nbrs.(!k) <- v;
            incr k
          end);
      let nbrs =
        if !k = Array.length nbrs then nbrs else Array.sub nbrs 0 !k
      in
      Rng.shuffle_in_place rng nbrs;
      Array.iter
        (fun v ->
          if (not !found) && stamp.(v) <> gen && (v = dst || t.ok v) then begin
            stamp.(v) <- gen;
            parent.(v) <- u;
            if v = dst then found := true
            else begin
              queue.(a.Arena.tail) <- v;
              a.Arena.tail <- a.Arena.tail + 1
            end
          end)
        nbrs
    done;
    if not !found then None
    else begin
      let rec walk v acc =
        if v = src then v :: acc else walk parent.(v) (v :: acc)
      in
      Some (walk dst [])
    end
  end

let route t ~input ~output =
  if busy t input || busy t output then
    invalid_arg "Greedy.route: endpoint already busy";
  if not (t.ok input && t.ok output) then None
  else begin
    let path =
      match t.rng with
      | None ->
          let len =
            search t ~src:input ~dst:output ~buf:t.path_buf ~ebuf:t.hop_buf
          in
          if len < 0 then None
          else begin
            let rec take i acc =
              if i < 0 then acc else take (i - 1) (t.path_buf.(i) :: acc)
            in
            Some (take (len - 1) [])
          end
      | Some rng -> route_shuffled t rng ~src:input ~dst:output
    in
    (match path with
    | Some p -> List.iter (Bitset.add t.busy_set) p
    | None -> ());
    path
  end

let release t path = List.iter (Bitset.remove t.busy_set) path

let occupy t path = List.iter (Bitset.add t.busy_set) path

(* Buffer variants of route/release/occupy: the DES call path routes into
   caller-owned arrays so a steady-state simulation makes no per-call
   allocations — the test suite asserts a zero [Gc.minor_words] delta
   over a routing loop.  The default deterministic BFS shares its visit
   discipline with [Traverse.shortest_path_into], so [route_into] yields
   exactly the path [route] would have returned as a list. *)
let route_buf t ~input ~output ~buf ~ebuf =
  (match t.rng with
  | Some _ -> invalid_arg "Greedy.route_into: not available on a shuffled router"
  | None -> ());
  if busy t input || busy t output then
    invalid_arg "Greedy.route_into: endpoint already busy";
  if not (t.ok input && t.ok output) then -1
  else begin
    let len = search t ~src:input ~dst:output ~buf ~ebuf in
    for i = 0 to len - 1 do
      Bitset.add t.busy_set buf.(i)
    done;
    len
  end

let route_into t ~input ~output ~buf =
  route_buf t ~input ~output ~buf ~ebuf:t.hop_buf

(* the first live switch into [v] among CSR slots [j .. stop-1] *)
let rec first_live_edge edge_ok out_dst out_eid v j stop =
  if j >= stop then invalid_arg "Greedy.path_edges: path hop has no live switch"
  else if out_dst.(j) = v && edge_ok out_eid.(j) then out_eid.(j)
  else first_live_edge edge_ok out_dst out_eid v (j + 1) stop

let path_edges t buf ~len ~ebuf =
  let g = t.net.Network.graph in
  let out_off = Digraph.Csr.out_off g
  and out_dst = Digraph.Csr.out_dst g
  and out_eid = Digraph.Csr.out_eid g in
  for i = 0 to len - 2 do
    let u = buf.(i) in
    ebuf.(i) <-
      first_live_edge t.edge_ok out_dst out_eid buf.(i + 1) out_off.(u)
        out_off.(u + 1)
  done

let route_into_edges t ~input ~output ~buf ~ebuf =
  let len = route_buf t ~input ~output ~buf ~ebuf in
  let descended =
    match t.fast with
    | Fast_loop l -> Loop_route.descended l
    | No_fast | Fast_staged _ -> false
  in
  if len > 1 && not descended then path_edges t buf ~len ~ebuf;
  len

let release_buf t buf ~len =
  for i = 0 to len - 1 do
    Bitset.remove t.busy_set buf.(i)
  done

let occupy_buf t buf ~len =
  for i = 0 to len - 1 do
    Bitset.add t.busy_set buf.(i)
  done

let route_many t requests =
  List.map (fun (i, o) -> (i, o, route t ~input:i ~output:o)) requests

let route_permutation t pi ~success =
  let inputs = t.net.Network.inputs and outputs = t.net.Network.outputs in
  Array.init (Array.length pi) (fun i ->
      match route t ~input:inputs.(i) ~output:outputs.(pi.(i)) with
      | Some p ->
          incr success;
          Some p
      | None -> None)

let clear t = Bitset.clear t.busy_set
