(* Tests for the fast routing layer: the epoch-stamped arena BFS's
   bit-identity with the fill-based search, Staged_route / Loop_route
   agreement with the BFS oracle on every registry family under random
   fault masks, busy-state accept/block agreement over call sequences,
   the looping router's path identity with the block-tree descent and its
   layout acceptance check, engine fallback resolution, zero-allocation
   of the DES call path, and fault-free policy-independence of the
   traffic statistics. *)

module Network = Ftcsn_networks.Network
module Topology = Ftcsn_networks.Topology
module Benes = Ftcsn_networks.Benes
module Crossbar = Ftcsn_networks.Crossbar
module Cantor = Ftcsn_networks.Cantor
module Fault = Ftcsn_reliability.Fault
module Fault_strip = Ftcsn.Fault_strip
module Digraph = Ftcsn_graph.Digraph
module Traverse = Ftcsn_graph.Traverse
module Arena = Ftcsn_graph.Arena
module Greedy = Ftcsn_routing.Greedy
module Staged_route = Ftcsn_routing.Staged_route
module Loop_route = Ftcsn_routing.Loop_route
module Traffic = Ftcsn_des.Traffic
module Rng = Ftcsn_prng.Rng
module Metrics = Ftcsn_obs.Metrics
module Counter = Ftcsn_obs.Counter

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let registry_nets ~n =
  List.filter_map
    (fun name ->
      match
        Topology.build_string ~rng:(Rng.create ~seed:3)
          (Printf.sprintf "%s:%d" name n)
      with
      | Ok b -> Some (name, b.Topology.net)
      | Error _ -> None)
    (Topology.names ())

(* kill roughly [per_mille]/1000 of the edges, seeded *)
let fault_mask ~seed ~per_mille g =
  let m = Digraph.edge_count g in
  let bad = Array.make m false in
  let rng = Rng.create ~seed in
  for _ = 1 to 1 + (m * per_mille / 1000) do
    bad.(Rng.int rng m) <- true
  done;
  fun e -> not bad.(e)

let is_legal_path ~name g ~edge_ok ~src ~dst buf len =
  checkb (name ^ ": starts at src") true (buf.(0) = src);
  checkb (name ^ ": ends at dst") true (buf.(len - 1) = dst);
  for k = 0 to len - 2 do
    let found = ref false in
    Digraph.iter_out g buf.(k) (fun ~dst:v ~eid ->
        if v = buf.(k + 1) && edge_ok eid then found := true);
    checkb
      (Printf.sprintf "%s: hop %d->%d is a live switch" name buf.(k)
         buf.(k + 1))
      true !found
  done

(* ---------- arena BFS is bit-identical to the fill-based search ---------- *)

let test_arena_bit_identity () =
  List.iter
    (fun (name, net) ->
      let g = net.Network.graph in
      let n = Digraph.vertex_count g in
      let arena = Arena.create n in
      let parent = Array.make n (-1) and queue = Array.make n 0 in
      let buf = Array.make n 0 in
      List.iter
        (fun seed ->
          let edge_ok = fault_mask ~seed ~per_mille:30 g in
          let vrng = Rng.create ~seed:(seed + 100) in
          let vbad = Array.make n false in
          for _ = 1 to n / 10 do
            vbad.(Rng.int vrng n) <- true
          done;
          let allowed v = not vbad.(v) in
          Array.iter
            (fun src ->
              Array.iter
                (fun dst ->
                  let reference =
                    Traverse.shortest_path_into ~allowed ~edge_ok g ~src ~dst
                      ~parent ~queue
                  in
                  let len =
                    Traverse.shortest_path_arena_buf ~allowed ~edge_ok g
                      ~arena ~src ~dst ~buf
                  in
                  match reference with
                  | None ->
                      check
                        (Printf.sprintf "%s %d->%d: both blocked" name src dst)
                        (-1) len
                  | Some p ->
                      check
                        (Printf.sprintf "%s %d->%d: same length" name src dst)
                        (List.length p) len;
                      List.iteri
                        (fun k v ->
                          check
                            (Printf.sprintf "%s %d->%d: vertex %d" name src
                               dst k)
                            v buf.(k))
                        p)
                net.Network.outputs)
            net.Network.inputs)
        [ 1; 2 ])
    (registry_nets ~n:8)

(* ---------- staged/loop engines agree with the BFS engine ---------- *)

(* On an idle network the three engines must return the same
   accept/block verdict for every input/output pair, and — because a
   strictly staged graph gives every surviving path the same length —
   accepted paths of identical length, each a legal live path. *)
let engine_agreement ~n ~seeds () =
  List.iter
    (fun (name, net) ->
      let g = net.Network.graph in
      let nv = Digraph.vertex_count g in
      let buf = Array.make nv 0 in
      List.iter
        (fun seed ->
          let edge_ok = fault_mask ~seed ~per_mille:20 g in
          let mk engine = Greedy.create ~edge_ok ~engine net in
          let r_bfs = mk `Bfs and r_st = mk `Staged and r_lp = mk `Loop in
          Array.iter
            (fun src ->
              Array.iter
                (fun dst ->
                  let probe r =
                    let len = Greedy.route_into r ~input:src ~output:dst ~buf in
                    if len >= 0 then begin
                      is_legal_path ~name g ~edge_ok ~src ~dst buf len;
                      Greedy.release_buf r buf ~len
                    end;
                    len
                  in
                  let l0 = probe r_bfs in
                  let l1 = probe r_st in
                  let l2 = probe r_lp in
                  check
                    (Printf.sprintf "%s seed %d %d->%d: staged = bfs" name
                       seed src dst)
                    l0 l1;
                  check
                    (Printf.sprintf "%s seed %d %d->%d: loop = bfs" name seed
                       src dst)
                    l0 l2)
                net.Network.outputs)
            net.Network.inputs)
        seeds)
    (registry_nets ~n)

let test_engine_agreement_n8 () = engine_agreement ~n:8 ~seeds:[ 5; 6; 7 ] ()
let test_engine_agreement_n16 () = engine_agreement ~n:16 ~seeds:[ 8 ] ()

(* ---------- accept/block agreement along busy call sequences ---------- *)

(* Drive one router through an arrival/departure sequence and re-derive
   every verdict with the oracle BFS over the same busy set: the fast
   routers may pick different paths (which then shape the busy set), but
   at each decision point their accept/block answer must equal the plain
   search's on the state they created. *)
let busy_sequence engine () =
  let net = Benes.create 16 in
  let g = net.Network.graph in
  let nv = Digraph.vertex_count g in
  let edge_ok = fault_mask ~seed:21 ~per_mille:15 g in
  let r = Greedy.create ~edge_ok ~engine net in
  let parent = Array.make nv (-1) and queue = Array.make nv 0 in
  let buf = Array.make nv 0 in
  let rng = Rng.create ~seed:22 in
  let live = ref [] in
  let n_in = Network.n_inputs net in
  for step = 1 to 400 do
    let drop = !live <> [] && Rng.int rng 3 = 0 in
    if drop then begin
      match !live with
      | [] -> ()
      | (p, len) :: rest ->
          Greedy.release_buf r p ~len;
          live := rest
    end
    else begin
      let input = net.Network.inputs.(Rng.int rng n_in)
      and output = net.Network.outputs.(Rng.int rng n_in) in
      if not (Greedy.busy r input || Greedy.busy r output) then begin
        let allowed v = not (Greedy.busy r v) in
        let oracle =
          Traverse.shortest_path_into ~allowed ~edge_ok g ~src:input
            ~dst:output ~parent ~queue
        in
        let len = Greedy.route_into r ~input ~output ~buf in
        checkb
          (Printf.sprintf "step %d: %s verdict matches oracle" step
             (Greedy.engine_name r))
          (oracle <> None) (len >= 0);
        if len >= 0 then begin
          (match oracle with
          | Some p ->
              check
                (Printf.sprintf "step %d: same path length" step)
                (List.length p) len
          | None -> ());
          live := (Array.sub buf 0 len, len) :: !live
        end
      end
    end
  done;
  checkb "sequence exercised placements" true (!live <> [])

let test_busy_sequence_staged () = busy_sequence `Staged ()
let test_busy_sequence_loop () = busy_sequence `Loop ()

(* ---------- the looping router is path-identical to the block tree ---------- *)

(* The looping router as it was before it switched to layout arithmetic:
   a descent over [Benes.root]'s block tree that finds each hop's switch
   by scanning the CSR row, with the same visit budget and the same exact
   staged fallback.  It is the reference the index-arithmetic descent
   must reproduce path for path. *)
module Tree_oracle = struct
  type t = {
    g : Digraph.t;
    root : Benes.node;
    in_idx : int array;
    out_idx : int array;
    plen : int;
    budget : int;
    staged : Staged_route.t;
    mutable budget_left : int;
  }

  exception Budget_exhausted

  let create b =
    let net = Benes.network b in
    let n = Network.n_inputs net in
    let lg = Benes.Layout.log2 n in
    let nv = Digraph.vertex_count net.Network.graph in
    let in_idx = Array.make nv (-1) and out_idx = Array.make nv (-1) in
    Array.iteri (fun i v -> in_idx.(v) <- i) net.Network.inputs;
    Array.iteri (fun i v -> out_idx.(v) <- i) net.Network.outputs;
    {
      g = net.Network.graph;
      root = Benes.root b;
      in_idx;
      out_idx;
      plen = 2 * lg;
      budget = 16 * ((2 * lg) - 1);
      staged = Option.get (Staged_route.create net);
      budget_left = 0;
    }

  (* the first live u -> v switch in CSR order, or -1 *)
  let live_edge t ~edge_ok u v =
    let off = Digraph.Csr.out_off t.g
    and dst = Digraph.Csr.out_dst t.g
    and eid = Digraph.Csr.out_eid t.g in
    let rec go i =
      if i >= off.(u + 1) then -1
      else if dst.(i) = v && edge_ok eid.(i) then eid.(i)
      else go (i + 1)
    in
    go off.(u)

  let rec try_node t ~allowed ~edge_ok node r o lo hi buf ebuf =
    t.budget_left <- t.budget_left - 1;
    if t.budget_left < 0 then raise Budget_exhausted;
    match node with
    | Benes.Switch { ins; outs } ->
        buf.(lo) <- ins.(r);
        buf.(hi) <- outs.(o);
        ebuf.(lo) <- live_edge t ~edge_ok ins.(r) outs.(o);
        ebuf.(lo) >= 0
    | Benes.Split { ins; outs; top_in; bot_in; top_out; bot_out; top; bot } ->
        buf.(lo) <- ins.(r);
        buf.(hi) <- outs.(o);
        try_half t ~allowed ~edge_ok top_in top_out top r o lo hi buf ebuf
        || try_half t ~allowed ~edge_ok bot_in bot_out bot r o lo hi buf ebuf

  and try_half t ~allowed ~edge_ok h_in h_out sub r o lo hi buf ebuf =
    let hin = h_in.(r / 2) and hout = h_out.(o / 2) in
    allowed hin && allowed hout
    &&
    let e_in = live_edge t ~edge_ok buf.(lo) hin
    and e_out = live_edge t ~edge_ok hout buf.(hi) in
    e_in >= 0 && e_out >= 0
    && begin
         ebuf.(lo) <- e_in;
         ebuf.(hi - 1) <- e_out;
         try_node t ~allowed ~edge_ok sub (r / 2) (o / 2) (lo + 1) (hi - 1)
           buf ebuf
       end

  (* path length or -1, and whether the descent (not the fallback) found
     it, in which case [ebuf] holds its switches *)
  let route_into t ~allowed ~edge_ok ~src ~dst ~buf ~ebuf =
    let r = t.in_idx.(src) and o = t.out_idx.(dst) in
    let fallback () =
      (Staged_route.route_into t.staged ~allowed ~edge_ok ~src ~dst ~buf, false)
    in
    if src = dst then begin
      buf.(0) <- src;
      (1, true)
    end
    else if r < 0 || o < 0 then fallback ()
    else begin
      t.budget_left <- t.budget;
      match
        try_node t ~allowed ~edge_ok t.root r o 0 (t.plen - 1) buf ebuf
      with
      | true -> (t.plen, true)
      | false -> (-1, true)
      | exception Budget_exhausted -> fallback ()
    end
end

let c_fallback = Metrics.counter Metrics.default "loop_route.fallback"

(* the switches a call occupies by the CSR "first normal edge" rule *)
let csr_edges g ~edge_ok buf len =
  Array.init (max (len - 1) 0) (fun i ->
      let e = ref (-1) in
      Digraph.iter_out g buf.(i) (fun ~dst ~eid ->
          if !e < 0 && dst = buf.(i + 1) && edge_ok eid then e := eid);
      !e)

(* Route [src -> dst] with the [`Loop] router and the tree oracle over
   the same fault mask and busy set; they must agree on the verdict, the
   length, every vertex and every switch.  Returns whether the looping
   router fell back to the staged search. *)
let same_as_oracle ~what oracle r ~g ~allowed ~edge_ok ~src ~dst =
  let nv = Digraph.vertex_count g in
  let buf = Array.make nv 0 and ebuf = Array.make nv 0 in
  let obuf = Array.make nv 0 and oebuf = Array.make nv 0 in
  let allowed' v = allowed v && not (Greedy.busy r v) in
  let olen, descended =
    Tree_oracle.route_into oracle ~allowed:allowed' ~edge_ok ~src ~dst
      ~buf:obuf ~ebuf:oebuf
  in
  let f0 = Counter.get c_fallback in
  let len = Greedy.route_into_edges r ~input:src ~output:dst ~buf ~ebuf in
  let fell_back = Counter.get c_fallback > f0 in
  let agree = ref (len = olen && fell_back = not descended) in
  if len > 0 then begin
    Greedy.release_buf r buf ~len;
    let oedges =
      if descended then Array.sub oebuf 0 (len - 1)
      else csr_edges g ~edge_ok obuf len
    in
    for i = 0 to len - 1 do
      if buf.(i) <> obuf.(i) then agree := false
    done;
    for i = 0 to len - 2 do
      if ebuf.(i) <> oedges.(i) then agree := false
    done
  end;
  if not !agree then
    Alcotest.failf "%s %d->%d: loop (len %d) differs from the tree oracle \
                    (len %d)" what src dst len olen;
  fell_back

(* random fault mask, random busy set, random requests — plus one
   request from an internal wire, which only the fallback answers *)
let qcheck_tree_identity =
  QCheck2.Test.make ~count:40
    ~name:"loop router = block-tree descent (path, edges) on benes:2..512"
    QCheck2.Gen.(
      quad (int_range 1 9) (int_range 0 100000) (int_range 0 80)
        (int_range 0 40))
    (fun (k, seed, per_mille, busy_pct) ->
      let b = Benes.make (1 lsl k) in
      let net = Benes.network b in
      let g = net.Network.graph in
      let nv = Digraph.vertex_count g in
      let n = Network.n_inputs net in
      let edge_ok = fault_mask ~seed ~per_mille g in
      let rng = Rng.create ~seed:(seed + 1) in
      let vbad = Array.init nv (fun _ -> Rng.int rng 1000 < per_mille) in
      let allowed v = not vbad.(v) in
      let r = Greedy.create ~allowed ~edge_ok ~engine:`Loop net in
      let oracle = Tree_oracle.create b in
      let busy = Array.init nv (fun v -> v) in
      Rng.shuffle_in_place rng busy;
      Greedy.occupy_buf r busy ~len:(nv * busy_pct / 100);
      let free v = allowed v && not (Greedy.busy r v) in
      let probe ~src ~dst =
        if free src && free dst then
          ignore
            (same_as_oracle ~what:(Printf.sprintf "benes:%d" n) oracle r ~g
               ~allowed ~edge_ok ~src ~dst)
      in
      for _ = 1 to 60 do
        probe
          ~src:net.Network.inputs.(Rng.int rng n)
          ~dst:net.Network.outputs.(Rng.int rng n)
      done;
      probe ~src:(n + Rng.int rng n) ~dst:net.Network.outputs.(Rng.int rng n);
      true)

(* The two fallback kinds, forced: (1) on benes:512 every level-1 switch
   is dead except in the all-bottom block, so input 0 -> output 0 has one
   live path, the last the top-first descent would try, and the budget
   runs out first; (2) a request from an internal wire.  Both paths get
   their switches from the CSR rule. *)
let test_fallback_edges () =
  let b = Benes.make 512 in
  let net = Benes.network b in
  let g = net.Network.graph in
  let dead = Array.make (Digraph.edge_count g) false in
  let rec mark_leaves ~keep = function
    | Benes.Switch { ins; outs } ->
        if not keep then
          Array.iter
            (fun u ->
              Digraph.iter_out g u (fun ~dst ~eid ->
                  if Array.mem dst outs then dead.(eid) <- true))
            ins
    | Benes.Split { top; bot; _ } ->
        mark_leaves ~keep:false top;
        mark_leaves ~keep bot
  in
  mark_leaves ~keep:true (Benes.root b);
  let edge_ok e = not dead.(e) in
  let r = Greedy.create ~edge_ok ~engine:`Loop net in
  let oracle = Tree_oracle.create b in
  let same ~src ~dst =
    same_as_oracle ~what:"forced fallback" oracle r ~g
      ~allowed:(fun _ -> true) ~edge_ok ~src ~dst
  in
  let buf = Array.make (Digraph.vertex_count g) 0 in
  check "the one live path is found" 18
    (Greedy.route_into r ~input:net.Network.inputs.(0)
       ~output:net.Network.outputs.(0) ~buf);
  Greedy.release_buf r buf ~len:18;
  checkb "budget fallback fired" true
    (same ~src:net.Network.inputs.(0) ~dst:net.Network.outputs.(0));
  (* the bottom half's input wire 0, whose one live path to output 0 is
     the same all-bottom one *)
  let src = Benes.Layout.half_in ~k:9 ~vb:512 ~h:1 0 in
  check "the internal wire still routes" 17
    (Greedy.route_into r ~input:src ~output:net.Network.outputs.(0) ~buf);
  Greedy.release_buf r buf ~len:17;
  checkb "internal-wire request fell back" true
    (same ~src ~dst:net.Network.outputs.(0))

(* ---------- the looping router accepts exactly the Beneš layout ---------- *)

let edges_of g = Array.init (Digraph.edge_count g) (Digraph.edge_endpoints g)

let with_edges net edges =
  let n = Digraph.vertex_count net.Network.graph in
  { net with Network.graph = Digraph.of_edges ~n edges }

let accepted net = Loop_route.create net <> None

let test_layout_acceptance () =
  List.iter
    (fun k ->
      let n = 1 lsl k in
      checkb (Printf.sprintf "benes:%d accepted" n) true
        (accepted (Benes.create n)))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ];
  let net = Benes.create 16 in
  let g = net.Network.graph in
  checks "a renamed Beneš still routes by looping" "loop"
    (Greedy.engine_name
       (Greedy.create ~engine:`Loop { net with Network.name = "fabric" }));
  checkb "identical edge list accepted" true (accepted (with_edges net (edges_of g)));
  let retargeted = edges_of g in
  let src, dst = retargeted.(37) in
  retargeted.(37) <- (src, (dst + 1) mod Digraph.vertex_count g);
  checkb "one edge retargeted" false (accepted (with_edges net retargeted));
  let swapped = edges_of g in
  let e41 = swapped.(41) in
  swapped.(41) <- swapped.(90);
  swapped.(90) <- e41;
  checkb "two edges swapped" false (accepted (with_edges net swapped));
  let pattern = Array.make (Digraph.edge_count g) Fault.Normal in
  pattern.(5) <- Fault.Open_failure;
  let stripped =
    Fault_strip.surviving_network net (Fault_strip.strip net pattern)
  in
  checks "the stripped copy keeps its name" net.Network.name
    stripped.Network.name;
  checkb "Fault_strip copy" false (accepted stripped);
  checkb "reversed Beneš" false (accepted (Network.reverse net));
  checkb "Cantor" false (accepted (Cantor.make 16));
  checkb "crossbar" false (accepted (Crossbar.square 16))

(* ---------- engine fallback resolution ---------- *)

let test_engine_fallbacks () =
  let benes = Benes.create 16 in
  checks "loop on benes" "loop"
    (Greedy.engine_name (Greedy.create ~engine:`Loop benes));
  checks "staged on benes" "staged"
    (Greedy.engine_name (Greedy.create ~engine:`Staged benes));
  checks "default stays bfs" "bfs" (Greedy.engine_name (Greedy.create benes));
  (* crossbar: strictly staged (all edges input->output) but not a
     Benes, so `Loop degrades to the staged search *)
  let xbar = Crossbar.square 4 in
  checks "loop on crossbar" "staged"
    (Greedy.engine_name (Greedy.create ~engine:`Loop xbar));
  (* a skip-level edge breaks strict stagedness: everything falls back
     to plain BFS *)
  let b = Digraph.Builder.create () in
  let v0 = Digraph.Builder.add_vertex b in
  let v1 = Digraph.Builder.add_vertex b in
  let v2 = Digraph.Builder.add_vertex b in
  ignore (Digraph.Builder.add_edge b ~src:v0 ~dst:v1);
  ignore (Digraph.Builder.add_edge b ~src:v1 ~dst:v2);
  ignore (Digraph.Builder.add_edge b ~src:v0 ~dst:v2);
  let skip =
    Network.make ~name:"skip" ~graph:(Digraph.Builder.freeze b)
      ~inputs:[| v0 |] ~outputs:[| v2 |]
  in
  checkb "skip net is not strictly staged" true
    (Staged_route.create skip = None);
  checkb "skip net is not a benes" true (Loop_route.create skip = None);
  checks "staged on skip net" "bfs"
    (Greedy.engine_name (Greedy.create ~engine:`Staged skip));
  checks "loop on skip net" "bfs"
    (Greedy.engine_name (Greedy.create ~engine:`Loop skip));
  (* the BFS fallback on the skip net still routes (via the short edge
     or the long way when masked) *)
  let r = Greedy.create ~engine:`Loop skip in
  let buf = Array.make 3 0 in
  check "skip net routes" 2 (Greedy.route_into r ~input:v0 ~output:v2 ~buf)

(* ---------- the DES call path allocates zero minor words ---------- *)

let c_search = Metrics.counter Metrics.default "greedy.search"

let alloc_free engine () =
  let net = Benes.create 64 in
  let g = net.Network.graph in
  let nv = Digraph.vertex_count g in
  let edge_ok = fault_mask ~seed:31 ~per_mille:10 g in
  let r = Greedy.create ~edge_ok ~engine net in
  let buf = Array.make nv 0 and ebuf = Array.make nv 0 in
  let n_in = Network.n_inputs net in
  let rng = Rng.create ~seed:32 in
  let srcs = Array.init 64 (fun _ -> net.Network.inputs.(Rng.int rng n_in)) in
  let dsts = Array.init 64 (fun _ -> net.Network.outputs.(Rng.int rng n_in)) in
  (* half the routes hand out their switches too *)
  let route k =
    if k land 1 = 0 then
      Greedy.route_into r ~input:srcs.(k) ~output:dsts.(k) ~buf
    else Greedy.route_into_edges r ~input:srcs.(k) ~output:dsts.(k) ~buf ~ebuf
  in
  (* one warm-up pass so lazy one-time costs don't bill the measured loop *)
  for k = 0 to 63 do
    let len = route k in
    if len >= 0 then Greedy.release_buf r buf ~len
  done;
  let s0 = Counter.get c_search in
  let w0 = Gc.minor_words () in
  for k = 0 to 63 do
    let len = route k in
    if len >= 0 then Greedy.release_buf r buf ~len
  done;
  let w1 = Gc.minor_words () in
  let searches = Counter.get c_search - s0 in
  check "the searches actually ran" 64 searches;
  Alcotest.(check (float 0.0))
    (Printf.sprintf "minor words allocated by 64 %s routes"
       (Greedy.engine_name r))
    0.0 (w1 -. w0)

let test_alloc_free_bfs () = alloc_free `Bfs ()
let test_alloc_free_staged () = alloc_free `Staged ()
let test_alloc_free_loop () = alloc_free `Loop ()

(* ---------- fault-free traffic statistics are policy-independent ---------- *)

(* Without failures no call is ever severed, so path choice cannot feed
   back into the event stream: accept/block is pure reachability and the
   RNG draw sequence is identical under every deterministic policy.  The
   whole stats record must therefore be bit-identical. *)
let test_fault_free_policy_identity () =
  let net = Benes.create 16 in
  let run policy =
    let config =
      Traffic.config ~load:6.0 ~policy
        ~stop:(Traffic.Calls { warmup = 100; measured = 1500 })
        ()
    in
    Traffic.run ~rng:(Rng.create ~seed:97) ~config net
  in
  let s_greedy = run Traffic.Route_greedy in
  let s_staged = run Traffic.Route_staged in
  let s_loop = run Traffic.Route_loop in
  checkb "served > 0" true (s_greedy.Traffic.served > 0);
  checkb "staged stats = greedy stats" true (s_staged = s_greedy);
  checkb "loop stats = greedy stats" true (s_loop = s_greedy)

(* ---------- router_name resolver ---------- *)

let test_router_name () =
  let benes = Benes.create 16 in
  let cfg policy = Traffic.config ~policy () in
  checks "loop policy on benes" "loop"
    (Traffic.router_name (cfg Traffic.Route_loop) benes);
  checks "staged policy on benes" "staged"
    (Traffic.router_name (cfg Traffic.Route_staged) benes);
  checks "greedy policy" "bfs"
    (Traffic.router_name (cfg Traffic.Route_greedy) benes);
  let xbar = Crossbar.square 4 in
  checks "loop policy on crossbar degrades" "staged"
    (Traffic.router_name (cfg Traffic.Route_loop) xbar)

(* ---------- qcheck: random masks keep the engines agreeing ---------- *)

let qcheck_mask_agreement =
  QCheck2.Test.make ~count:30
    ~name:"staged/loop verdicts match bfs under random masks"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 60))
    (fun (seed, per_mille) ->
      let net = Benes.create 8 in
      let g = net.Network.graph in
      let nv = Digraph.vertex_count g in
      let buf = Array.make nv 0 in
      let edge_ok = fault_mask ~seed ~per_mille g in
      let mk engine = Greedy.create ~edge_ok ~engine net in
      let r_bfs = mk `Bfs and r_st = mk `Staged and r_lp = mk `Loop in
      let ok = ref true in
      Array.iter
        (fun src ->
          Array.iter
            (fun dst ->
              let probe r =
                let len = Greedy.route_into r ~input:src ~output:dst ~buf in
                if len >= 0 then Greedy.release_buf r buf ~len;
                len
              in
              let l0 = probe r_bfs and l1 = probe r_st and l2 = probe r_lp in
              if l0 <> l1 || l0 <> l2 then ok := false)
            net.Network.outputs)
        net.Network.inputs;
      !ok)

let () =
  Alcotest.run "ftcsn_fastroute"
    [
      ( "arena",
        [
          Alcotest.test_case "bit-identical to fill-based BFS" `Quick
            test_arena_bit_identity;
        ] );
      ( "engines",
        [
          Alcotest.test_case "agree on all registry families (n=8)" `Quick
            test_engine_agreement_n8;
          Alcotest.test_case "agree on all registry families (n=16)" `Quick
            test_engine_agreement_n16;
          Alcotest.test_case "staged agrees along busy sequences" `Quick
            test_busy_sequence_staged;
          Alcotest.test_case "loop agrees along busy sequences" `Quick
            test_busy_sequence_loop;
          Alcotest.test_case "fallback resolution" `Quick test_engine_fallbacks;
          Alcotest.test_case "loop fallbacks hand out CSR-rule switches"
            `Quick test_fallback_edges;
          Alcotest.test_case "loop accepts exactly the Beneš layout" `Quick
            test_layout_acceptance;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "bfs call path is allocation-free" `Quick
            test_alloc_free_bfs;
          Alcotest.test_case "staged call path is allocation-free" `Quick
            test_alloc_free_staged;
          Alcotest.test_case "loop call path is allocation-free" `Quick
            test_alloc_free_loop;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "fault-free stats are policy-independent" `Quick
            test_fault_free_policy_identity;
          Alcotest.test_case "router_name resolves fallbacks" `Quick
            test_router_name;
        ] );
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_mask_agreement; qcheck_tree_identity ] );
    ]
