(* Tests for the discrete-event traffic engine (lib/des): event-queue
   ordering, stochastic primitives, batch-means intervals, and the
   Traffic engine itself — conservation laws, Little's law, determinism
   across the Trials fan-out, and agreement with the Erlang-B formula on
   a crossbar (a true M/M/c/c loss system). *)

module Rng = Ftcsn_prng.Rng
module Heap = Ftcsn_des.Heap
module Dist = Ftcsn_des.Dist
module Batch_means = Ftcsn_des.Batch_means
module Traffic = Ftcsn_des.Traffic
module Crossbar = Ftcsn_networks.Crossbar
module Benes = Ftcsn_networks.Benes
module Network = Ftcsn_networks.Network
module Topology = Ftcsn_networks.Topology
module Digraph = Ftcsn_graph.Digraph
module Greedy = Ftcsn_routing.Greedy
module Backtrack = Ftcsn_routing.Backtrack
module Calls = Ftcsn_des.Calls
module Fault_mask = Ftcsn_des.Fault_mask

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* ---------- Heap ---------- *)

let test_heap_order () =
  let h = Heap.create ~dummy:(-1) () in
  checkb "starts empty" true (Heap.is_empty h);
  let rng = Rng.create ~seed:42 in
  let n = 500 in
  let entries =
    Array.init n (fun i ->
        (* coarse times force plenty of exact ties *)
        (float_of_int (Rng.int rng 20), i))
  in
  Array.iter (fun (t, i) -> Heap.push h ~time:t i) entries;
  check "size" n (Heap.size h);
  let prev_t = ref neg_infinity and prev_i = ref (-1) in
  for _ = 1 to n do
    let t = Heap.min_time h in
    let i = Heap.pop h in
    checkb "times nondecreasing" true (t >= !prev_t);
    if t = !prev_t then
      (* stability: same-time events pop in push order *)
      checkb "FIFO within a timestamp" true (i > !prev_i);
    prev_t := t;
    prev_i := i
  done;
  checkb "drained" true (Heap.is_empty h)

let test_heap_validation () =
  let h = Heap.create ~dummy:0 () in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () -> Heap.push h ~time:nan 1);
  raises (fun () -> Heap.push h ~time:infinity 1);
  raises (fun () -> Heap.pop h);
  raises (fun () -> Heap.min_time h);
  Heap.push h ~time:1.0 7;
  Heap.clear h;
  checkb "clear empties" true (Heap.is_empty h)

(* ---------- Dist ---------- *)

let sample_mean rng dist n =
  let s = ref 0.0 in
  for _ = 1 to n do
    s := !s +. Dist.holding_time rng dist
  done;
  !s /. float_of_int n

let test_dist_means () =
  let rng = Rng.create ~seed:7 in
  let m_exp = sample_mean rng Dist.Exponential 20_000 in
  checkb "exponential unit mean" true (abs_float (m_exp -. 1.0) < 0.03);
  let m_par = sample_mean rng (Dist.Pareto 2.5) 20_000 in
  checkb "pareto rescaled to unit mean" true (abs_float (m_par -. 1.0) < 0.06)

let test_dist_parse () =
  (match Dist.holding_of_string "exp" with
  | Ok Dist.Exponential -> ()
  | _ -> Alcotest.fail "exp should parse");
  (match Dist.holding_of_string "pareto:2.5" with
  | Ok (Dist.Pareto a) -> checkf "alpha" 2.5 a
  | _ -> Alcotest.fail "pareto:2.5 should parse");
  (match Dist.holding_of_string "pareto:1.0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "alpha <= 1 has no mean; must be rejected");
  (match Dist.holding_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus must be rejected");
  Alcotest.(check string)
    "pp roundtrip" "pareto:2.5"
    (Format.asprintf "%a" Dist.pp_holding (Dist.Pareto 2.5))

(* ---------- Batch_means ---------- *)

let test_batch_means_basic () =
  let bm = Batch_means.create ~batches:5 ~total:100 in
  for i = 1 to 100 do
    Batch_means.add bm (float_of_int i)
  done;
  check "count" 100 (Batch_means.count bm);
  let ms = Batch_means.means bm in
  check "five batches" 5 (Array.length ms);
  checkf "first batch mean" 10.5 ms.(0);
  let s = Batch_means.summary bm in
  checkf "grand mean" 50.5 s.Batch_means.mean;
  check "summary count" 100 s.Batch_means.count;
  checkb "interval brackets the mean" true
    (s.Batch_means.ci_low < 50.5 && 50.5 < s.Batch_means.ci_high)

let test_batch_means_constant () =
  let bm = Batch_means.create ~batches:4 ~total:40 in
  for _ = 1 to 40 do
    Batch_means.add bm 3.0
  done;
  let s = Batch_means.summary bm in
  checkf "mean" 3.0 s.Batch_means.mean;
  checkf "zero-width low" 3.0 s.Batch_means.ci_low;
  checkf "zero-width high" 3.0 s.Batch_means.ci_high

let test_of_means_and_quantile () =
  let s = Batch_means.of_means ~count:400 [| 1.0; 2.0; 3.0; 4.0 |] in
  checkf "pooled mean" 2.5 s.Batch_means.mean;
  check "batches" 4 s.Batch_means.batches;
  check "count" 400 s.Batch_means.count;
  checkb "t(3) = 3.182" true
    (abs_float (Batch_means.t_quantile ~df:3 -. 3.182) < 1e-9);
  checkb "t(1000) -> normal limit" true
    (abs_float (Batch_means.t_quantile ~df:1000 -. 1.96) < 1e-9)

(* ---------- Traffic: conservation laws ---------- *)

let test_traffic_conservation () =
  let net = Benes.create 8 in
  let config =
    Traffic.config ~load:2.0 ~mtbf:2000.0 ~mttr:2.0
      ~stop:(Traffic.Horizon 200.0) ()
  in
  let s = Traffic.run ~rng:(Rng.create ~seed:10) ~config net in
  checkb "events happened" true (s.Traffic.events > 0);
  checkb "traffic flowed" true (s.Traffic.served > 50);
  check "offered conserved" s.Traffic.offered
    (s.Traffic.served + s.Traffic.blocked);
  checkb "blocked_full within blocked" true
    (s.Traffic.blocked_full <= s.Traffic.blocked);
  checkb "rerouted within dropped" true
    (s.Traffic.rerouted <= s.Traffic.dropped);
  checkb "repairs within failures" true
    (s.Traffic.repairs <= s.Traffic.failures);
  checkb "failures happened" true (s.Traffic.failures > 0);
  checkb "repairs happened" true (s.Traffic.repairs > 0);
  checkb "occupancy positive" true (s.Traffic.occupancy > 0.0);
  checkb "max_concurrent sane" true
    (s.Traffic.max_concurrent >= 1 && s.Traffic.max_concurrent <= 8)

(* Little's law: on the measured window, time-average occupancy L must
   match the carried load lambda * W-bar computed from holding times *)
let test_traffic_little () =
  let net = Crossbar.square 4 in
  let config =
    Traffic.config ~load:2.0
      ~stop:(Traffic.Calls { warmup = 500; measured = 20_000 })
      ()
  in
  let s = Traffic.run ~rng:(Rng.create ~seed:5) ~config net in
  checkb "occupancy matches carried (Little)" true
    (abs_float (s.Traffic.occupancy -. s.Traffic.carried)
    < 0.05 *. s.Traffic.carried);
  checkb "occupancy below server count" true (s.Traffic.occupancy < 4.0)

(* ---------- Traffic: Erlang-B validation ---------- *)

(* B(c, a) by the standard recurrence *)
let erlang_b ~servers ~load =
  let b = ref 1.0 in
  for k = 1 to servers do
    b := load *. !b /. (float_of_int k +. (load *. !b))
  done;
  !b

(* An n x n crossbar under Poisson arrivals to uniformly random idle
   pairs is a true M/M/c/c loss system with c = n: the simulated blocking
   must agree with the Erlang-B formula within the reported 95% CI. *)
let test_traffic_erlang_b () =
  let net = Crossbar.square 4 in
  List.iter
    (fun load ->
      let config =
        Traffic.config ~load
          ~stop:(Traffic.Calls { warmup = 500; measured = 10_000 })
          ()
      in
      let s =
        Traffic.estimate ~jobs:1 ~trials:4 ~rng:(Rng.create ~seed:10) ~config
          net
      in
      let b = erlang_b ~servers:4 ~load in
      let ci = s.Traffic.blocking in
      if not (ci.Batch_means.ci_low <= b && b <= ci.Batch_means.ci_high) then
        Alcotest.failf
          "load %g: Erlang-B %.5f outside reported CI [%.5f, %.5f] (mean %.5f)"
          load b ci.Batch_means.ci_low ci.Batch_means.ci_high
          ci.Batch_means.mean;
      (* every loss in a crossbar is a system-full loss: the network
         itself is strictly nonblocking *)
      check "no nonblocking violations" s.Traffic.t_blocked
        s.Traffic.t_blocked_full)
    [ 2.0; 0.8 ]

(* ---------- Traffic: saturation, degradation, catastrophe ---------- *)

let test_traffic_saturate_degrade () =
  (* saturated identity calls on a crossbar, aggressive permanent
     failures: the first failure either severs an unreroutable identity
     call (open) or contracts a terminal pair (closed) — the run must
     stop and say which *)
  let net = Crossbar.square 4 in
  let config =
    Traffic.config ~load:0.0 ~mtbf:1.0 ~mttr:infinity
      ~stop:(Traffic.Horizon 1000.0) ~saturate:true ~stop_on_degradation:true
      ()
  in
  let s = Traffic.run ~rng:(Rng.create ~seed:2) ~config net in
  check "saturation placed the identity calls" 4 s.Traffic.served;
  checkb "failures occurred" true (s.Traffic.failures >= 1);
  checkb "run ended in degradation or catastrophe" true
    (s.Traffic.degraded_at <> None || s.Traffic.catastrophe_at <> None);
  (match (s.Traffic.degraded_at, s.Traffic.catastrophe_at) with
  | Some t, _ | None, Some t ->
      checkb "stop time within horizon" true (t > 0.0 && t < 1000.0)
  | None, None -> ())

(* one horizon-stopped replication records no batches: its blocking
   interval is undefined (nan, written as JSON null), not [mean, mean];
   two replications give a real interval *)
(* a proportion's interval: the Student-t bounds of near-0 (near-1)
   batch means reach below 0 (above 1) unless clipped *)
let test_blocking_ci_clipped () =
  let net = Crossbar.square 4 in
  let config = Traffic.config ~load:2.0 ~stop:(Traffic.Horizon 50.0) () in
  let s = Traffic.run ~rng:(Rng.create ~seed:4) ~config net in
  let ci means =
    (Traffic.summarize [ { s with Traffic.batch_blocking = means } ])
      .Traffic.blocking
  in
  let lo = ci [| 0.0; 0.0; 0.0; 0.0; 0.01 |] in
  checkf "low bound clipped to 0" 0.0 lo.Batch_means.ci_low;
  checkb "high bound kept" true
    (lo.Batch_means.ci_high > lo.Batch_means.mean
    && lo.Batch_means.ci_high < 1.0);
  let hi = ci [| 1.0; 1.0; 1.0; 1.0; 0.99 |] in
  checkf "high bound clipped to 1" 1.0 hi.Batch_means.ci_high;
  checkb "low bound kept" true (hi.Batch_means.ci_low > 0.0);
  match Traffic.summarize [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "summarize [] should be refused"

let test_single_replication_ci () =
  let net = Crossbar.square 4 in
  let config = Traffic.config ~load:2.0 ~stop:(Traffic.Horizon 200.0) () in
  let est trials =
    (Traffic.estimate ~jobs:1 ~trials ~rng:(Rng.create ~seed:4) ~config net)
      .Traffic.blocking
  in
  let one = est 1 in
  checkb "one replication: ci_low undefined" true
    (Float.is_nan one.Batch_means.ci_low);
  checkb "one replication: ci_high undefined" true
    (Float.is_nan one.Batch_means.ci_high);
  checkb "one replication: mean defined" true
    (Float.is_finite one.Batch_means.mean);
  Alcotest.(check string)
    "written as null" "null"
    (Ftcsn_obs.Json.to_string (Ftcsn_obs.Json.Float one.Batch_means.ci_low));
  let two = est 2 in
  checkb "two replications: finite interval" true
    (Float.is_finite two.Batch_means.ci_low
    && two.Batch_means.ci_low <= two.Batch_means.mean
    && two.Batch_means.mean <= two.Batch_means.ci_high)

let test_config_validation () =
  let rejects f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  rejects (fun () -> Traffic.config ~load:(-1.0) ());
  rejects (fun () -> Traffic.config ~batches:1 ());
  rejects (fun () -> Traffic.config ~mtbf:0.0 ());
  rejects (fun () -> Traffic.config ~mttr:0.0 ());
  rejects (fun () ->
      Traffic.config ~load:0.0
        ~stop:(Traffic.Calls { warmup = 10; measured = 100 })
        ());
  rejects (fun () -> Traffic.config ~stop:(Traffic.Horizon infinity) ())

(* ---------- Calls: the shared call table under random operations ---------- *)

(* recompute the table's derived state from its live paths and compare:
   vertex-disjoint paths from each call's input to its output over its
   recorded switches, [owner] and the router's busy set equal to their
   union, idle pools the complement of the live endpoints, and every
   live slot's key current *)
let calls_invariants (c : Calls.t) =
  let net = c.net in
  let g = net.Network.graph in
  let fail fmt = Alcotest.failf ("Calls invariant: " ^^ fmt) in
  let owner = Array.make (Digraph.vertex_count g) (-1) in
  let busy_in = Array.make (Network.n_inputs net) false
  and busy_out = Array.make (Network.n_outputs net) false in
  let live = Calls.live_slots c in
  if List.length live <> c.live_count then fail "live_count";
  List.iter
    (fun sl ->
      let p = c.c_path.(sl) and len = c.c_plen.(sl) in
      if
        p.(0) <> net.Network.inputs.(c.c_in.(sl))
        || p.(len - 1) <> net.Network.outputs.(c.c_out.(sl))
      then fail "slot %d's path does not join its endpoints" sl;
      for j = 0 to len - 1 do
        if owner.(p.(j)) >= 0 then fail "vertex %d on two live paths" p.(j);
        owner.(p.(j)) <- sl
      done;
      for j = 0 to len - 2 do
        let e = c.c_edges.(sl).(j) in
        if Digraph.edge_src g e <> p.(j) || Digraph.edge_dst g e <> p.(j + 1)
        then fail "slot %d hop %d: switch %d is not on the hop" sl j e
      done;
      busy_in.(c.c_in.(sl)) <- true;
      busy_out.(c.c_out.(sl)) <- true;
      if Calls.slot_of_key c (Calls.key c sl) <> sl then
        fail "slot %d's key is stale" sl)
    live;
  Array.iteri
    (fun v o ->
      if c.owner.(v) <> o then
        fail "owner.(%d) = %d, paths say %d" v c.owner.(v) o;
      if Greedy.busy c.router v <> (o >= 0) then fail "router busy at %d" v)
    owner;
  let pool_ok name (p : Calls.pool) busy =
    Array.iteri
      (fun x b -> if Calls.is_idle p x = b then fail "%s %d idle = live" name x)
      busy;
    if p.size <> Array.length busy - c.live_count then fail "%s size" name
  in
  pool_ok "input" c.idle_in busy_in;
  pool_ok "output" c.idle_out busy_out;
  if c.max_concurrent < c.live_count then fail "max_concurrent"

(* drive a table on [net] through [ops] random steps — place (buffer or
   list path), hang up by key, release a live call, fail a switch with
   sever/reroute, repair, re-lay every call — auditing after each *)
let calls_walk ~engine net seed ops =
  let rng = Rng.create ~seed in
  let mask = Fault_mask.create net in
  let c =
    Calls.create net
      ~router:
        (Greedy.create ~allowed:(Fault_mask.allowed mask)
           ~edge_ok:(Fault_mask.edge_ok mask) ~engine net)
  in
  let g = net.Network.graph in
  let m = Digraph.edge_count g in
  let keys = ref [] and failed = ref [] in
  let release sl =
    let k = Calls.key c sl in
    Calls.release c sl;
    if Calls.slot_of_key c k <> -1 then
      Alcotest.failf "slot %d: a released key still reads as live" sl
  in
  for _ = 1 to ops do
    (match Rng.int rng 7 with
    | (0 | 1) when c.idle_in.size > 0 && c.idle_out.size > 0 ->
        let i = Calls.draw rng c.idle_in in
        let o = Calls.draw rng c.idle_out in
        let len = Calls.route c ~i ~o in
        if len >= 0 then keys := Calls.key c (Calls.place c ~i ~o ~len) :: !keys
    | 2 when c.idle_in.size > 0 && c.idle_out.size > 0 -> (
        let i = Calls.draw rng c.idle_in in
        let o = Calls.draw rng c.idle_out in
        match
          Greedy.route c.router ~input:net.Network.inputs.(i)
            ~output:net.Network.outputs.(o)
        with
        | Some path ->
            keys := Calls.key c (Calls.place_list c ~i ~o path) :: !keys
        | None -> ())
    | 3 when !keys <> [] ->
        let k = List.nth !keys (Rng.int rng (List.length !keys)) in
        let sl = Calls.slot_of_key c k in
        if sl >= 0 then begin
          Calls.vacate c sl;
          release sl
        end
    | 4 ->
        let e = Rng.int rng m in
        if Fault_mask.is_normal mask e then begin
          Fault_mask.fail mask e ~closed:(Rng.bool rng);
          failed := e :: !failed;
          let u, v = Digraph.edge_endpoints g e in
          List.iter
            (fun x ->
              let sl = Calls.sever c ~e x in
              if sl >= 0 && not (Calls.reroute c sl) then release sl)
            (if u = v then [ u ] else [ u; v ])
        end
    | 5 when !failed <> [] ->
        let e = List.hd !failed in
        failed := List.tl !failed;
        Fault_mask.repair mask e
    | 6 -> (
        let live = Calls.live_slots c in
        let reqs =
          List.map
            (fun sl ->
              ( net.Network.inputs.(c.c_in.(sl)),
                net.Network.outputs.(c.c_out.(sl)) ))
            live
        in
        match
          Backtrack.route_all ~budget:200 ~allowed:(Fault_mask.allowed mask)
            ~edge_ok:(Fault_mask.edge_ok mask) net reqs
        with
        | Backtrack.Routed paths -> Calls.relay c live paths
        | Backtrack.Unroutable | Backtrack.Budget_exceeded -> ())
    | _ -> ());
    calls_invariants c
  done

let prop_calls_invariants =
  let nets =
    List.map
      (fun (spec, engine) ->
        match Topology.build_string ~rng:(Rng.create ~seed:5) spec with
        | Ok b -> (b.Topology.net, engine)
        | Error msg -> failwith msg)
      [ ("benes:16", `Loop); ("multibutterfly:16", `Bfs) ]
  in
  QCheck2.Test.make ~name:"Calls invariants under random operations"
    ~count:40
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 1 300))
    (fun (seed, ops) ->
      List.iter (fun (net, engine) -> calls_walk ~engine net seed ops) nets;
      true)

(* ---------- Traffic: determinism across the Trials fan-out ---------- *)

(* the full summary — floats included — must be bit-identical at every
   jobs count and with tracing on or off *)
let prop_estimate_deterministic =
  QCheck2.Test.make
    ~name:"Traffic.estimate bit-identical across jobs and tracing"
    ~count:6
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let net = Crossbar.square 4 in
      let config =
        Traffic.config ~load:2.0 ~mtbf:80.0 ~mttr:8.0
          ~stop:(Traffic.Calls { warmup = 50; measured = 300 })
          ~batches:5 ()
      in
      let go ~jobs ~traced =
        let run trace =
          Traffic.estimate ?trace ~jobs ~trials:3 ~rng:(Rng.create ~seed)
            ~config net
        in
        if traced then begin
          let sink, _events = Ftcsn_obs.Trace.memory () in
          let s = run (Some sink) in
          Ftcsn_obs.Trace.close sink;
          s
        end
        else run None
      in
      let reference = go ~jobs:1 ~traced:false in
      List.for_all
        (fun (jobs, traced) -> go ~jobs ~traced = reference)
        [ (1, true); (2, false); (4, false); (4, true) ])

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_estimate_deterministic ]

let () =
  Alcotest.run "ftcsn_des"
    [
      ( "heap",
        [
          Alcotest.test_case "stable (time, seq) order" `Quick test_heap_order;
          Alcotest.test_case "validation and clear" `Quick test_heap_validation;
        ] );
      ( "dist",
        [
          Alcotest.test_case "unit means" `Quick test_dist_means;
          Alcotest.test_case "CLI parsing" `Quick test_dist_parse;
        ] );
      ( "batch-means",
        [
          Alcotest.test_case "streaming batches" `Quick test_batch_means_basic;
          Alcotest.test_case "constant data" `Quick test_batch_means_constant;
          Alcotest.test_case "pooling and t-table" `Quick
            test_of_means_and_quantile;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "conservation laws" `Quick
            test_traffic_conservation;
          Alcotest.test_case "Little's law" `Slow test_traffic_little;
          Alcotest.test_case "Erlang-B on a crossbar" `Slow
            test_traffic_erlang_b;
          Alcotest.test_case "saturation degradation" `Quick
            test_traffic_saturate_degrade;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "single-replication CI is undefined" `Quick
            test_single_replication_ci;
          Alcotest.test_case "blocking CI clipped to [0, 1]" `Quick
            test_blocking_ci_clipped;
        ] );
      ("determinism", props);
      ("calls", [ QCheck_alcotest.to_alcotest prop_calls_invariants ]);
    ]
