(* Tests for the million-switch scale layer: Dyn_conn incremental
   connectivity against batch oracles, Shard partitions, the byte-packed
   Fault_mask against the array mask it replaced, the single-shard
   bit-identity pin of the rewritten Traffic engine against the frozen
   Traffic_ref copy, determinism/conservation of the sharded mode, the
   thinning pins of its per-shard fault clocks, and its statistical
   equivalence with the unsharded engine. *)

module Rng = Ftcsn_prng.Rng
module Digraph = Ftcsn_graph.Digraph
module Traverse = Ftcsn_graph.Traverse
module Union_find = Ftcsn_util.Union_find
module Dyn_conn = Ftcsn_reliability.Dyn_conn
module Network = Ftcsn_networks.Network
module Topology = Ftcsn_networks.Topology
module Benes = Ftcsn_networks.Benes
module Shard = Ftcsn_des.Shard
module Fault_mask = Ftcsn_des.Fault_mask
module Batch_means = Ftcsn_des.Batch_means
module Metrics = Ftcsn_obs.Metrics
module Counter = Ftcsn_obs.Counter
module Traffic = Ftcsn_des.Traffic

let checkb = Alcotest.(check bool)
let check = Alcotest.(check int)

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

(* ---------- Dyn_conn vs a from-scratch union-find oracle ---------- *)

(* the oracle is the engine's old terminals_shorted: a fresh union-find
   over the currently-closed edge set *)
let oracle_shorted g closed terminals =
  let uf = Union_find.create (Digraph.vertex_count g) in
  Array.iteri
    (fun e c ->
      if c then begin
        let u, v = Digraph.edge_endpoints g e in
        Union_find.union uf u v
      end)
    closed;
  let seen = Hashtbl.create 16 in
  List.exists
    (fun t ->
      let c = Union_find.find uf t in
      if Hashtbl.mem seen c then true
      else begin
        Hashtbl.add seen c ();
        false
      end)
    terminals

let oracle_connected g closed a b =
  let uf = Union_find.create (Digraph.vertex_count g) in
  Array.iteri
    (fun e c ->
      if c then begin
        let u, v = Digraph.edge_endpoints g e in
        Union_find.union uf u v
      end)
    closed;
  Union_find.equiv uf a b

(* random close/reopen sequence, checked against the oracle after every
   operation — exercises the epoch-rebuild path (reopen dirties, the
   next query flushes) on every registry family *)
let dyn_conn_agrees (name, net) seed ops =
  let g = net.Network.graph in
  let n = Digraph.vertex_count g and m = Digraph.edge_count g in
  let terminals = Network.terminals net in
  let rng = Rng.create ~seed in
  let dc = Dyn_conn.create ~terminals g in
  let closed = Array.make m false in
  let nclosed = ref 0 in
  for step = 1 to ops do
    (* bias towards closing so shorts actually appear *)
    let close = !nclosed = 0 || Rng.int rng 3 > 0 in
    if close then begin
      let e = Rng.int rng m in
      if not closed.(e) then begin
        closed.(e) <- true;
        incr nclosed;
        Dyn_conn.close dc e
      end
    end
    else begin
      (* reopen a uniformly-drawn closed edge *)
      let k = Rng.int rng !nclosed in
      let picked = ref (-1) and seen = ref 0 in
      Array.iteri
        (fun e c ->
          if c && !picked < 0 then begin
            if !seen = k then picked := e;
            incr seen
          end)
        closed;
      closed.(!picked) <- false;
      decr nclosed;
      Dyn_conn.reopen dc !picked
    end;
    let want = oracle_shorted g closed terminals in
    if Dyn_conn.terminals_shorted dc <> want then
      Alcotest.failf "%s: terminals_shorted diverged at step %d (seed %d)"
        name step seed;
    let a = Rng.int rng n and b = Rng.int rng n in
    if Dyn_conn.connected dc a b <> oracle_connected g closed a b then
      Alcotest.failf "%s: connected %d %d diverged at step %d (seed %d)"
        name a b step seed
  done;
  check (name ^ ": closed_count") !nclosed (Dyn_conn.closed_count dc)

let test_dyn_conn_oracle () =
  let nets = registry_nets ~n:8 in
  checkb "registry nonempty" true (nets <> []);
  List.iter
    (fun nn ->
      dyn_conn_agrees nn 11 120;
      dyn_conn_agrees nn 12 120)
    nets

let test_dyn_conn_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Dyn_conn = batch oracle (benes, random ops)"
       ~count:60
       QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 200))
       (fun (seed, ops) ->
         let net = Benes.create 8 in
         dyn_conn_agrees ("benes:8", net) seed ops;
         true))

(* ---------- Shard partitions ---------- *)

let test_shard_partition () =
  let nets = registry_nets ~n:8 in
  List.iter
    (fun (name, net) ->
      let m = Digraph.edge_count net.Network.graph in
      let r = Shard.regions net in
      checkb (name ^ ": regions >= 1") true (r >= 1);
      List.iter
        (fun shards ->
          if shards <= r then begin
            let b = Shard.partition net ~shards in
            check (name ^ ": bytes per edge") m (Bytes.length b);
            let seen = Array.make shards 0 in
            for e = 0 to m - 1 do
              let s = Shard.shard_of b e in
              checkb (name ^ ": id in range") true (s >= 0 && s < shards);
              seen.(s) <- seen.(s) + 1
            done;
            Array.iteri
              (fun s c ->
                checkb (Printf.sprintf "%s: shard %d nonempty" name s) true
                  (c > 0))
              seen
          end)
        [ 1; 2; 3; 5 ];
      (match Shard.partition net ~shards:(r + 1) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: shards > regions should be refused" name);
      match Shard.partition net ~shards:0 with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "shards = 0 should be refused")
    nets

(* the boxed-Queue Kahn pass that [Traverse.topological_order] (behind
   [Shard.partition]'s levels) replaced, kept as its oracle *)
let queue_topological_order ~edge_ok g =
  let n = Digraph.vertex_count g in
  let indeg = Array.make n 0 in
  Digraph.iter_edges g (fun ~eid ~src:_ ~dst ->
      if edge_ok eid then indeg.(dst) <- indeg.(dst) + 1);
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let order = Array.make n (-1) in
  let filled = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order.(!filled) <- v;
    incr filled;
    Digraph.iter_out g v (fun ~dst ~eid ->
        if edge_ok eid then begin
          indeg.(dst) <- indeg.(dst) - 1;
          if indeg.(dst) = 0 then Queue.add dst queue
        end)
  done;
  if !filled = n then Some order else None

let test_topological_order () =
  let cases =
    [
      ("all edges", fun _ -> true);
      ("every third edge cut", fun e -> e mod 3 <> 0);
    ]
  in
  List.iter
    (fun (name, net) ->
      let g = net.Network.graph in
      List.iter
        (fun (what, edge_ok) ->
          if
            Traverse.topological_order ~edge_ok g
            <> queue_topological_order ~edge_ok g
          then
            Alcotest.failf "%s (%s): order diverged from the Queue pass" name
              what)
        cases)
    (registry_nets ~n:8 @ registry_nets ~n:16);
  let cyc = Digraph.of_edges ~n:3 [| (0, 1); (1, 2); (2, 0) |] in
  checkb "cycle has no order" true
    (Traverse.topological_order cyc = None
    && queue_topological_order ~edge_ok:(fun _ -> true) cyc = None)

(* ---------- Fault_mask vs the state-array mask ---------- *)

(* random fail/repair sequence; after every step the mask's predicates
   must agree with the definitions the engines used to evaluate over a
   [Fault.state array], a terminal flag array and faulty-degree counts *)
let test_fault_mask () =
  List.iter
    (fun (name, net) ->
      let g = net.Network.graph in
      let n = Digraph.vertex_count g and m = Digraph.edge_count g in
      let is_terminal = Array.make n false in
      List.iter (fun v -> is_terminal.(v) <- true) (Network.terminals net);
      let state = Array.make m `Normal and deg = Array.make n 0 in
      let mask = Fault_mask.create net in
      let allowed = Fault_mask.allowed mask
      and edge_ok = Fault_mask.edge_ok mask in
      let bump e d =
        let u, v = Digraph.edge_endpoints g e in
        deg.(u) <- deg.(u) + d;
        if v <> u then deg.(v) <- deg.(v) + d
      in
      let rng = Rng.create ~seed:7 in
      for step = 1 to 300 do
        let e = Rng.int rng m in
        (match state.(e) with
        | `Normal ->
            let closed = Rng.bool rng in
            state.(e) <- (if closed then `Closed else `Open);
            Fault_mask.fail mask e ~closed;
            bump e 1
        | `Open | `Closed ->
            state.(e) <- `Normal;
            Fault_mask.repair mask e;
            bump e (-1));
        for v = 0 to n - 1 do
          if allowed v <> (is_terminal.(v) || deg.(v) = 0) then
            Alcotest.failf "%s: allowed %d diverged at step %d" name v step
        done;
        for e = 0 to m - 1 do
          if
            edge_ok e <> (state.(e) = `Normal)
            || Fault_mask.is_normal mask e <> (state.(e) = `Normal)
            || Fault_mask.is_closed mask e <> (state.(e) = `Closed)
          then Alcotest.failf "%s: switch %d diverged at step %d" name e step
        done
      done)
    (registry_nets ~n:8)

(* ---------- single-shard bit-identity against Traffic_ref ---------- *)

let test_bit_identity_run () =
  let nets = registry_nets ~n:16 in
  List.iter
    (fun (name, net) ->
      List.iter
        (fun (policy, seed) ->
          let config =
            Traffic.config ~load:4.0 ~mtbf:50.0 ~mttr:5.0 ~policy
              ~stop:(Traffic.Calls { warmup = 100; measured = 400 })
              ~batches:4 ()
          in
          let s_new = Traffic.run ~rng:(Rng.create ~seed) ~config net in
          let s_ref = Traffic_ref.run ~rng:(Rng.create ~seed) ~config net in
          if s_new <> s_ref then
            Alcotest.failf "%s: run diverged from Traffic_ref (seed %d)" name
              seed)
        [
          (Traffic.Route_greedy, 42);
          (Traffic.Route_greedy, 1337);
          (Traffic.Route_rearrange 20_000, 42);
        ])
    nets

let test_bit_identity_saturate () =
  let net = Benes.create 16 in
  let config =
    Traffic.config ~load:0.5 ~mtbf:30.0 ~mttr:3.0 ~saturate:true
      ~stop_on_degradation:true
      ~stop:(Traffic.Horizon 400.0) ()
  in
  List.iter
    (fun seed ->
      let s_new = Traffic.run ~rng:(Rng.create ~seed) ~config net in
      let s_ref = Traffic_ref.run ~rng:(Rng.create ~seed) ~config net in
      if s_new <> s_ref then
        Alcotest.failf "saturated run diverged from Traffic_ref (seed %d)"
          seed)
    [ 1; 2; 3; 4; 5 ]

let test_bit_identity_estimate () =
  let net = Benes.create 16 in
  let config =
    Traffic.config ~load:4.0 ~mtbf:50.0 ~mttr:5.0
      ~stop:(Traffic.Calls { warmup = 100; measured = 400 })
      ~batches:4 ()
  in
  let reference =
    Traffic_ref.estimate ~trials:6 ~rng:(Rng.create ~seed:9) ~config net
  in
  List.iter
    (fun jobs ->
      let s =
        Traffic.estimate ~jobs ~trials:6 ~rng:(Rng.create ~seed:9) ~config
          net
      in
      if s <> reference then
        Alcotest.failf "estimate diverged from Traffic_ref at jobs=%d" jobs)
    [ 1; 2; 4 ]

(* ---------- sharded mode: determinism and conservation ---------- *)

let shard_config ~shards ~shard_jobs =
  Traffic.config ~load:2.0 ~mtbf:20.0 ~mttr:2.0 ~shards ~shard_jobs
    ~stop:(Traffic.Horizon 150.0) ()

let test_sharded_deterministic () =
  let net = Benes.create 16 in
  let r = Shard.regions net in
  checkb "benes:16 has several regions" true (r >= 2);
  let shards = min 3 r in
  let baseline =
    Traffic.run ~rng:(Rng.create ~seed:77)
      ~config:(shard_config ~shards ~shard_jobs:1)
      net
  in
  (* repeatable, and identical at every shard_jobs *)
  List.iter
    (fun shard_jobs ->
      let s =
        Traffic.run ~rng:(Rng.create ~seed:77)
          ~config:(shard_config ~shards ~shard_jobs)
          net
      in
      if s <> baseline then
        Alcotest.failf "sharded run diverged at shard_jobs=%d" shard_jobs)
    [ 1; 2; 4 ];
  (* and under the Trials fan-out, at every jobs *)
  let est jobs =
    Traffic.estimate ~jobs ~trials:4 ~rng:(Rng.create ~seed:78)
      ~config:(shard_config ~shards ~shard_jobs:2)
      net
  in
  let e1 = est 1 in
  List.iter
    (fun jobs ->
      if est jobs <> e1 then
        Alcotest.failf "sharded estimate diverged at jobs=%d" jobs)
    [ 2; 4 ]

let test_sharded_conservation () =
  let net = Benes.create 16 in
  let shards = min 3 (Shard.regions net) in
  let s =
    Traffic.run ~rng:(Rng.create ~seed:5)
      ~config:(shard_config ~shards ~shard_jobs:2)
      net
  in
  checkb "events happened" true (s.Traffic.events > 0);
  checkb "failures happened" true (s.Traffic.failures > 0);
  checkb "repairs happened" true (s.Traffic.repairs > 0);
  check "offered conserved" s.Traffic.offered
    (s.Traffic.served + s.Traffic.blocked);
  checkb "blocked_full within blocked" true
    (s.Traffic.blocked_full <= s.Traffic.blocked);
  checkb "rerouted within dropped" true
    (s.Traffic.rerouted <= s.Traffic.dropped);
  checkb "repairs within failures" true
    (s.Traffic.repairs <= s.Traffic.failures);
  checkb "occupancy positive" true (s.Traffic.occupancy > 0.0);
  (* the run spans the full horizon unless a closed-failure catastrophe
     (a legitimate outcome at this failure intensity) ended it early *)
  checkb "sim time reached horizon or catastrophe" true
    (s.Traffic.sim_time = 150.0 || s.Traffic.catastrophe_at <> None)

(* ---------- sharded fault clocks: thinning pins ---------- *)

(* Four disjoint chains of [len] switches from one input to one output:
   [len] levels to shard, and a catastrophe needs a whole chain closed
   at once, so at len = 12 a run practically never ends early. *)
let chains ~len =
  let k = 4 in
  (* vertex 0 = input, 1 = output, chain c's j-th inner vertex =
     2 + c * (len - 1) + j *)
  let inner c j = 2 + (c * (len - 1)) + j in
  let edges =
    List.concat_map
      (fun c ->
        List.init len (fun j ->
            let src = if j = 0 then 0 else inner c (j - 1) in
            let dst = if j = len - 1 then 1 else inner c j in
            (src, dst)))
      (List.init k Fun.id)
  in
  let graph =
    Digraph.of_edges ~n:(2 + (k * (len - 1))) (Array.of_list edges)
  in
  Network.make ~name:"chains" ~graph ~inputs:[| 0 |] ~outputs:[| 1 |]

(* With no calls, every event is a failure or a repair — a thinned
   firing (its drawn switch was already failed) must not be counted.
   At mtbf = mttr half the switches are down, so about half of the
   roughly 40 m firings are thinned. *)
let test_thinning_counts () =
  let net = chains ~len:12 in
  let config =
    Traffic.config ~load:0.0 ~mtbf:1.0 ~mttr:1.0 ~shards:4
      ~stop:(Traffic.Horizon 40.0) ()
  in
  List.iter
    (fun seed ->
      let s = Traffic.run ~rng:(Rng.create ~seed) ~config net in
      checkb "failures happened" true (s.Traffic.failures > 0);
      check
        (Printf.sprintf "events = failures + repairs (seed %d)" seed)
        s.Traffic.events
        (s.Traffic.failures + s.Traffic.repairs))
    [ 1; 2; 3 ]

(* With permanent failures each switch fails at most once, although the
   shard clocks keep firing long after: over 40 mtbf the clocks fire
   about 40 m times, and all but m of those firings must be thinned. *)
let test_thinning_permanent () =
  let net = chains ~len:12 in
  let m = Digraph.edge_count net.Network.graph in
  let config =
    Traffic.config ~load:0.0 ~mtbf:1.0 ~mttr:infinity ~shards:4
      ~stop:(Traffic.Horizon 40.0) ()
  in
  List.iter
    (fun seed ->
      let s = Traffic.run ~rng:(Rng.create ~seed) ~config net in
      let tag = Printf.sprintf " (seed %d)" seed in
      check ("no repairs" ^ tag) 0 s.Traffic.repairs;
      checkb ("failures <= m" ^ tag) true (s.Traffic.failures <= m);
      check ("events = failures" ^ tag) s.Traffic.failures s.Traffic.events;
      (* every switch is down long before the horizon *)
      if s.Traffic.catastrophe_at = None then
        check ("every switch failed once" ^ tag) m s.Traffic.failures)
    [ 1; 2; 3 ]

(* ---------- sharded vs unsharded: statistical equivalence ---------- *)

(* Per-shard thinned clocks are exact for exponential clocks, so the
   sharded engine's fault process must have the unsharded law: over a
   window of length T each of the m switches alternates up (mean mtbf)
   and down (mean mttr), giving m T / (mtbf + mttr) failures in
   expectation (the start-up transient here is below 0.01 failures),
   with a variance at most the mean; each failure is closed with
   probability 1/2.  The call statistics differ only through the
   sharded mode's reroute-at-commit, so their intervals must overlap
   the unsharded ones. *)
let test_sharded_equivalence () =
  let net = Benes.create 64 in
  let m = float_of_int (Digraph.edge_count net.Network.graph) in
  let mtbf = 200.0 and mttr = 0.5 in
  let seeds = List.init 10 (fun i -> 100 + i) in
  let z = 3.29 in
  let closed = Metrics.counter Metrics.default "traffic.closed_failures" in
  let sample shards =
    let runs =
      List.map
        (fun seed ->
          let c0 = Counter.get closed in
          let s =
            Traffic.run ~rng:(Rng.create ~seed)
              ~config:
                (Traffic.config ~load:24.0 ~mtbf ~mttr ~shards
                   ~policy:Traffic.Route_loop ~stop:(Traffic.Horizon 200.0)
                   ())
              net
          in
          (s, Counter.get closed - c0))
        seeds
    in
    let sum f = List.fold_left (fun a r -> a + f r) 0 runs in
    let failures = sum (fun (s, _) -> s.Traffic.failures)
    and closed = sum snd
    and span =
      List.fold_left (fun a (s, _) -> a +. s.Traffic.sim_time) 0.0 runs
    in
    let tag = Printf.sprintf "shards=%d" shards in
    let expect = m *. span /. (mtbf +. mttr) in
    let zf = (float_of_int failures -. expect) /. sqrt expect in
    if Float.abs zf > z then
      Alcotest.failf "%s: %d failures, expected %.1f (z = %.2f)" tag failures
        expect zf;
    let nf = float_of_int failures in
    let zc = (float_of_int closed -. (nf /. 2.0)) /. sqrt (nf /. 4.0) in
    if Float.abs zc > z then
      Alcotest.failf "%s: %d of %d failures closed (z = %.2f)" tag closed
        failures zc;
    let ci f =
      Batch_means.of_means (Array.of_list (List.map (fun (s, _) -> f s) runs))
    in
    (ci (fun s -> s.Traffic.blocking), ci (fun s -> s.Traffic.occupancy))
  in
  let blocking1, occupancy1 = sample 1 in
  checkb "calls were blocked" true (blocking1.Batch_means.mean > 0.0);
  List.iter
    (fun shards ->
      let blocking, occupancy = sample shards in
      let overlap what (a : Batch_means.summary) (b : Batch_means.summary) =
        if not (a.ci_low <= b.ci_high && b.ci_low <= a.ci_high) then
          Alcotest.failf
            "shards=%d: %s interval [%g, %g] misses the unsharded [%g, %g]"
            shards what a.ci_low a.ci_high b.ci_low b.ci_high
      in
      overlap "blocking" blocking blocking1;
      overlap "occupancy" occupancy occupancy1)
    [ 2; 4; 8 ]

let test_sharded_refusal () =
  let net = Benes.create 16 in
  let r = Shard.regions net in
  let config = shard_config ~shards:(r + 1) ~shard_jobs:1 in
  (match Traffic.run ~rng:(Rng.create ~seed:1) ~config net with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shards > regions should be refused by run");
  match Traffic.config ~shards:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "config shards=0 should be refused"

let () =
  Alcotest.run "ftcsn_scale"
    [
      ( "dyn_conn",
        [
          Alcotest.test_case "oracle agreement on every family" `Quick
            test_dyn_conn_oracle;
          test_dyn_conn_qcheck;
        ] );
      ( "shard",
        [
          Alcotest.test_case "partition properties" `Quick test_shard_partition;
          Alcotest.test_case "topological order = Queue Kahn on every family"
            `Quick test_topological_order;
        ] );
      ( "fault mask",
        [ Alcotest.test_case "= state-array mask on every family" `Quick
            test_fault_mask ] );
      ( "bit identity",
        [
          Alcotest.test_case "run = Traffic_ref.run on every family" `Quick
            test_bit_identity_run;
          Alcotest.test_case "saturated degradation runs" `Quick
            test_bit_identity_saturate;
          Alcotest.test_case "estimate = Traffic_ref.estimate at every jobs"
            `Quick test_bit_identity_estimate;
        ] );
      ( "sharded mode",
        [
          Alcotest.test_case "deterministic at every shard_jobs/jobs" `Quick
            test_sharded_deterministic;
          Alcotest.test_case "conservation laws" `Quick
            test_sharded_conservation;
          Alcotest.test_case "refuses shards > regions" `Quick
            test_sharded_refusal;
          Alcotest.test_case "thinned firings are not counted" `Quick
            test_thinning_counts;
          Alcotest.test_case "permanent failures hit each switch once"
            `Quick test_thinning_permanent;
          Alcotest.test_case "statistically equivalent to shards=1" `Quick
            test_sharded_equivalence;
        ] );
    ]
