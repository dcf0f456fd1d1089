module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Dyn_conn = Ftcsn_reliability.Dyn_conn
module Greedy = Ftcsn_routing.Greedy
module Backtrack = Ftcsn_routing.Backtrack
module Rng = Ftcsn_prng.Rng
module Trials = Ftcsn_sim.Trials
module Metrics = Ftcsn_obs.Metrics
module Counter = Ftcsn_obs.Counter

type stop = Horizon of float | Calls of { warmup : int; measured : int }

type policy =
  | Route_greedy
  | Route_rearrange of int
  | Route_staged
  | Route_loop

type config = {
  load : float;
  holding : Dist.holding;
  mtbf : float;
  mttr : float;
  stop : stop;
  batches : int;
  policy : policy;
  saturate : bool;
  stop_on_degradation : bool;
  shards : int;
  shard_jobs : int;
}

let config ?(load = 1.0) ?(holding = Dist.Exponential) ?(mtbf = infinity)
    ?(mttr = 10.0) ?(stop = Calls { warmup = 500; measured = 5000 })
    ?(batches = 10) ?(policy = Route_greedy) ?(saturate = false)
    ?(stop_on_degradation = false) ?(shards = 1) ?(shard_jobs = 1) () =
  if not (load >= 0.0 && load < infinity) then
    invalid_arg "Traffic.config: load must be finite and >= 0";
  if not (mtbf > 0.0) then invalid_arg "Traffic.config: mtbf must be > 0";
  if not (mttr > 0.0) then invalid_arg "Traffic.config: mttr must be > 0";
  if batches < 2 then invalid_arg "Traffic.config: need batches >= 2";
  if shards < 1 then invalid_arg "Traffic.config: need shards >= 1";
  if shards > Shard.max_shards then
    invalid_arg "Traffic.config: at most 255 shards";
  if shard_jobs < 1 then invalid_arg "Traffic.config: need shard_jobs >= 1";
  (match holding with
  | Dist.Pareto alpha when not (alpha > 1.0) ->
      invalid_arg "Traffic.config: pareto shape must be > 1"
  | _ -> ());
  (match policy with
  | Route_rearrange budget when budget <= 0 ->
      invalid_arg "Traffic.config: rearrange budget must be > 0"
  | _ -> ());
  (match stop with
  | Horizon t ->
      if not (t > 0.0 && t < infinity) then
        invalid_arg "Traffic.config: horizon must be finite and > 0"
  | Calls { warmup; measured } ->
      if warmup < 0 then invalid_arg "Traffic.config: warmup must be >= 0";
      if measured < batches then
        invalid_arg "Traffic.config: need measured >= batches";
      if not (load > 0.0) then
        invalid_arg "Traffic.config: a Calls stop needs load > 0");
  { load; holding; mtbf; mttr; stop; batches; policy; saturate;
    stop_on_degradation; shards; shard_jobs }

(* which deterministic search engine the policy asks for; Greedy resolves
   fallbacks (loop off-Benes -> staged -> bfs) at create time *)
let engine_of_policy = function
  | Route_staged -> `Staged
  | Route_loop -> `Loop
  | Route_greedy | Route_rearrange _ -> `Bfs

let router_name cfg net =
  Greedy.engine_name (Greedy.create ~engine:(engine_of_policy cfg.policy) net)

type stats = {
  sim_time : float;
  events : int;
  offered : int;
  served : int;
  blocked : int;
  blocked_full : int;
  dropped : int;
  rerouted : int;
  rearranged : int;
  failures : int;
  repairs : int;
  max_concurrent : int;
  occupancy : float;
  carried : float;
  measured_offered : int;
  blocking : float;
  batch_blocking : float array;
  degraded_at : float option;
  catastrophe_at : float option;
}

(* Events are unboxed ints: [(arg lsl 2) lor tag].  Tag 0 = Arrival
   (arg 0), 1 = Hangup (arg = {!Calls.key}), 2 = Fail e (unsharded) or
   the fault clock of shard k (sharded), 3 = Repair e.  Pushing an
   immediate int onto the heap allocates nothing, and the [(time,
   push-seq)] determinism contract only cares about push order, which is
   unchanged from the variant encoding this replaced. *)
let ev_arrival = 0
let ev_hangup key = (key lsl 2) lor 1
let ev_fail e = (e lsl 2) lor 2
let ev_tick k = (k lsl 2) lor 2
let ev_repair e = (e lsl 2) lor 3

(* One event shard: a contiguous block of topological edge levels with
   its own heap, PRNG stream and scratch buffers.  Its switches share two
   thinned fault clocks of rate [rate] each: the open one on [sheap],
   the closed one on the control heap (see [drain_shard] and
   [handle_closed_tick]).  During a drain the shard touches only its own
   fields, the switch bytes of its own edges, and (read-only) the frozen
   [owner] array; everything that crosses shard boundaries —
   faulty-degree updates and severs — is buffered here and applied at
   window commit. *)
type shard_st = {
  sheap : int Heap.t;
  srng : Rng.t;
  switches : int array;  (* the shard's edge ids, ascending *)
  rate : float;  (* |switches| / (2 mtbf): each clock's rate *)
  mutable esc_t : float array;  (* severs to run at commit: times *)
  mutable esc_e : int array;  (* ... and failed-edge ids *)
  mutable esc_len : int;
  mutable deg_v : int array;  (* (v lsl 1) lor (1 = decrement) *)
  mutable deg_len : int;
  mutable s_failures : int;
  mutable s_repairs : int;
  mutable s_events : int;
}

type state = {
  net : Network.t;
  cfg : config;
  crng : Rng.t;  (* the trial stream (shards = 1) or its control substream *)
  heap : int Heap.t;  (* control heap; the only heap when shards = 1 *)
  mask : Fault_mask.t;
  calls : Calls.t;
  call_id : int array;  (* slot -> unique id, the rearrangement order *)
  mutable next_id : int;
  conn : Dyn_conn.t;  (* incremental Lemma-7 catastrophe check *)
  (* hot float scalars live in a flat float array so per-event updates
     don't box: 0 = now, 1 = area (∫ live-call count dt since
     window_start), 2 = holding_sum, 3 = current drain window end *)
  fs : float array;
  mutable offered : int;
  mutable served : int;
  mutable blocked : int;
  mutable blocked_full : int;
  mutable dropped : int;
  mutable rerouted : int;
  mutable rearranged : int;
  mutable failures : int;
  mutable closed_failures : int;
  mutable repairs : int;
  mutable events : int;
  mutable window_start : float;
  mutable measuring : bool;
  mutable w_offered : int;
  mutable w_blocked : int;
  bm : Batch_means.t option;
  mutable degraded_at : float option;
  mutable catastrophe_at : float option;
  mutable stopped : bool;
  shs : shard_st array;  (* [||] when cfg.shards = 1 *)
  esc_idx : int array;  (* k-way merge cursors, one per shard *)
}

(* each shard's switch ids, ascending: one counting sort over [eshard] *)
let shard_switches eshard ~shards =
  let m = Bytes.length eshard in
  let count = Array.make shards 0 in
  for e = 0 to m - 1 do
    let k = Shard.shard_of eshard e in
    count.(k) <- count.(k) + 1
  done;
  let sw = Array.map (fun c -> Array.make c 0) count in
  Array.fill count 0 shards 0;
  for e = 0 to m - 1 do
    let k = Shard.shard_of eshard e in
    sw.(k).(count.(k)) <- e;
    count.(k) <- count.(k) + 1
  done;
  sw

let init ~rng ~cfg net =
  let g = net.Network.graph in
  let mask = Fault_mask.create net in
  let sharded = cfg.shards > 1 in
  (* substreams are derived without advancing [rng], so the unsharded
     engine — which consumes [rng] directly — is untouched by this *)
  let crng = if sharded then Rng.substream rng 0 else rng in
  let calls =
    Calls.create net
      ~router:
        (Greedy.create ~allowed:(Fault_mask.allowed mask)
           ~edge_ok:(Fault_mask.edge_ok mask)
           ~engine:(engine_of_policy cfg.policy) net)
  in
  let shards =
    if not sharded then [||]
    else
      let eshard = Shard.partition net ~shards:cfg.shards in
      Array.mapi
        (fun k switches ->
          {
            sheap = Heap.create ~dummy:0 ();
            srng = Rng.substream rng (k + 1);
            switches;
            rate = float_of_int (Array.length switches) /. (2.0 *. cfg.mtbf);
            esc_t = [||];
            esc_e = [||];
            esc_len = 0;
            deg_v = [||];
            deg_len = 0;
            s_failures = 0;
            s_repairs = 0;
            s_events = 0;
          })
        (shard_switches eshard ~shards:cfg.shards)
  in
  {
    net;
    cfg;
    crng;
    heap = Heap.create ~dummy:0 ();
    mask;
    calls;
    call_id = Array.make calls.cap 0;
    next_id = 0;
    conn = Dyn_conn.create ~terminals:(Network.terminals net) g;
    fs = Array.make 4 0.0;
    offered = 0;
    served = 0;
    blocked = 0;
    blocked_full = 0;
    dropped = 0;
    rerouted = 0;
    rearranged = 0;
    failures = 0;
    closed_failures = 0;
    repairs = 0;
    events = 0;
    window_start = 0.0;
    measuring = (match cfg.stop with Horizon _ -> true | Calls _ -> false);
    w_offered = 0;
    w_blocked = 0;
    bm =
      (match cfg.stop with
      | Calls { measured; _ } ->
          Some (Batch_means.create ~batches:cfg.batches ~total:measured)
      | Horizon _ -> None);
    degraded_at = None;
    catastrophe_at = None;
    stopped = false;
    shs = shards;
    esc_idx = Array.make (max cfg.shards 1) 0;
  }

let advance st t =
  if t > st.fs.(0) then begin
    st.fs.(1) <-
      st.fs.(1) +. (float_of_int st.calls.live_count *. (t -. st.fs.(0)));
    st.fs.(0) <- t
  end

let schedule st dt ev = Heap.push st.heap ~time:(st.fs.(0) +. dt) ev

let assign_id st slot =
  st.call_id.(slot) <- st.next_id;
  st.next_id <- st.next_id + 1

(* a new call goes live: draw its holding time, schedule its hangup *)
let start_call st slot =
  assign_id st slot;
  let h = Dist.holding_time st.crng st.cfg.holding in
  schedule st h (ev_hangup (Calls.key st.calls slot));
  if st.measuring then st.fs.(2) <- st.fs.(2) +. h

(* identity calls input i -> output i that never hang up — the
   saturating workload of the time-to-degradation experiments *)
let saturate st =
  let c = st.calls in
  for i = 0 to c.cap - 1 do
    let input = st.net.Network.inputs.(i)
    and output = st.net.Network.outputs.(i) in
    match Greedy.route c.router ~input ~output with
    | Some path ->
        assign_id st (Calls.place_list c ~i ~o:i path);
        st.served <- st.served + 1
    | None -> st.blocked <- st.blocked + 1
  done

(* rearrangeable fallback: re-lay every live call plus the new request
   from scratch over the fault-masked graph; on success the whole layout
   migrates at once.  Cold path — list allocations are fine here. *)
let try_rearrange st ~budget ~i ~o =
  let c = st.calls in
  let live =
    List.sort
      (fun a b -> Int.compare st.call_id.(a) st.call_id.(b))
      (Calls.live_slots c)
  in
  let inputs = st.net.Network.inputs and outputs = st.net.Network.outputs in
  let reqs =
    List.map (fun sl -> (inputs.(c.c_in.(sl)), outputs.(c.c_out.(sl)))) live
    @ [ (inputs.(i), outputs.(o)) ]
  in
  match
    Backtrack.route_all ~budget ~allowed:(Fault_mask.allowed st.mask)
      ~edge_ok:(Fault_mask.edge_ok st.mask) st.net reqs
  with
  | Backtrack.Unroutable | Backtrack.Budget_exceeded -> false
  | Backtrack.Routed paths ->
      (* the new request's path comes last *)
      let k = List.length live in
      Calls.relay c live (List.filteri (fun j _ -> j < k) paths);
      let p_new = List.nth paths k in
      Greedy.occupy c.router p_new;
      start_call st (Calls.place_list c ~i ~o p_new);
      st.rearranged <- st.rearranged + 1;
      true

let handle_arrival st =
  st.offered <- st.offered + 1;
  (match st.cfg.stop with
  | Calls { warmup; _ } when (not st.measuring) && st.offered > warmup ->
      (* warm-up over: the measured window starts now *)
      st.measuring <- true;
      st.window_start <- st.fs.(0);
      st.fs.(1) <- 0.0
  | _ -> ());
  let blocked, full =
    let c = st.calls in
    if c.idle_in.size = 0 || c.idle_out.size = 0 then (true, true)
    else begin
      (* draws, in fixed order: input pick, output pick, then (on
         placement) the holding time *)
      let i = Calls.draw st.crng c.idle_in in
      let o = Calls.draw st.crng c.idle_out in
      let len = Calls.route c ~i ~o in
      if len >= 0 then begin
        start_call st (Calls.place c ~i ~o ~len);
        (false, false)
      end
      else
        match st.cfg.policy with
        (* the fast routers only change how a path is found; a request
           they block is unroutable, so the verdict is greedy's *)
        | Route_greedy | Route_staged | Route_loop -> (true, false)
        | Route_rearrange budget ->
            (not (try_rearrange st ~budget ~i ~o), false)
    end
  in
  if blocked then begin
    st.blocked <- st.blocked + 1;
    if full then st.blocked_full <- st.blocked_full + 1
  end
  else st.served <- st.served + 1;
  if st.measuring then begin
    st.w_offered <- st.w_offered + 1;
    if blocked then st.w_blocked <- st.w_blocked + 1;
    match st.bm with
    | Some bm -> Batch_means.add bm (if blocked then 1.0 else 0.0)
    | None -> ()
  end;
  if blocked && (not full) && st.cfg.stop_on_degradation then begin
    st.degraded_at <- Some st.fs.(0);
    st.stopped <- true
  end;
  (match st.cfg.stop with
  | Calls { measured; _ } when st.measuring && st.w_offered >= measured ->
      st.stopped <- true
  | _ -> ());
  if not st.stopped then
    schedule st (Dist.exponential st.crng ~rate:st.cfg.load) ev_arrival

let handle_hangup st key =
  (* a stale key: the call was severed earlier and its slot released *)
  let slot = Calls.slot_of_key st.calls key in
  if slot >= 0 then begin
    Calls.vacate st.calls slot;
    Calls.release st.calls slot
  end

(* drop the call (if any) whose path crosses the failed switch, then
   attempt an immediate greedy reroute of the same endpoint pair *)
let sever st e ~u ~v =
  let try_drop vtx =
    let slot = Calls.sever st.calls ~e vtx in
    if slot >= 0 then begin
      st.dropped <- st.dropped + 1;
      if Calls.reroute st.calls slot then st.rerouted <- st.rerouted + 1
      else begin
        Calls.release st.calls slot;
        if st.cfg.stop_on_degradation && not st.stopped then begin
          st.degraded_at <- Some st.fs.(0);
          st.stopped <- true
        end
      end
    end
  in
  try_drop u;
  if v <> u then try_drop v

let note_catastrophe st =
  st.catastrophe_at <- Some st.fs.(0);
  if st.cfg.stop_on_degradation && st.degraded_at = None then
    st.degraded_at <- Some st.fs.(0);
  st.stopped <- true

(* unsharded failure/repair: the open/closed coin is drawn when the
   event fires, exactly as the engine always did *)
let handle_fail st e =
  st.failures <- st.failures + 1;
  (* draws, in fixed order: the open/closed coin, then the repair clock *)
  let closed = Rng.bool st.crng in
  if st.cfg.mttr < infinity then
    schedule st
      (Dist.exponential st.crng ~rate:(1.0 /. st.cfg.mttr))
      (ev_repair e);
  Fault_mask.fail st.mask e ~closed;
  let u, v = Digraph.edge_endpoints st.net.Network.graph e in
  if closed then begin
    st.closed_failures <- st.closed_failures + 1;
    (* two terminals in one closed-contraction class is the Lemma 7
       catastrophe; Dyn_conn maintains the verdict incrementally *)
    Dyn_conn.close st.conn e;
    if Dyn_conn.terminals_shorted st.conn then note_catastrophe st
    else sever st e ~u ~v
  end
  else sever st e ~u ~v

let handle_repair st e =
  st.repairs <- st.repairs + 1;
  if Fault_mask.is_closed st.mask e then Dyn_conn.reopen st.conn e;
  Fault_mask.repair st.mask e;
  (* back in service with a fresh failure clock *)
  schedule st (Dist.exponential st.crng ~rate:(1.0 /. st.cfg.mtbf)) (ev_fail e)

(* Sharded fault process: each shard's switches share two competing
   exponential clocks of rate M_k/(2 mtbf), the open one on the shard
   heap and the closed one on the control heap.  A firing picks one of
   the shard's switches uniformly; if that switch is already failed the
   firing is thinned — no state change, not counted as an event — and
   the clock re-arms either way.  Every normal switch therefore fails at
   rate 1/mtbf with a fair open/closed coin, exactly as under per-switch
   clocks, while the heaps hold O(shards + live calls + pending repairs)
   entries instead of one clock per switch.  A repair draws nothing:
   the shard clocks already cover the repaired switch. *)
let handle_closed_tick st k =
  let sh = st.shs.(k) in
  (* draws from the shard's stream, between drains, in fixed order: the
     switch pick, (if it fails) the repair delay, the next tick *)
  let e = sh.switches.(Rng.int sh.srng (Array.length sh.switches)) in
  if Fault_mask.is_normal st.mask e then begin
    st.events <- st.events + 1;
    st.failures <- st.failures + 1;
    st.closed_failures <- st.closed_failures + 1;
    if st.cfg.mttr < infinity then
      schedule st
        (Dist.exponential sh.srng ~rate:(1.0 /. st.cfg.mttr))
        (ev_repair e);
    Fault_mask.fail st.mask e ~closed:true;
    Dyn_conn.close st.conn e;
    if Dyn_conn.terminals_shorted st.conn then note_catastrophe st
    else begin
      let u, v = Digraph.edge_endpoints st.net.Network.graph e in
      sever st e ~u ~v
    end
  end;
  schedule st (Dist.exponential sh.srng ~rate:sh.rate) (ev_tick k)

let handle_repair_closed st e =
  st.repairs <- st.repairs + 1;
  Dyn_conn.reopen st.conn e;
  Fault_mask.repair st.mask e

(* shard scratch-buffer appends, grow-once *)
let grow_f a len = Array.append a (Array.make (max 8 (Array.length a + len)) 0.0)
let grow_i a len = Array.append a (Array.make (max 8 (Array.length a + len)) 0)

let esc_push sh t e =
  if sh.esc_len = Array.length sh.esc_t then begin
    sh.esc_t <- grow_f sh.esc_t sh.esc_len;
    sh.esc_e <- grow_i sh.esc_e sh.esc_len
  end;
  sh.esc_t.(sh.esc_len) <- t;
  sh.esc_e.(sh.esc_len) <- e;
  sh.esc_len <- sh.esc_len + 1

let deg_push sh v ~dec =
  if sh.deg_len = Array.length sh.deg_v then
    sh.deg_v <- grow_i sh.deg_v sh.deg_len;
  sh.deg_v.(sh.deg_len) <- (v lsl 1) lor (if dec then 1 else 0);
  sh.deg_len <- sh.deg_len + 1

(* Drain shard [k] up to the window end fs.(3): fire its open clock
   and open repairs, keeping every cross-shard-visible effect in the
   shard's buffers.  Safe to run concurrently with the other shards'
   drains: this touches only the shard's own heap/rng/buffers, the
   switch bytes of its own edges, and reads the frozen [owner] array.
   No global-time or statistics access. *)
let drain_shard st k =
  let sh = st.shs.(k) in
  let w = st.fs.(3) in
  let g = st.net.Network.graph in
  let continue_ = ref true in
  while !continue_ do
    if Heap.is_empty sh.sheap || Heap.min_time sh.sheap > w then
      continue_ := false
    else begin
      let t = Heap.min_time sh.sheap in
      let ev = Heap.pop sh.sheap in
      if ev land 3 = 2 then begin
        (* the open clock: draws, in fixed order, the switch pick, (if
           it fails) the repair delay, the next tick *)
        let e = sh.switches.(Rng.int sh.srng (Array.length sh.switches)) in
        if Fault_mask.is_normal st.mask e then begin
          sh.s_events <- sh.s_events + 1;
          sh.s_failures <- sh.s_failures + 1;
          if st.cfg.mttr < infinity then begin
            let dt = Dist.exponential sh.srng ~rate:(1.0 /. st.cfg.mttr) in
            Heap.push sh.sheap ~time:(t +. dt) (ev_repair e)
          end;
          Fault_mask.set_failed st.mask e ~closed:false;
          let u = Digraph.edge_src g e and v = Digraph.edge_dst g e in
          deg_push sh u ~dec:false;
          if v <> u then deg_push sh v ~dec:false;
          (* escalate the sever to commit time only if a live call can
             be crossing this switch.  [owner] is frozen during the
             window, and any call placed or rerouted at commit routes
             over the fully-committed fault mask — so it cannot cross
             this edge, and no sever is ever missed. *)
          let owner = st.calls.owner in
          if owner.(u) >= 0 || (v <> u && owner.(v) >= 0) then
            esc_push sh t e
        end;
        Heap.push sh.sheap
          ~time:(t +. Dist.exponential sh.srng ~rate:sh.rate)
          ev
      end
      else begin
        (* open repair *)
        sh.s_events <- sh.s_events + 1;
        sh.s_repairs <- sh.s_repairs + 1;
        let e = ev lsr 2 in
        Fault_mask.set_normal st.mask e;
        let u = Digraph.edge_src g e and v = Digraph.edge_dst g e in
        deg_push sh u ~dec:true;
        if v <> u then deg_push sh v ~dec:true
      end
    end
  done

(* Apply everything the drains buffered, in deterministic order:
   faulty-degree deltas and counters shard by shard, then the escalated
   severs merged across shards by (time, shard). *)
let commit_window st =
  let ns = Array.length st.shs in
  for k = 0 to ns - 1 do
    let sh = st.shs.(k) in
    for j = 0 to sh.deg_len - 1 do
      let enc = sh.deg_v.(j) in
      Fault_mask.shift st.mask (enc lsr 1) (if enc land 1 = 1 then -1 else 1)
    done;
    sh.deg_len <- 0;
    st.failures <- st.failures + sh.s_failures;
    sh.s_failures <- 0;
    st.repairs <- st.repairs + sh.s_repairs;
    sh.s_repairs <- 0;
    st.events <- st.events + sh.s_events;
    sh.s_events <- 0
  done;
  let idx = st.esc_idx in
  Array.fill idx 0 ns 0;
  let remaining = ref 0 in
  Array.iter (fun sh -> remaining := !remaining + sh.esc_len) st.shs;
  while !remaining > 0 && not st.stopped do
    let best = ref (-1) and bt = ref infinity in
    for k = 0 to ns - 1 do
      let sh = st.shs.(k) in
      if idx.(k) < sh.esc_len && sh.esc_t.(idx.(k)) < !bt then begin
        best := k;
        bt := sh.esc_t.(idx.(k))
      end
    done;
    let sh = st.shs.(!best) in
    let e = sh.esc_e.(idx.(!best)) in
    idx.(!best) <- idx.(!best) + 1;
    decr remaining;
    advance st !bt;
    let u, v = Digraph.edge_endpoints st.net.Network.graph e in
    sever st e ~u ~v
  done;
  Array.iter (fun sh -> sh.esc_len <- 0) st.shs

let dispatch_mono st ev =
  match ev land 3 with
  | 0 -> handle_arrival st
  | 1 -> handle_hangup st (ev lsr 2)
  | 2 -> handle_fail st (ev lsr 2)
  | _ -> handle_repair st (ev lsr 2)

(* a closed tick counts itself: a thinned one is not an event *)
let dispatch_sharded st ev =
  match ev land 3 with
  | 2 -> handle_closed_tick st (ev lsr 2)
  | tag -> (
      st.events <- st.events + 1;
      match tag with
      | 0 -> handle_arrival st
      | 1 -> handle_hangup st (ev lsr 2)
      | _ -> handle_repair_closed st (ev lsr 2))

let run_mono st horizon =
  let continue_ = ref true in
  while !continue_ do
    if st.stopped || Heap.is_empty st.heap then continue_ := false
    else begin
      let t = Heap.min_time st.heap in
      if t > horizon then begin
        advance st horizon;
        st.stopped <- true;
        continue_ := false
      end
      else begin
        let ev = Heap.pop st.heap in
        advance st t;
        st.events <- st.events + 1;
        dispatch_mono st ev
      end
    end
  done

(* Conservative time-window synchronizer: the safe horizon for a drain
   is the next control event (arrivals, hangups and the closed clocks
   all live on the control heap, and they are the only events that
   mutate call state), capped by the stop horizon.  Each iteration
   drains all shards up to that window, commits, then executes exactly
   one control event. *)
let run_sharded st horizon =
  let ns = Array.length st.shs in
  let tasks = Array.init ns (fun k () -> drain_shard st k) in
  let jobs = st.cfg.shard_jobs in
  let continue_ = ref true in
  while !continue_ do
    if st.stopped then continue_ := false
    else begin
      let wc =
        if Heap.is_empty st.heap then infinity else Heap.min_time st.heap
      in
      let w = min wc horizon in
      if w = infinity then
        (* no control events and no horizon: the remaining shard-local
           open-failure churn cannot affect any statistic *)
        continue_ := false
      else begin
        st.fs.(3) <- w;
        Trials.parallel_tasks ~jobs tasks;
        commit_window st;
        if st.stopped then ()
        else if wc > horizon then begin
          advance st horizon;
          st.stopped <- true;
          continue_ := false
        end
        else begin
          let ev = Heap.pop st.heap in
          advance st wc;
          dispatch_sharded st ev
        end
      end
    end
  done

let finish st =
  let window = st.fs.(0) -. st.window_start in
  let occupancy = if window > 0.0 then st.fs.(1) /. window else 0.0 in
  let carried = if window > 0.0 then st.fs.(2) /. window else 0.0 in
  let blocking =
    if st.w_offered > 0 then
      float_of_int st.w_blocked /. float_of_int st.w_offered
    else 0.0
  in
  let batch_blocking =
    match st.bm with Some bm -> Batch_means.means bm | None -> [||]
  in
  let c name v = Counter.add (Metrics.counter Metrics.default name) v in
  c "traffic.runs" 1;
  c "traffic.events" st.events;
  c "traffic.offered" st.offered;
  c "traffic.served" st.served;
  c "traffic.blocked" st.blocked;
  c "traffic.blocked_full" st.blocked_full;
  c "traffic.dropped" st.dropped;
  c "traffic.rerouted" st.rerouted;
  c "traffic.failures" st.failures;
  c "traffic.closed_failures" st.closed_failures;
  c "traffic.repairs" st.repairs;
  if st.catastrophe_at <> None then c "traffic.catastrophes" 1;
  {
    sim_time = st.fs.(0);
    events = st.events;
    offered = st.offered;
    served = st.served;
    blocked = st.blocked;
    blocked_full = st.blocked_full;
    dropped = st.dropped;
    rerouted = st.rerouted;
    rearranged = st.rearranged;
    failures = st.failures;
    repairs = st.repairs;
    max_concurrent = st.calls.max_concurrent;
    occupancy;
    carried;
    measured_offered = st.w_offered;
    blocking;
    batch_blocking;
    degraded_at = st.degraded_at;
    catastrophe_at = st.catastrophe_at;
  }

let run ~rng ~config:cfg net =
  if Network.n_inputs net = 0 || Network.n_outputs net = 0 then
    invalid_arg "Traffic.run: network has no terminals";
  let st = init ~rng ~cfg net in
  (* deterministic bootstrap: saturation placements (no draws), the
     fault clocks — one per switch in ascending edge order unsharded, or
     per shard in ascending order its open then its closed clock — then
     the first arrival *)
  if cfg.saturate then saturate st;
  if cfg.mtbf < infinity then begin
    if cfg.shards = 1 then
      for e = 0 to Digraph.edge_count net.Network.graph - 1 do
        schedule st
          (Dist.exponential st.crng ~rate:(1.0 /. cfg.mtbf))
          (ev_fail e)
      done
    else
      Array.iteri
        (fun k sh ->
          Heap.push sh.sheap
            ~time:(Dist.exponential sh.srng ~rate:sh.rate)
            (ev_tick k);
          schedule st (Dist.exponential sh.srng ~rate:sh.rate) (ev_tick k))
        st.shs
  end;
  if cfg.load > 0.0 then
    schedule st (Dist.exponential st.crng ~rate:cfg.load) ev_arrival;
  let horizon = match cfg.stop with Horizon h -> h | Calls _ -> infinity in
  if cfg.shards = 1 then run_mono st horizon else run_sharded st horizon;
  (* a horizon run whose queue dried up still spans [0, h] *)
  (match cfg.stop with
  | Horizon h when (not st.stopped) && st.fs.(0) < h -> advance st h
  | _ -> ());
  finish st

type summary = {
  replications : int;
  blocking : Batch_means.summary;
  occupancy : float;
  carried : float;
  t_offered : int;
  t_served : int;
  t_blocked : int;
  t_blocked_full : int;
  t_dropped : int;
  t_rerouted : int;
  t_failures : int;
  t_repairs : int;
  t_events : int;
  t_sim_time : float;
  catastrophes : int;
}

let summarize = function
  | [] -> invalid_arg "Traffic.summarize: no replications"
  | stats ->
      let reps = List.length stats in
      let sum f = List.fold_left (fun a (s : stats) -> a + f s) 0 stats in
      let sumf f = List.fold_left (fun a (s : stats) -> a +. f s) 0.0 stats in
      let count = sum (fun s -> s.measured_offered) in
      let pooled =
        Array.of_list
          (List.concat_map (fun (s : stats) -> Array.to_list s.batch_blocking)
             stats)
      in
      let b =
        if Array.length pooled >= 2 then Batch_means.of_means ~count pooled
        else begin
          (* no batch records (horizon stops or truncated runs): fall back
             to replication-level blocking means *)
          let rep_means =
            Array.of_list (List.map (fun (s : stats) -> s.blocking) stats)
          in
          if Array.length rep_means >= 2 then
            Batch_means.of_means ~count rep_means
          else
            (* one replication and fewer than two batches: no spread to
               estimate, so the interval is undefined, not zero-width *)
            { Batch_means.mean = rep_means.(0); ci_low = Float.nan;
              ci_high = Float.nan; batches = 1; count }
        end
      in
      {
        replications = reps;
        (* blocking is a proportion: the Student-t bounds can leave
           [0, 1], so clip them (a nan bound stays nan) *)
        blocking =
          { b with ci_low = Float.max 0.0 b.ci_low;
            ci_high = Float.min 1.0 b.ci_high };
        occupancy = sumf (fun s -> s.occupancy) /. float_of_int reps;
        carried = sumf (fun s -> s.carried) /. float_of_int reps;
        t_offered = sum (fun s -> s.offered);
        t_served = sum (fun s -> s.served);
        t_blocked = sum (fun s -> s.blocked);
        t_blocked_full = sum (fun s -> s.blocked_full);
        t_dropped = sum (fun s -> s.dropped);
        t_rerouted = sum (fun s -> s.rerouted);
        t_failures = sum (fun s -> s.failures);
        t_repairs = sum (fun s -> s.repairs);
        t_events = sum (fun s -> s.events);
        t_sim_time = sumf (fun s -> s.sim_time);
        catastrophes = sum (fun s -> if s.catastrophe_at <> None then 1 else 0);
      }

let estimate ?jobs ?trace ?(label = "traffic.estimate") ~trials ~rng
    ~config net =
  if trials < 1 then invalid_arg "Traffic.estimate: need trials >= 1";
  let acc =
    Trials.map_reduce ?jobs ?trace ~label ~trials ~rng
      ~init:(fun () -> ())
      ~create_acc:(fun () -> ref [])
      ~trial:(fun () acc sub -> acc := run ~rng:sub ~config net :: !acc)
        (* chunks combine in index order, each list reverse-ordered, so
           prepending keeps the whole accumulator reverse-ordered *)
      ~combine:(fun global chunk -> global := !chunk @ !global)
      ()
  in
  summarize (List.rev !acc)
