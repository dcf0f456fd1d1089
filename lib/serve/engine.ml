module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph
module Dyn_conn = Ftcsn_reliability.Dyn_conn
module Greedy = Ftcsn_routing.Greedy
module Rng = Ftcsn_prng.Rng
module Heap = Ftcsn_des.Heap
module Dist = Ftcsn_des.Dist
module Calls = Ftcsn_des.Calls
module Fault_mask = Ftcsn_des.Fault_mask
module Json = Ftcsn_obs.Json
module Trace = Ftcsn_obs.Trace
module Histogram = Ftcsn_obs.Histogram

(* Unboxed int events, [(arg lsl 2) lor tag], as in Ftcsn_des.Traffic:
   1 = hangup (arg = Calls.key), 2 = fail e, 3 = repair e. *)
let ev_hangup key = (key lsl 2) lor 1
let ev_fail e = (e lsl 2) lor 2
let ev_repair e = (e lsl 2) lor 3

type t = {
  net : Network.t;
  emit : Proto.response -> unit;
  trace : Trace.sink option;
  holding : Dist.holding;
  mtbf : float;
  mttr : float;
  crng : Rng.t;  (* control stream: endpoint picks, holding draws *)
  erng : Rng.t array;  (* per-switch clock streams, one per edge *)
  ctl : int Heap.t;  (* hangups *)
  faults : int Heap.t;  (* failure/repair clocks *)
  mask : Fault_mask.t;
  calls : Calls.t;
  c_name : string array;  (* slot -> wire call id; "" when free *)
  tbl : (string, int) Hashtbl.t;  (* live call id -> slot *)
  conn : Dyn_conn.t;
  latency : Histogram.t;  (* per-decision wall nanoseconds *)
  (* hot float scalars, unboxed: 0 = now, 1 = area (∫ live dt) *)
  fs : float array;
  mutable offered : int;
  mutable accepted : int;
  mutable blocked : int;
  mutable blocked_full : int;
  mutable overload : int;
  mutable rerouted : int;
  mutable dropped : int;
  mutable released : int;
  mutable failures : int;
  mutable repairs : int;
  mutable events : int;
  mutable catastrophes : int;
  mutable cat_live : bool;  (* terminals currently fused *)
}

let create ?(engine = `Bfs) ?(holding = Dist.Exponential) ?(mtbf = infinity)
    ?(mttr = 10.0) ?trace ~emit ~rng net =
  if not (mtbf > 0.0) then invalid_arg "Engine.create: mtbf must be > 0";
  if not (mttr > 0.0) then invalid_arg "Engine.create: mttr must be > 0";
  let g = net.Network.graph in
  let m = Digraph.edge_count g in
  let mask = Fault_mask.create net in
  let erng = Array.init m (fun e -> Rng.substream rng (1 + e)) in
  let faults = Heap.create ~dummy:0 () in
  let calls =
    Calls.create net
      ~router:
        (Greedy.create ~allowed:(Fault_mask.allowed mask)
           ~edge_ok:(Fault_mask.edge_ok mask) ~engine net)
  in
  (* every switch gets its first failure clock up front, from its own
     substream — the whole fault schedule is fixed at creation *)
  if mtbf < infinity then
    for e = 0 to m - 1 do
      Heap.push faults
        ~time:(Dist.exponential erng.(e) ~rate:(1.0 /. mtbf))
        (ev_fail e)
    done;
  {
    net;
    emit;
    trace;
    holding;
    mtbf;
    mttr;
    crng = Rng.substream rng 0;
    erng;
    ctl = Heap.create ~dummy:0 ();
    faults;
    mask;
    calls;
    c_name = Array.make calls.cap "";
    tbl = Hashtbl.create 1024;
    conn = Dyn_conn.create ~terminals:(Network.terminals net) g;
    latency = Histogram.create ();
    fs = Array.make 2 0.0;
    offered = 0;
    accepted = 0;
    blocked = 0;
    blocked_full = 0;
    overload = 0;
    rerouted = 0;
    dropped = 0;
    released = 0;
    failures = 0;
    repairs = 0;
    events = 0;
    catastrophes = 0;
    cat_live = false;
  }

let now st = st.fs.(0)
let live_calls st = st.calls.live_count
let occupancy st = float_of_int st.calls.live_count /. float_of_int st.calls.cap
let decisions st = st.offered
let engine_label st = Greedy.engine_name st.calls.router

let move_time st t =
  if t > st.fs.(0) then begin
    st.fs.(1) <-
      st.fs.(1) +. (float_of_int st.calls.live_count *. (t -. st.fs.(0)));
    st.fs.(0) <- t
  end

(* a permanent release: the stamp bump invalidates any pending
   auto-hangup for this occupancy *)
let release st slot =
  Calls.release st.calls slot;
  Hashtbl.remove st.tbl st.c_name.(slot);
  st.c_name.(slot) <- ""

let hang_up st slot =
  st.released <- st.released + 1;
  st.emit (Proto.Released { id = st.c_name.(slot); t = st.fs.(0) });
  Calls.vacate st.calls slot;
  release st slot

(* ---- DES events ---- *)

let handle_hangup st key =
  (* a stale key: the call was dropped earlier *)
  let slot = Calls.slot_of_key st.calls key in
  if slot >= 0 then hang_up st slot

(* drop the call (if any) whose path crosses the failed switch, then
   attempt an immediate reroute of the same endpoint pair; the client
   hears about either outcome *)
let sever st e ~u ~v =
  let try_drop vtx =
    let slot = Calls.sever st.calls ~e vtx in
    if slot >= 0 then
      if Calls.reroute st.calls slot then begin
        st.rerouted <- st.rerouted + 1;
        st.emit
          (Proto.Rerouted
             {
               id = st.c_name.(slot);
               t = st.fs.(0);
               path_len = st.calls.c_plen.(slot) - 1;
             })
      end
      else begin
        st.dropped <- st.dropped + 1;
        st.emit (Proto.Dropped { id = st.c_name.(slot); t = st.fs.(0) });
        release st slot
      end
  in
  try_drop u;
  if v <> u then try_drop v

let handle_fail st e =
  st.failures <- st.failures + 1;
  (* all clock draws for switch e come from its own substream, in fixed
     order: open/closed coin, repair delay, (on repair) next failure *)
  let r = st.erng.(e) in
  let closed = Rng.bool r in
  if st.mttr < infinity then
    Heap.push st.faults
      ~time:(st.fs.(0) +. Dist.exponential r ~rate:(1.0 /. st.mttr))
      (ev_repair e);
  Fault_mask.fail st.mask e ~closed;
  if closed then begin
    Dyn_conn.close st.conn e;
    if (not st.cat_live) && Dyn_conn.terminals_shorted st.conn then begin
      (* Lemma-7 catastrophe: report it, keep serving — repairs can
         clear it, and the client deserves the signal either way *)
      st.cat_live <- true;
      st.catastrophes <- st.catastrophes + 1;
      st.emit (Proto.Catastrophe { t = st.fs.(0) })
    end
  end;
  let u, v = Digraph.edge_endpoints st.net.Network.graph e in
  sever st e ~u ~v

let handle_repair st e =
  st.repairs <- st.repairs + 1;
  if Fault_mask.is_closed st.mask e then begin
    Dyn_conn.reopen st.conn e;
    if st.cat_live && not (Dyn_conn.terminals_shorted st.conn) then
      st.cat_live <- false
  end;
  Fault_mask.repair st.mask e;
  (* back in service with a fresh failure clock from its own stream *)
  Heap.push st.faults
    ~time:(st.fs.(0) +. Dist.exponential st.erng.(e) ~rate:(1.0 /. st.mtbf))
    (ev_fail e)

let dispatch st ev =
  st.events <- st.events + 1;
  match ev land 3 with
  | 1 -> handle_hangup st (ev lsr 2)
  | 2 -> handle_fail st (ev lsr 2)
  | _ -> handle_repair st (ev lsr 2)

let min_time h = if Heap.is_empty h then infinity else Heap.min_time h
let next_event_time st = Float.min (min_time st.ctl) (min_time st.faults)

(* fire every event due by [target] in ascending time, the control heap
   first on (measure-zero) ties *)
let rec fire st target =
  let h = if min_time st.ctl <= min_time st.faults then st.ctl else st.faults in
  if (not (Heap.is_empty h)) && Heap.min_time h <= target then begin
    let t = Heap.min_time h in
    let ev = Heap.pop h in
    move_time st t;
    dispatch st ev;
    fire st target
  end

let advance st target =
  if target > st.fs.(0) then begin
    fire st target;
    move_time st target
  end

let advance_opt st = function Some at -> advance st at | None -> ()

(* ---- requests ---- *)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let out_of_range bound = function
  | Some i -> i < 0 || i >= bound
  | None -> false

let decide_call st ~id ~src ~dst ~hold =
  if out_of_range (Network.n_inputs st.net) src then
    st.emit
      (Proto.Error { id = Some id; message = "input index out of range" })
  else if out_of_range (Network.n_outputs st.net) dst then
    st.emit
      (Proto.Error { id = Some id; message = "output index out of range" })
  else begin
  st.offered <- st.offered + 1;
  let t = st.fs.(0) in
  let block reason full =
    st.blocked <- st.blocked + 1;
    if full then st.blocked_full <- st.blocked_full + 1;
    st.emit (Proto.Block { id; t; reason })
  in
  let resolve pool = function
    (* draws in fixed order: input pick then output pick, only when the
       request leaves the endpoint to the controller *)
    | Some i -> if Calls.is_idle pool i then `Idle i else `Busy
    | None ->
        if pool.Calls.size = 0 then `Busy else `Idle (Calls.draw st.crng pool)
  in
  let c = st.calls in
  match resolve c.idle_in src with
  | `Busy -> block Proto.Full true
  | `Idle i -> (
      match resolve c.idle_out dst with
      | `Busy -> block Proto.Full true
      | `Idle o ->
          let len = Calls.route c ~i ~o in
          if len < 0 then block Proto.No_path false
          else begin
            let slot = Calls.place c ~i ~o ~len in
            st.c_name.(slot) <- id;
            Hashtbl.replace st.tbl id slot;
            let h =
              match hold with
              | Some h -> h
              | None -> Dist.holding_time st.crng st.holding
            in
            Heap.push st.ctl ~time:(t +. h) (ev_hangup (Calls.key c slot));
            st.accepted <- st.accepted + 1;
            st.emit (Proto.Accept { id; t; path_len = len - 1 })
          end)
  end

let metrics_json ?(queue_depth = 0) st =
  let t = st.fs.(0) in
  Json.Obj
    [
      ("engine", Json.String (engine_label st));
      ("now", Json.Float t);
      ("live", Json.Int st.calls.live_count);
      ("capacity", Json.Int st.calls.cap);
      ("occupancy", Json.Float (occupancy st));
      ( "carried_avg",
        Json.Float (if t > 0.0 then st.fs.(1) /. t else 0.0) );
      ("max_concurrent", Json.Int st.calls.max_concurrent);
      ("offered", Json.Int st.offered);
      ("accepted", Json.Int st.accepted);
      ("blocked", Json.Int st.blocked);
      ("blocked_full", Json.Int st.blocked_full);
      ("overload", Json.Int st.overload);
      ("rerouted", Json.Int st.rerouted);
      ("dropped", Json.Int st.dropped);
      ("released", Json.Int st.released);
      ("failures", Json.Int st.failures);
      ("repairs", Json.Int st.repairs);
      ("catastrophes", Json.Int st.catastrophes);
      ("events", Json.Int st.events);
      ("queue_depth", Json.Int queue_depth);
      ("decision_latency_ns", Histogram.to_json st.latency);
    ]

let handle st req =
  match req with
  | Proto.Metrics { at } ->
      advance_opt st at;
      st.emit (Proto.Snapshot { t = st.fs.(0); data = metrics_json st })
  | Proto.Hangup { id; at } -> (
      advance_opt st at;
      match Hashtbl.find_opt st.tbl id with
      | None ->
          st.emit (Proto.Error { id = Some id; message = "unknown call id" })
      | Some slot -> hang_up st slot)
  | Proto.Call { id; src; dst; hold; at } ->
      advance_opt st at;
      if Hashtbl.mem st.tbl id then
        st.emit
          (Proto.Error { id = Some id; message = "duplicate live call id" })
      else begin
        let t0 = now_ns () in
        Trace.span st.trace "serve.decide" (fun () ->
            decide_call st ~id ~src ~dst ~hold);
        Histogram.record st.latency (max 1 (now_ns () - t0))
      end

let shed st ~id =
  st.offered <- st.offered + 1;
  st.overload <- st.overload + 1;
  st.emit (Proto.Overload { id; t = st.fs.(0) })

let summary st =
  Printf.sprintf
    "serve: %d decisions (%d accept, %d block, %d overload), %d rerouted, \
     %d dropped, %d released, %d failures, %d repairs, %d catastrophes, \
     sim-time %.6g, engine %s"
    st.offered st.accepted st.blocked st.overload st.rerouted st.dropped
    st.released st.failures st.repairs st.catastrophes st.fs.(0)
    (engine_label st)
