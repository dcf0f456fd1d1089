(* The ftcsn benchmark program.  [run.py] in this directory drives it: it
   builds this executable, starts it once per measurement in a fresh
   process, and turns the JSON object each process prints into the
   benchmark's result line.

     ftbench.exe setup  WORKLOAD SEED [TRACE_OUT]   one cold set-up
     ftbench.exe run    WORKLOAD SEED SECONDS       untraced measurement
     ftbench.exe ledger WORKLOAD SEED TRACE_OUT     traced per-layer run
     ftbench.exe constructors fabric-1M TRACE_OUT   the DES constructors, cold
     ftbench.exe reference delta-1e-6 SEED          long reference run
     ftbench.exe host                               host record

   Workload parameters come from workloads.json next to this file; the
   seed only picks PRNG streams, so the programs under test receive
   generated inputs and nothing else.  Everything runs on one domain. *)

module Json = Ftcsn_obs.Json
module Trace = Ftcsn_obs.Trace
module Rng = Ftcsn_prng.Rng
module Network = Ftcsn_networks.Network
module Topology = Ftcsn_networks.Topology
module Digraph = Ftcsn_graph.Digraph
module Greedy = Ftcsn_routing.Greedy
module Flow_route = Ftcsn_routing.Flow_route
module Traffic = Ftcsn_des.Traffic
module Shard = Ftcsn_des.Shard
module Heap = Ftcsn_des.Heap
module Dyn_conn = Ftcsn_reliability.Dyn_conn
module Fault = Ftcsn_reliability.Fault
module Splitting = Ftcsn_reliability.Splitting
module Proto = Ftcsn_serve.Proto
module Admission = Ftcsn_serve.Admission
module Engine = Ftcsn_serve.Engine
module Pipeline = Ftcsn.Pipeline
module Fault_strip = Ftcsn.Fault_strip
module Rare = Ftcsn.Rare

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("ftbench: " ^ s); exit 2) fmt

(* nanosecond monotonic clock: Ftcsn_obs.Clock has microsecond
   resolution, too coarse for single requests *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, secs_since t0)

(* ---------- host speed ---------- *)

(* A fixed piece of plain OCaml that touches no ftcsn code: hash-table
   probes, short lists, a sort and integer formatting, about 20 ms.  The
   shared host runs in fast and slow phases of 10-60 s, and serve-4k's
   decision rate follows them (about 45k against 28k decisions/s); this
   kernel's time follows them too (about 16 against 25 ms), so timing it
   next to each serve pass or fabric repetition says how fast the host
   ran during it. *)
let host_kernel () =
  let t0 = now_ns () in
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 30_000 do
    let k = (i * 7919) land 0xFFFF in
    (match Hashtbl.find_opt h k with
     | Some v -> acc := !acc + v
     | None -> Hashtbl.replace h k i);
    acc := List.fold_left (fun a (x, _) -> a + x) !acc
        (List.init 8 (fun j -> (i + j, float_of_int j)))
  done;
  let a = Array.init 20_000 (fun i -> float_of_int ((i * 48271) land 0xFFFFF)) in
  Array.sort compare a;
  let b = Buffer.create 64 in
  for i = 0 to 5_000 do
    Buffer.clear b;
    Buffer.add_string b (string_of_int i);
    acc := !acc + Buffer.length b
  done;
  ignore (Sys.opaque_identity (!acc, a));
  secs_since t0

(* ---------- workload parameters ---------- *)

let params workload =
  let file = Filename.concat "ftbench" "workloads.json" in
  let text =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error e -> fail "cannot read %s: %s" file e
  in
  match Json.parse text with
  | Error e -> fail "%s: %s" file e
  | Ok j -> (
      match Option.bind (Json.member workload j) (Json.member "params") with
      | Some p -> p
      | None -> fail "unknown workload %S" workload)

let get conv what p k =
  match Option.bind (Json.member k p) conv with
  | Some v -> v
  | None -> fail "workloads.json: parameter %S missing or not %s" k what

let num = get Json.to_float "a number"
let int = get Json.to_int "an integer"
let str = get Json.to_str "a string"

(* Networks are fixed instances: their construction seed is a parameter,
   not the workload seed, so every seed measures the same fabric. *)
let build_net p key =
  let rng = Rng.create ~seed:(int p "network_seed") in
  match Topology.build_string ~rng (str p key) with
  | Ok b -> b.Topology.net
  | Error e -> fail "%s" e

(* Independent streams per use; the reference run uses streams >= 1000,
   which no workload seed reaches. *)
let stream ~seed k = Rng.substream (Rng.create ~seed) k

(* ---------- tracing ---------- *)

(* Spans on an optional memory sink.  Span_end carries the nanosecond
   clock's elapsed time; with [None] a span costs one branch and
   allocates nothing, so untraced runs time the bare calls. *)
type tracer = {
  sink : Trace.sink;
  events : unit -> (int * Trace.event) list;
  ids : int array;
  starts : int array;
  mutable depth : int;
}

let tracer () =
  let sink, events = Trace.memory () in
  { sink; events; ids = Array.make 64 0; starts = Array.make 64 0; depth = 0 }

let sp_open tr name =
  match tr with
  | None -> ()
  | Some t ->
      let id = Trace.fresh_id t.sink in
      Trace.emit t.sink (Trace.Span_begin { span = id; name });
      t.ids.(t.depth) <- id;
      t.starts.(t.depth) <- now_ns ();
      t.depth <- t.depth + 1

let sp_close tr name =
  match tr with
  | None -> ()
  | Some t ->
      let elapsed_ns = now_ns () - t.starts.(t.depth - 1) in
      t.depth <- t.depth - 1;
      Trace.emit t.sink (Trace.Span_end { span = t.ids.(t.depth); name; elapsed_ns })

let span tr name f =
  sp_open tr name;
  match f () with
  | v ->
      sp_close tr name;
      v
  | exception e ->
      sp_close tr name;
      raise e

type span_total = { mutable count : int; mutable total_ns : int; mutable self_ns : int }

type ledger = {
  spans : (string, span_total) Hashtbl.t;
  mutable chunks : int;
  mutable chunk_ns : int;
  mutable run_ns : int;
}

(* Self time of a span is its duration minus that of its direct
   children; nesting is recovered from emission order (one domain). *)
let analyse events =
  let l = { spans = Hashtbl.create 32; chunks = 0; chunk_ns = 0; run_ns = 0 } in
  let stack = ref [] in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Trace.Span_begin _ -> stack := ref 0 :: !stack
      | Trace.Span_end { name; elapsed_ns; _ } -> (
          match !stack with
          | children :: rest ->
              stack := rest;
              (match rest with p :: _ -> p := !p + elapsed_ns | [] -> ());
              let s =
                match Hashtbl.find_opt l.spans name with
                | Some s -> s
                | None ->
                    let s = { count = 0; total_ns = 0; self_ns = 0 } in
                    Hashtbl.add l.spans name s;
                    s
              in
              s.count <- s.count + 1;
              s.total_ns <- s.total_ns + elapsed_ns;
              s.self_ns <- s.self_ns + (elapsed_ns - !children)
          | [] -> fail "unbalanced trace")
      | Trace.Chunk { elapsed_ns; _ } ->
          l.chunks <- l.chunks + 1;
          l.chunk_ns <- l.chunk_ns + elapsed_ns
      | Trace.Run_end { elapsed_ns; _ } -> l.run_ns <- l.run_ns + elapsed_ns
      | Trace.Run_begin _ | Trace.Stop_check _ -> ())
    events;
  l

let span_stat l name =
  match Hashtbl.find_opt l.spans name with
  | Some s -> s
  | None -> fail "no %S span in the trace" name

let total_s l name = float_of_int (span_stat l name).total_ns *. 1e-9

(* mean self time per span, in ns; [per] spreads a batch span over the
   operations it timed *)
let self_ns ?(per = 1) l name =
  let s = span_stat l name in
  float_of_int s.self_ns /. float_of_int (s.count * per)

let write_trace path tr =
  Trace.close tr.sink;
  let events = tr.events () in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun (ts_ns, ev) ->
          output_string oc (Trace.event_to_string ~ts_ns ev);
          output_char oc '\n')
        events);
  analyse events

(* ---------- output ---------- *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let hex f = Printf.sprintf "%h" f
let floats xs = Json.List (List.map (fun x -> Json.Float x) xs)
let print fields = print_endline (Json.to_string (Json.Obj fields))
let digest parts = Digest.to_hex (Digest.string (String.concat "|" parts))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---------- fabric-1M: Traffic.run on the million-switch Beneš ---------- *)

(* Both DES workloads route with the Beneš looping engine ([`Loop]). *)
let fabric_config p ~horizon =
  Traffic.config ~load:(num p "load") ~mtbf:(num p "mtbf") ~mttr:(num p "mttr")
    ~policy:Traffic.Route_loop ~shards:(int p "shards") ~stop:(Traffic.Horizon horizon)
    ()

(* every replication of one seed reuses the same stream: repetitions
   must agree bit for bit *)
let fabric_run p ~seed ~horizon net =
  Traffic.run ~rng:(stream ~seed 1) ~config:(fabric_config p ~horizon) net

let stats_digest (s : Traffic.stats) =
  let opt = function None -> "-" | Some t -> hex t in
  digest
    ([ hex s.sim_time; string_of_int s.events; string_of_int s.offered;
       string_of_int s.served; string_of_int s.blocked;
       string_of_int s.blocked_full; string_of_int s.dropped;
       string_of_int s.rerouted; string_of_int s.rearranged;
       string_of_int s.failures; string_of_int s.repairs;
       string_of_int s.max_concurrent; hex s.occupancy; hex s.carried;
       string_of_int s.measured_offered; hex s.blocking; opt s.degraded_at;
       opt s.catastrophe_at ]
    @ Array.to_list (Array.map hex s.batch_blocking))

(* The failed checks of one replication.  Little's law: the time-average
   occupancy and the carried load agree up to the edge effects of a
   finite horizon (calls alive at the end, severed calls' lost time). *)
let fabric_checks p (s : Traffic.stats) =
  let horizon = num p "horizon" and tol = num p "little_tolerance" in
  List.filter_map
    (fun (name, ok) -> if ok then None else Some (Json.String name))
    [
      ("offered=served+blocked", s.offered = s.served + s.blocked);
      ("rerouted<=dropped", s.rerouted <= s.dropped);
      ( "little",
        Float.abs (s.occupancy -. s.carried) <= tol *. Float.max s.carried 1.0 );
      ("no-catastrophe", s.catastrophe_at = None && s.sim_time >= horizon);
    ]

let stats_json (s : Traffic.stats) =
  Json.Obj
    [
      ("events", Json.Int s.events); ("sim_time", Json.Float s.sim_time);
      ("offered", Json.Int s.offered); ("served", Json.Int s.served);
      ("blocked", Json.Int s.blocked); ("dropped", Json.Int s.dropped);
      ("rerouted", Json.Int s.rerouted); ("failures", Json.Int s.failures);
      ("repairs", Json.Int s.repairs); ("occupancy", Json.Float s.occupancy);
      ("carried", Json.Float s.carried); ("blocking", Json.Float s.blocking);
    ]

(* cold set-up as a fresh ftnet process pays it: network build plus a
   near-zero-horizon run (router, shards, Dyn_conn, clock bootstrap) *)
let fabric_setup p ~seed tr =
  span tr "setup" (fun () ->
      let net = span tr "networks.build" (fun () -> build_net p "net") in
      span tr "des.traffic_run_setup" (fun () ->
          ignore (fabric_run p ~seed ~horizon:(num p "setup_horizon") net)))

(* Marginal cost: near-zero-horizon runs on the warm process price the
   set-up inside Traffic.run; each full-horizon repetition charges its
   events to its time minus their median.  One near-zero run precedes
   each full one, so both sample the same stretch of host time, and the
   host kernel is timed on both sides of the pair.  Every timed run
   starts from a collected heap, so one run's garbage is not the next
   one's work. *)
let fabric_measure p ~seed ~seconds =
  let t0 = now_ns () in
  let net = build_net p "net" in
  let setup_horizon = num p "setup_horizon" in
  ignore (fabric_run p ~seed ~horizon:setup_horizon net);
  let cold_setup = secs_since t0 in
  let run horizon =
    Gc.full_major ();
    timed (fun () -> fabric_run p ~seed ~horizon net)
  in
  let start = now_ns () in
  let zeros = ref [] and fulls = ref [] and peak = ref 0.0 in
  while !fulls = [] || secs_since start < seconds do
    let k0 = host_kernel () in
    zeros := snd (run setup_horizon) :: !zeros;
    let s, t_full = run (num p "horizon") in
    fulls := (s, t_full, (k0 +. host_kernel ()) /. 2.0) :: !fulls;
    if List.tl !fulls = [] then peak := peak_heap_mb ()
  done;
  let t_zero = median !zeros in
  let rep (s, t_full, kernel) =
    let marginal = t_full -. t_zero in
    Json.Obj
      [
        ("marginal_s", Json.Float marginal);
        ("host_kernel_s", Json.Float kernel);
        ("events_per_sec", Json.Float (float_of_int s.Traffic.events /. marginal));
        ("sim_time_per_s", Json.Float (s.sim_time /. marginal));
        ("digest", Json.String (stats_digest s));
        ("failed_checks", Json.List (fabric_checks p s));
        ("stats", stats_json s);
      ]
  in
  [
    ("setup_s", Json.Float cold_setup);
    ("peak_heap_mb", Json.Float !peak);
    ("zero_s", floats (List.rev !zeros));
    ("reps", Json.List (List.rev_map rep !fulls));
  ]

(* The fault mask as Traffic keeps it: failed switches are unusable and
   strip their internal endpoints. *)
type mask = { failed : Bytes.t; faulty_deg : int array }

(* The three constructors Traffic.run calls before its first event, in
   its order, each in its own span. *)
let fabric_constructors p tr net =
  let g = net.Network.graph in
  let n = Digraph.vertex_count g and m = Digraph.edge_count g in
  let mask = { failed = Bytes.make m '\000'; faulty_deg = Array.make n 0 } in
  let is_terminal = Array.make n false in
  List.iter (fun v -> is_terminal.(v) <- true) (Network.terminals net);
  let allowed v = is_terminal.(v) || mask.faulty_deg.(v) = 0 in
  let edge_ok e = Bytes.get mask.failed e = '\000' in
  span tr "fabric.constructors" (fun () ->
      ignore
        (span tr "des.shard_partition" (fun () ->
             Shard.partition net ~shards:(int p "shards")));
      let router =
        span tr "routing.router_create" (fun () ->
            Greedy.create ~allowed ~edge_ok ~engine:`Loop net)
      in
      let conn =
        span tr "reliability.dyn_conn_create" (fun () ->
            Dyn_conn.create ~terminals:(Network.terminals net) g)
      in
      (mask, router, conn))

(* Layer timings from outside: per-operation costs of the hot-path
   layers at the workload's steady state, then one traced replication
   for the event mix.  The constructors' cold times come from fresh
   processes ([constructors]), not from this warm one. *)
let fabric_ledger p ~seed tr =
  let rng = stream ~seed 6 in
  let net = build_net p "net" in
  let g = net.Network.graph in
  let n = Digraph.vertex_count g and m = Digraph.edge_count g in
  let mtbf = num p "mtbf" and mttr = num p "mttr" in
  let { failed; faulty_deg }, router, conn = fabric_constructors p None net in
  sp_open tr "fabric.hot_layers";
  (* steady-state failed fraction of an alternating mtbf/mttr process *)
  let frac = mttr /. (mtbf +. mttr) in
  for e = 0 to m - 1 do
    if Rng.bernoulli rng frac then begin
      Bytes.set failed e '\001';
      faulty_deg.(Digraph.edge_src g e) <- faulty_deg.(Digraph.edge_src g e) + 1;
      faulty_deg.(Digraph.edge_dst g e) <- faulty_deg.(Digraph.edge_dst g e) + 1
    end
  done;
  (* routing at the offered load's occupancy: release the oldest call,
     route a fresh idle pair *)
  let ins = net.Network.inputs and outs = net.Network.outputs in
  let idle arr =
    let rec pick () =
      let v = arr.(Rng.int rng (Array.length arr)) in
      if Greedy.busy router v then pick () else v
    in
    pick ()
  in
  let live = int_of_float (num p "load") in
  (* route_into wants a vertex-count buffer; live paths keep a copy *)
  let buf = Array.make n 0 in
  let paths = Array.make live [||] in
  let lens = Array.make live (-1) in
  let route k =
    let i = idle ins and o = idle outs in
    let len = Greedy.route_into router ~input:i ~output:o ~buf in
    if len >= 0 then paths.(k) <- Array.sub buf 0 len;
    lens.(k) <- len;
    len < 0
  in
  for k = 0 to live - 1 do
    ignore (route k)
  done;
  let ops = int p "route_ops" in
  let blocked = ref 0 in
  span tr "routing.route" (fun () ->
      for j = 0 to ops - 1 do
        let k = j mod live in
        if lens.(k) >= 0 then Greedy.release_buf router paths.(k) ~len:lens.(k);
        if route k then incr blocked
      done);
  (* Dyn_conn as the engine drives it: a closed failure closes its edge
     and asks for the catastrophe verdict; its repair only reopens (the
     next verdict pays the deferred rebuild) *)
  let batch = int p "dyn_conn_batch" in
  let cycles = max 1 (int p "dyn_conn_ops" / batch) in
  let edges = Array.make batch 0 in
  for _ = 1 to cycles do
    for j = 0 to batch - 1 do
      edges.(j) <- Rng.int rng m
    done;
    span tr "reliability.dyn_conn_close" (fun () ->
        Array.iter
          (fun e ->
            Dyn_conn.close conn e;
            ignore (Dyn_conn.terminals_shorted conn))
          edges);
    span tr "reliability.dyn_conn_reopen" (fun () ->
        Array.iter (fun e -> Dyn_conn.reopen conn e) edges)
  done;
  (* one shard's clock heap: pop the next clock, push its successor *)
  let shards = int p "shards" in
  let heap = Heap.create ~capacity:(m / shards) ~dummy:0 () in
  for e = 0 to (m / shards) - 1 do
    Heap.push heap ~time:(Rng.float rng *. mtbf) e
  done;
  let heap_ops = int p "heap_ops" in
  span tr "des.heap_push_pop" (fun () ->
      for _ = 1 to heap_ops do
        let t = Heap.min_time heap in
        let e = Heap.pop heap in
        Heap.push heap ~time:(t +. (Rng.float rng *. mtbf)) e
      done);
  sp_close tr "fabric.hot_layers";
  let horizon = num p "horizon" in
  let traced_run trace =
    let tr = if trace then tr else None in
    Gc.full_major ();
    let mw0 = Gc.minor_words () and maj0 = (Gc.quick_stat ()).Gc.major_collections in
    let s, t_full =
      timed (fun () ->
          span tr "des.traffic_run" (fun () -> fabric_run p ~seed ~horizon net))
    in
    let mw = Gc.minor_words () -. mw0 in
    let maj = (Gc.quick_stat ()).Gc.major_collections - maj0 in
    (s, t_full, mw, maj)
  in
  (* untraced runs on both sides of the traced one, so the order the
     process warms up in does not read as tracing overhead *)
  let s, t_before, mw, maj = traced_run false in
  let s', traced_full, _, _ = span tr "fabric.run" (fun () -> traced_run true) in
  let _, t_after, _, _ = traced_run false in
  let t_full = (t_before +. t_after) /. 2.0 in
  if stats_digest s <> stats_digest s' then fail "traced fabric run diverged";
  let ev = float_of_int s.events in
  fun l ->
    [
      ("routing.route_ns", Json.Float (self_ns l "routing.route" ~per:ops));
      ("routing.block_share", Json.Float (float_of_int !blocked /. float_of_int ops));
      ("reliability.dyn_conn_close_ns",
        Json.Float (self_ns l "reliability.dyn_conn_close" ~per:batch));
      ("reliability.dyn_conn_reopen_ns",
        Json.Float (self_ns l "reliability.dyn_conn_reopen" ~per:batch));
      ("des.heap_push_pop_ns", Json.Float (self_ns l "des.heap_push_pop" ~per:heap_ops));
      ("des.events", Json.Int s.events);
      ("des.arrival_share", Json.Float (float_of_int s.offered /. ev));
      ("des.fault_share", Json.Float (float_of_int (s.failures + s.repairs) /. ev));
      ("des.reroute_ratio",
        Json.Float (float_of_int s.rerouted /. float_of_int (max 1 s.dropped)));
      ("gc.minor_words_per_event", Json.Float (mw /. ev));
      ("gc.major_collections", Json.Int maj);
      ("trace.overhead_share.fabric-1M",
        Json.Float ((traced_full /. t_full) -. 1.0));
      ("failed", Json.Int (if fabric_checks p s = [] then 0 else 1));
    ]

(* ---------- serve-4k: the ftnet serve decision path, one client ---------- *)

type pass = {
  lat_ns : int array;  (** per call request, parse to last response *)
  mutable calls : int;
  mutable requests : int;
  mutable server_ns : int;  (** all requests, hangups included *)
  mutable minor_words : float;  (** allocated inside the server path *)
  mutable responses : int;
  mutable accepts : int;
  mutable no_path : int;
  mutable full : int;
  mutable overloads : int;
  mutable failed : int;  (** requests that failed a check *)
  mutable wire : string;  (** digest of the response stream *)
  mutable conserved : bool;
  mutable create_s : float;
}

(* One pass: a fresh engine on [net] and [requests_per_pass] requests
   from a closed-loop client.  The client draws Poisson call arrivals at
   [load] Erlangs and, with probability [hangup_share], instead hangs up
   one of the calls it saw accepted and not yet released (no [at], so
   the hangup lands before any expiry could fire).  Each request takes
   the path [ftnet serve --replay] takes: parse, admission, advance to
   the arrival time, handle, with every response serialized in [emit]. *)
let serve_pass ?(requests = "requests_per_pass") p ~seed ~tr net =
  Gc.full_major ();
  let requests = int p requests in
  let load = num p "load" and hangup_share = num p "hangup_share" in
  let crng = stream ~seed 3 in
  let pass =
    {
      lat_ns = Array.make requests 0; calls = 0; requests; server_ns = 0;
      minor_words = 0.0; responses = 0; accepts = 0; no_path = 0; full = 0;
      overloads = 0; failed = 0; wire = ""; conserved = false; create_s = 0.0;
    }
  in
  let outbox = ref [] in
  let wire = Buffer.create (1 lsl 20) in
  let emit r =
    sp_open tr "serve.proto.serialize";
    let line = Proto.response_to_string r in
    sp_close tr "serve.proto.serialize";
    Buffer.add_string wire line;
    Buffer.add_char wire '\n';
    outbox := r :: !outbox
  in
  let engine, create_s =
    timed (fun () ->
        span tr "serve.engine.create" (fun () ->
            Engine.create ~engine:`Loop ~mtbf:(num p "mtbf") ~mttr:(num p "mttr")
              ~emit ~rng:(stream ~seed 2) net))
  in
  pass.create_s <- create_s;
  let admission = Admission.max_load (num p "max_load") in
  let live = Array.make (Array.length net.Network.inputs) "" and live_n = ref 0 in
  let pos = Hashtbl.create 4096 in
  let add id =
    Hashtbl.replace pos id !live_n;
    live.(!live_n) <- id;
    incr live_n
  in
  let remove id =
    match Hashtbl.find_opt pos id with
    | None -> ()
    | Some i ->
        Hashtbl.remove pos id;
        decr live_n;
        let last = live.(!live_n) in
        if i < !live_n then begin
          live.(i) <- last;
          Hashtbl.replace pos last i
        end
  in
  let vt = ref 0.0 and next_id = ref 0 in
  sp_open tr "serve.pass";
  for _ = 1 to requests do
    let req =
      if !live_n > 0 && Rng.float crng < hangup_share then
        Proto.Hangup { id = live.(Rng.int crng !live_n); at = None }
      else begin
        vt := !vt -. (log (1.0 -. Rng.float crng) /. load);
        incr next_id;
        Proto.Call
          { id = "c" ^ string_of_int !next_id; src = None; dst = None; hold = None;
            at = Some !vt }
      end
    in
    let line = Proto.request_to_string req in
    outbox := [];
    let mw0 = Gc.minor_words () in
    let t0 = now_ns () in
    sp_open tr "serve.request";
    sp_open tr "serve.proto.parse";
    let parsed = Proto.parse_request line in
    sp_close tr "serve.proto.parse";
    (match parsed with
    | Error (id, msg) -> emit (Proto.error_response ~id msg)
    | Ok (Proto.Call { id; at; _ } as r) -> (
        sp_open tr "serve.admission.decide";
        let verdict =
          Admission.decide admission ~occupancy:(Engine.occupancy engine) ~queue_depth:0
        in
        sp_close tr "serve.admission.decide";
        match verdict with
        | Admission.Shed -> Engine.shed engine ~id
        | Admission.Admit ->
            Option.iter
              (fun a ->
                sp_open tr "serve.engine.advance";
                Engine.advance engine a;
                sp_close tr "serve.engine.advance")
              at;
            sp_open tr "serve.engine.handle";
            Engine.handle engine r;
            sp_close tr "serve.engine.handle")
    | Ok r ->
        sp_open tr "serve.engine.handle";
        Engine.handle engine r;
        sp_close tr "serve.engine.handle");
    sp_close tr "serve.request";
    let dt = now_ns () - t0 in
    pass.minor_words <- pass.minor_words +. (Gc.minor_words () -. mw0);
    pass.server_ns <- pass.server_ns + dt;
    (* the client reads its replies: exactly one decision per call, for
       that call, and no errors or catastrophes *)
    let call_id = match req with Proto.Call { id; _ } -> Some id | _ -> None in
    let decisions = ref 0 and ok = ref true in
    let decision id =
      incr decisions;
      if Some id <> call_id then ok := false
    in
    List.iter
      (fun r ->
        pass.responses <- pass.responses + 1;
        match r with
        | Proto.Accept { id; _ } ->
            pass.accepts <- pass.accepts + 1;
            add id;
            decision id
        | Proto.Block { id; reason; _ } ->
            (match reason with
            | Proto.Full -> pass.full <- pass.full + 1
            | Proto.No_path -> pass.no_path <- pass.no_path + 1);
            decision id
        | Proto.Overload { id; _ } ->
            pass.overloads <- pass.overloads + 1;
            decision id
        | Proto.Released { id; _ } | Proto.Dropped { id; _ } -> remove id
        | Proto.Rerouted _ | Proto.Snapshot _ -> ()
        | Proto.Error _ | Proto.Catastrophe _ -> ok := false)
      (List.rev !outbox);
    if !decisions <> (if call_id = None then 0 else 1) then ok := false;
    if not !ok then pass.failed <- pass.failed + 1;
    if call_id <> None then begin
      pass.lat_ns.(pass.calls) <- dt;
      pass.calls <- pass.calls + 1
    end
  done;
  sp_close tr "serve.pass";
  let m = Engine.metrics_json engine in
  let field k = Option.value ~default:(-1) (Option.bind (Json.member k m) Json.to_int) in
  pass.conserved <-
    field "offered" = pass.calls
    && field "offered" = field "accepted" + field "blocked" + field "overload";
  pass.wire <- Digest.to_hex (Digest.string (Buffer.contents wire));
  pass

let quantile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let sorted_latencies ps =
  let a = Array.sub ps.lat_ns 0 ps.calls in
  Array.sort compare a;
  a

let pass_stats ps =
  let lat = sorted_latencies ps in
  ( float_of_int ps.calls /. (float_of_int ps.server_ns *. 1e-9),
    float_of_int (quantile lat 0.5) /. 1e3,
    float_of_int (quantile lat 0.99) /. 1e3 )

let pass_json ps =
  let rate, p50, p99 = pass_stats ps in
  Json.Obj
    [
      ("decisions_per_sec", Json.Float rate);
      ("decision_p50_us", Json.Float p50);
      ("decision_p99_us", Json.Float p99);
      ("calls", Json.Int ps.calls); ("requests", Json.Int ps.requests);
      ("failed", Json.Int (ps.failed + if ps.conserved then 0 else 1));
      ("blocking",
        Json.Float (float_of_int (ps.no_path + ps.full) /. float_of_int ps.calls));
      ("digest", Json.String ps.wire);
    ]

(* The first pass warms the process and is checked but not timed.  The
   timed passes are pooled: the rate is all their call decisions over
   all their server time, the percentiles are over all their decisions.
   Each pass is also put on the host's reference speed: its times are
   scaled by host_kernel_ref_s over the mean of the kernel timed just
   before and just after it.  Pooling moves a raw result in proportion
   to the share of a run spent in each host phase, where a median of
   passes jumps between the phases' values; the scaling takes most of
   the phases out. *)
let serve_measure p ~seed ~seconds =
  let net, build_s = timed (fun () -> build_net p "net") in
  let first = serve_pass p ~seed ~tr:None net in
  let kernel_ref = num p "host_kernel_ref_s" in
  let start = now_ns () in
  let passes = ref [] and peak = ref 0.0 in
  while !passes = [] || secs_since start < seconds do
    let k0 = host_kernel () in
    let ps = serve_pass p ~seed ~tr:None net in
    passes := (ps, (k0 +. host_kernel ()) /. 2.0) :: !passes;
    if List.tl !passes = [] then peak := peak_heap_mb ()
  done;
  let pooled scale =
    let lat =
      Array.concat
        (List.map
           (fun (ps, k) -> Array.map (fun ns -> float_of_int ns *. scale k) (sorted_latencies ps))
           !passes)
    in
    Array.sort compare lat;
    let n = Array.length lat in
    let server_s =
      List.fold_left (fun acc (ps, k) -> acc +. (float_of_int ps.server_ns *. 1e-9 *. scale k)) 0.0
        !passes
    in
    let us q = Json.Float (lat.(min (n - 1) (int_of_float (q *. float_of_int n))) /. 1e3) in
    (n, Json.Float (float_of_int n /. server_s), us 0.5, us 0.99)
  in
  let samples, rate, p50, p99 = pooled (fun k -> kernel_ref /. k) in
  let _, raw_rate, raw_p50, raw_p99 = pooled (fun _ -> 1.0) in
  [
    ("setup_s", Json.Float (build_s +. first.create_s));
    ("peak_heap_mb", Json.Float !peak);
    ("decisions_per_sec", rate);
    ("decision_p50_us", p50);
    ("decision_p99_us", p99);
    ("raw", Json.Obj [ ("decisions_per_sec", raw_rate); ("decision_p50_us", raw_p50);
                        ("decision_p99_us", raw_p99) ]);
    ("samples", Json.Int samples);
    ("host_kernel_s", floats (List.rev_map snd !passes));
    ("reps", Json.List (List.map pass_json (first :: List.rev_map fst !passes)));
  ]

let serve_ledger p ~seed tr =
  let net = span tr "networks.build" (fun () -> build_net p "net") in
  let plain = serve_pass ~requests:"ledger_requests" p ~seed ~tr:None net in
  let traced = serve_pass ~requests:"ledger_requests" p ~seed ~tr net in
  if plain.wire <> traced.wire then fail "traced serve pass diverged";
  let calls = float_of_int plain.calls in
  let lat = sorted_latencies plain in
  fun l ->
    [
      ("serve.proto.parse_ns", Json.Float (self_ns l "serve.proto.parse"));
      ("serve.admission.decide_ns", Json.Float (self_ns l "serve.admission.decide"));
      ("serve.admission.shed_share", Json.Float (float_of_int plain.overloads /. calls));
      ("serve.engine.advance_ns", Json.Float (self_ns l "serve.engine.advance"));
      ("serve.engine.decide_ns", Json.Float (self_ns l "serve.engine.handle"));
      ("serve.proto.serialize_ns", Json.Float (self_ns l "serve.proto.serialize"));
      ("serve.accept_share", Json.Float (float_of_int plain.accepts /. calls));
      ("serve.block_no_path_share", Json.Float (float_of_int plain.no_path /. calls));
      ("serve.block_full_share", Json.Float (float_of_int plain.full /. calls));
      ("serve.responses_per_request",
        Json.Float (float_of_int plain.responses /. float_of_int plain.requests));
      ("serve.decision_p99_us", Json.Float (float_of_int (quantile lat 0.99) /. 1e3));
      ("serve.decision_samples", Json.Int plain.calls);
      ("gc.minor_words_per_decision", Json.Float (plain.minor_words /. calls));
      ("trace.overhead_share.serve-4k",
        Json.Float ((total_s l "serve.request" /. (float_of_int plain.server_ns *. 1e-9)) -. 1.0));
      ("failed", Json.Int (if plain.failed = 0 && plain.conserved then 0 else 1));
    ]

(* ---------- delta-1e-6: δ estimation, no DES ---------- *)

let delta_setup p tr =
  span tr "setup" (fun () ->
      let ft = span tr "networks.build" (fun () -> build_net p "survival_net") in
      let bn = span tr "networks.build_rare" (fun () -> build_net p "rare_net") in
      ignore (span tr "core.pipeline_ws_create" (fun () -> Pipeline.create_ws ft));
      ignore (span tr "core.rare_ws_create" (fun () -> Rare.create_ws bn));
      (ft, bn))

type delta = {
  surv : Ftcsn_reliability.Monte_carlo.estimate;
  surv_s : float;
  surv_minor_words : float;
  tilt : Splitting.tilt;
  tune_s : float;
  rare : Splitting.estimate;
  tilted_s : float;
}

(* the survival phase traces into the sink (its Trials chunk events are
   the sim layer's record); the rare phase only gets spans *)
let delta_pass ~survival_trials ~tilted_trials
    p ~seed ~streams:(s_surv, s_rare) ~tr (ft, bn) =
  Gc.full_major ();
  let mw0 = Gc.minor_words () in
  let surv, surv_s =
    timed (fun () ->
        span tr "core.pipeline.survival" (fun () ->
            Pipeline.survival ~jobs:1
              ?trace:(Option.map (fun t -> t.sink) tr)
              ~trials:(int p survival_trials) ~rng:(stream ~seed s_surv)
              ~eps:(num p "survival_eps") ~probe:Pipeline.sc_probe_only ft))
  in
  let surv_minor_words = Gc.minor_words () -. mw0 in
  let rng = stream ~seed s_rare and eps = num p "rare_eps" in
  let tilt, tune_s =
    timed (fun () ->
        span tr "core.rare.tune" (fun () ->
            Rare.tune_tilt ~iters:(int p "tune_iters") ~trials:(int p "tune_trials")
              ~rng ~eps bn))
  in
  let rare, tilted_s =
    timed (fun () ->
        span tr "core.rare.tilted" (fun () ->
            Rare.failure_tilted ~jobs:1 ~trials:(int p tilted_trials) ~rng ~eps ~tilt bn))
  in
  { surv; surv_s; surv_minor_words; tilt; tune_s; rare; tilted_s }

let re10 d = (d.tune_s +. d.tilted_s) *. ((d.rare.Splitting.rel_err /. 0.10) ** 2.0)

let delta_digest d =
  let s = d.surv and r = d.rare in
  digest
    [ string_of_int s.successes; string_of_int s.trials; hex s.mean; hex r.mean;
      hex r.rel_err; hex r.ci_low; hex r.ci_high; string_of_int r.evals ]

let delta_json d =
  let s = d.surv and r = d.rare in
  Json.Obj
    [
      ("survival_trials_per_sec", Json.Float (float_of_int s.trials /. d.surv_s));
      ("rare_s_to_re10", Json.Float (re10 d));
      ("survival", floats [ s.mean; s.ci_low; s.ci_high ]);
      ("survival_trials", Json.Int s.trials);
      ("rare", floats [ r.mean; r.ci_low; r.ci_high; r.rel_err ]);
      ("rare_trials", Json.Int r.trials);
      ("digest", Json.String (delta_digest d));
    ]

let delta_ledger p ~seed tr =
  let ((ft, bn) as nets) = delta_setup p tr in
  let pass tr =
    timed (fun () ->
        delta_pass ~survival_trials:"ledger_survival_trials"
          ~tilted_trials:"ledger_tilted_trials" p ~seed ~streams:(4, 5) ~tr nets)
  in
  let plain, plain_s = pass None in
  let traced, traced_s = span tr "delta.pass" (fun () -> pass tr) in
  if delta_digest plain <> delta_digest traced then fail "traced delta pass diverged";
  (* per-call costs of the layers one survival trial and one rare-event
     evaluation pass through *)
  let rng = stream ~seed 8 and eps = num p "survival_eps" in
  let fs = Fault_strip.create_ws ft and flow = Flow_route.create_ws ft in
  let pattern = Fault_strip.ws_pattern fs in
  let n = min (Network.n_inputs ft) (Network.n_outputs ft) in
  let rws = Rare.create_ws bn in
  let rpattern = Array.make (Rare.size rws) Fault.Normal in
  let micro = int p "micro_trials" in
  span tr "delta.layers" (fun () ->
      for _ = 1 to micro do
        span tr "reliability.fault_sample" (fun () ->
            Fault.sample_into rng ~eps_open:eps ~eps_close:eps pattern);
        span tr "core.fault_strip" (fun () -> Fault_strip.strip_into fs pattern);
        let allowed = Fault_strip.ws_allowed fs in
        let r = 1 + Rng.int rng n in
        let s = Rng.sample_without_replacement rng ~n ~k:r in
        let t = Rng.sample_without_replacement rng ~n ~k:r in
        span tr "flow.sc_probe" (fun () ->
            ignore
              (Flow_route.max_throughput_ws
                 ~forbidden:(fun v -> not (allowed v))
                 ~edge_ok:(Fault_strip.ws_edge_ok fs) flow ~input_indices:s
                 ~output_indices:t));
        Fault.sample_tilted_into rng ~tilt_open:plain.tilt.Splitting.t_open
          ~tilt_close:plain.tilt.Splitting.t_close rpattern;
        span tr "core.rare.fails" (fun () -> ignore (Rare.fails rws rng rpattern))
      done);
  fun l ->
    [
      ("reliability.fault_sample_ns", Json.Float (self_ns l "reliability.fault_sample"));
      ("core.fault_strip_ns", Json.Float (self_ns l "core.fault_strip"));
      ("flow.sc_probe_ns", Json.Float (self_ns l "flow.sc_probe"));
      ("sim.chunks", Json.Int l.chunks);
      ("sim.overhead_s", Json.Float (float_of_int (l.run_ns - l.chunk_ns) *. 1e-9));
      ("core.rare.tune_s", Json.Float (total_s l "core.rare.tune"));
      ("core.rare.tilted_s", Json.Float (total_s l "core.rare.tilted"));
      ("core.rare.fails_ns", Json.Float (self_ns l "core.rare.fails"));
      ("core.rare.evals", Json.Int plain.rare.Splitting.evals);
      ("core.rare.var_ratio", Json.Float plain.rare.Splitting.variance_ratio);
      ("gc.minor_words_per_trial",
        Json.Float (plain.surv_minor_words /. float_of_int plain.surv.trials));
      ("trace.overhead_share.delta-1e-6", Json.Float ((traced_s /. plain_s) -. 1.0));
      ("estimates", delta_json plain);
    ]

(* ---------- entry point ---------- *)

let setup_fn p = function
  | "fabric-1M" -> fun ~seed tr -> fabric_setup p ~seed tr
  | "serve-4k" ->
      fun ~seed tr ->
        span tr "setup" (fun () ->
            let net = span tr "networks.build" (fun () -> build_net p "net") in
            ignore
              (span tr "serve.engine.create" (fun () ->
                   Engine.create ~engine:`Loop ~mtbf:(num p "mtbf") ~mttr:(num p "mttr")
                     ~emit:ignore ~rng:(stream ~seed 2) net)))
  | w -> fail "unknown workload %S" w

let seed_of s = match int_of_string_opt s with Some n -> n | None -> fail "bad seed %S" s

let () =
  Ftcsn.Ft_topology.install ();
  match List.tl (Array.to_list Sys.argv) with
  | [ "host" ] ->
      print
        [
          ("ocaml", Json.String Sys.ocaml_version);
          ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
        ]
  | "setup" :: w :: seed :: trace_out ->
      let tr = match trace_out with [] -> None | _ -> Some (tracer ()) in
      let (), setup_s = timed (fun () -> setup_fn (params w) w ~seed:(seed_of seed) tr) in
      let layers =
        match (tr, trace_out) with
        | Some t, [ path ] ->
            let l = write_trace path t in
            [
              ("networks.build_s", Json.Float (total_s l "networks.build"));
              ("spans", Json.Obj
                 (Hashtbl.fold (fun k s acc -> (k, Json.Float (float_of_int s.total_ns *. 1e-9)) :: acc)
                    l.spans []));
            ]
        | _ -> []
      in
      print (("setup_s", Json.Float setup_s) :: layers)
  | [ "constructors"; "fabric-1M"; trace_out ] ->
      let p = params "fabric-1M" in
      let net = build_net p "net" in
      let t = tracer () in
      ignore (fabric_constructors p (Some t) net);
      let l = write_trace trace_out t in
      print
        (List.map
           (fun name -> (name ^ "_s", Json.Float (total_s l name)))
           [ "routing.router_create"; "des.shard_partition"; "reliability.dyn_conn_create" ])
  | [ "run"; w; seed; seconds ] ->
      let p = params w and seed = seed_of seed in
      let seconds =
        match float_of_string_opt seconds with Some s -> s | None -> fail "bad seconds %S" seconds
      in
      let fields =
        match w with
        | "fabric-1M" -> fabric_measure p ~seed ~seconds
        | "serve-4k" -> serve_measure p ~seed ~seconds
        | w -> fail "unknown workload %S" w
      in
      print fields
  | [ "ledger"; w; seed; trace_out ] ->
      let p = params w and seed = seed_of seed in
      let t = tracer () in
      let tr = Some t in
      let finish =
        span tr w (fun () ->
            match w with
            | "fabric-1M" -> fabric_ledger p ~seed tr
            | "serve-4k" -> serve_ledger p ~seed tr
            | "delta-1e-6" -> delta_ledger p ~seed tr
            | w -> fail "unknown workload %S" w)
      in
      print (finish (write_trace trace_out t))
  | [ "reference"; "delta-1e-6"; seed ] ->
      (* long-run reference on streams no workload seed uses *)
      let p = params "delta-1e-6" in
      let nets = delta_setup p None in
      let d =
        delta_pass ~survival_trials:"reference_survival_trials"
          ~tilted_trials:"reference_tilted_trials" p ~seed:(seed_of seed)
          ~streams:(1000, 1001) ~tr:None nets
      in
      print [ ("reference", delta_json d) ]
  | _ ->
      prerr_endline
        "usage: ftbench.exe (host | setup W SEED [TRACE] | run W SEED SECONDS | \
         ledger W SEED TRACE | constructors fabric-1M TRACE | reference delta-1e-6 SEED)";
      exit 2
