module Network = Ftcsn_networks.Network
module Layout = Ftcsn_networks.Benes.Layout
module Metrics = Ftcsn_obs.Metrics
module Counter = Ftcsn_obs.Counter

(* requests answered by the staged search instead of the descent, in
   every router of the process *)
let c_fallback = Metrics.counter Metrics.default "loop_route.fallback"

type t = {
  net : Network.t;
  n : int;
  lg : int;  (* log2 n: the root block's level *)
  nv : int;
  plen : int;  (* every input->output path has 2 log2 n vertices *)
  budget : int;  (* descent block-visit cap before falling back *)
  mutable staged : Staged_route.t option;  (* exact fallback, built lazily *)
  mutable budget_left : int;
  mutable descended : bool;
}

(* raised by the descent when the visit cap runs out; constant, so the
   raise itself allocates nothing *)
exception Budget_exhausted

let create net =
  if not (Layout.matches net) then None
  else begin
    let n = Network.n_inputs net in
    let lg = Layout.log2 n in
    Some
      {
        net;
        n;
        lg;
        nv = n + Layout.wires lg;
        plen = 2 * lg;
        budget = 16 * ((2 * lg) - 1);
        staged = None;
        budget_left = 0;
        descended = false;
      }
  end

let path_length t = t.plen

let descended t = t.descended

(* Descend the blocks of Benes.Layout.  A request entering a level-k
   block (k > 1) at input wire [r] bound for output wire [o] has exactly
   two continuations — via the top or the bottom half — because entry
   switch r/2 only reaches the halves' input wires r/2, and a sub-route
   cannot change halves.  Trying both therefore enumerates every path in
   the graph: exhaustive failure is a true block, no search needed.  Each
   level writes its own two wire vertices at [lo]/[hi], checks the two
   half-entry/exit vertices and their two switches, and records those
   switches at [lo]/[hi - 1]; deeper vertices are the recursion's own
   endpoints.  Everything is ints and the caller's closures, so the
   descent allocates nothing. *)
let rec try_block t ~allowed ~edge_ok ~k ~ib ~vb ~eb r o lo hi buf ebuf =
  t.budget_left <- t.budget_left - 1;
  if t.budget_left < 0 then raise Budget_exhausted;
  buf.(lo) <- ib + r;
  buf.(hi) <- Layout.out_wire ~k ~vb o;
  if k = 1 then begin
    let e = Layout.leaf_switch ~eb r o in
    ebuf.(lo) <- e;
    edge_ok e
  end
  else
    try_half t ~allowed ~edge_ok ~k ~vb ~eb ~h:0 r o lo hi buf ebuf
    || try_half t ~allowed ~edge_ok ~k ~vb ~eb ~h:1 r o lo hi buf ebuf

and try_half t ~allowed ~edge_ok ~k ~vb ~eb ~h r o lo hi buf ebuf =
  let sub_ib = Layout.half_in ~k ~vb ~h 0 and sub_vb = Layout.sub_vb ~k ~vb ~h in
  let hin = sub_ib + (r / 2)
  and hout = Layout.out_wire ~k:(k - 1) ~vb:sub_vb (o / 2) in
  let e_in = Layout.entry_switch ~eb ~h r
  and e_out = Layout.exit_switch ~k ~eb ~h o in
  allowed hin && allowed hout && edge_ok e_in && edge_ok e_out
  && begin
       ebuf.(lo) <- e_in;
       ebuf.(hi - 1) <- e_out;
       try_block t ~allowed ~edge_ok ~k:(k - 1) ~ib:sub_ib ~vb:sub_vb
         ~eb:(Layout.sub_eb ~k ~eb ~h) (r / 2) (o / 2) (lo + 1) (hi - 1) buf
         ebuf
     end

let staged t =
  match t.staged with
  | Some s -> s
  | None -> (
      (* a Beneš is strictly staged, so this cannot fail on a network
         [create] accepted *)
      match Staged_route.create t.net with
      | Some s ->
          t.staged <- Some s;
          s
      | None -> invalid_arg "Loop_route: Beneš is not strictly staged")

let fallback t ~allowed ~edge_ok ~src ~dst ~buf =
  Counter.incr c_fallback;
  Staged_route.route_into (staged t) ~allowed ~edge_ok ~src ~dst ~buf

let route_into t ~allowed ~edge_ok ~src ~dst ~buf ~ebuf =
  if src < 0 || src >= t.nv || dst < 0 || dst >= t.nv then
    invalid_arg "Loop_route.route_into: vertex out of range";
  if Array.length buf < max t.plen 1 || Array.length ebuf < t.plen - 1 then
    invalid_arg "Loop_route.route_into: buffer too small";
  t.descended <- false;
  if src = dst then begin
    buf.(0) <- src;
    1
  end
  else begin
    let out_base = t.nv - t.n in
    if src >= t.n || dst < out_base then
      (* not an input->output request: the layout says nothing, so
         answer with the exact staged search *)
      fallback t ~allowed ~edge_ok ~src ~dst ~buf
    else begin
      t.budget_left <- t.budget;
      match
        try_block t ~allowed ~edge_ok ~k:t.lg ~ib:0 ~vb:t.n ~eb:0 src
          (dst - out_base) 0 (t.plen - 1) buf ebuf
      with
      | true ->
          t.descended <- true;
          t.plen
      | false -> -1
      | exception Budget_exhausted ->
          fallback t ~allowed ~edge_ok ~src ~dst ~buf
    end
  end
