module Network = Ftcsn_networks.Network
module Digraph = Ftcsn_graph.Digraph

type t = {
  g : Digraph.t;
  sw : Bytes.t;  (* switch -> normal | open_failed | closed_failed *)
  vx : Bytes.t;  (* vertex -> usable | stripped | terminal *)
  faulty_deg : int array;  (* failed switches incident to each vertex *)
}

let normal = '\000'
let open_failed = '\001'
let closed_failed = '\002'
let usable = '\000'
let stripped = '\001'
let terminal = '\002'

let create net =
  let g = net.Network.graph in
  let n = Digraph.vertex_count g in
  let vx = Bytes.make n usable in
  List.iter (fun v -> Bytes.set vx v terminal) (Network.terminals net);
  { g; sw = Bytes.make (Digraph.edge_count g) normal; vx;
    faulty_deg = Array.make n 0 }

(* the router calls these per visited vertex and edge, always with ids of
   the mask's own graph *)
let allowed t =
  let vx = t.vx in
  fun v -> Bytes.unsafe_get vx v <> stripped

let edge_ok t =
  let sw = t.sw in
  fun e -> Bytes.unsafe_get sw e = normal

let is_normal t e = Bytes.get t.sw e = normal
let is_closed t e = Bytes.get t.sw e = closed_failed

let set_failed t e ~closed =
  Bytes.set t.sw e (if closed then closed_failed else open_failed)

let set_normal t e = Bytes.set t.sw e normal

let shift t v d =
  let k = t.faulty_deg.(v) + d in
  t.faulty_deg.(v) <- k;
  if Bytes.get t.vx v <> terminal then
    Bytes.set t.vx v (if k = 0 then usable else stripped)

let shift_ends t e d =
  let u = Digraph.edge_src t.g e and v = Digraph.edge_dst t.g e in
  shift t u d;
  if v <> u then shift t v d

let fail t e ~closed =
  set_failed t e ~closed;
  shift_ends t e 1

let repair t e =
  set_normal t e;
  shift_ends t e (-1)
