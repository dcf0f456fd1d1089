module Digraph = Ftcsn_graph.Digraph
module Perm = Ftcsn_util.Perm

type node =
  | Switch of { ins : int array; outs : int array }
  | Split of {
      ins : int array;
      outs : int array;
      top_in : int array;
      bot_in : int array;
      top_out : int array;
      bot_out : int array;
      top : node;
      bot : node;
    }

type t = {
  net : Network.t;
  root : node;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let k22 b ~srcs ~dsts =
  Array.iter
    (fun s ->
      Array.iter (fun d -> ignore (Digraph.Builder.add_edge b ~src:s ~dst:d)) dsts)
    srcs

let rec build b ins =
  let n = Array.length ins in
  if n = 2 then begin
    let outs = Array.init 2 (fun _ -> Digraph.Builder.add_vertex b) in
    k22 b ~srcs:ins ~dsts:outs;
    (Switch { ins; outs }, outs)
  end
  else begin
    let half = n / 2 in
    let top_in = Array.init half (fun _ -> Digraph.Builder.add_vertex b) in
    let bot_in = Array.init half (fun _ -> Digraph.Builder.add_vertex b) in
    for i = 0 to half - 1 do
      k22 b
        ~srcs:[| ins.(2 * i); ins.((2 * i) + 1) |]
        ~dsts:[| top_in.(i); bot_in.(i) |]
    done;
    let top, top_out = build b top_in in
    let bot, bot_out = build b bot_in in
    let outs = Array.init n (fun _ -> Digraph.Builder.add_vertex b) in
    for i = 0 to half - 1 do
      k22 b
        ~srcs:[| top_out.(i); bot_out.(i) |]
        ~dsts:[| outs.(2 * i); outs.((2 * i) + 1) |]
    done;
    (Split { ins; outs; top_in; bot_in; top_out; bot_out; top; bot }, outs)
  end

let make n =
  if not (is_power_of_two n) || n < 2 then
    invalid_arg "Benes.make: n must be a power of two >= 2";
  let b = Digraph.Builder.create () in
  let inputs = Array.init n (fun _ -> Digraph.Builder.add_vertex b) in
  let root, outputs = build b inputs in
  let net =
    Network.make
      ~name:(Printf.sprintf "benes-%d" n)
      ~graph:(Digraph.Builder.freeze b) ~inputs ~outputs
  in
  { net; root }

let network t = t.net

let create n = network (make n)

(* [build] allocates each block's vertices as top_in, bot_in, the two
   halves, outs, and its edges as the entry column, the two halves, the
   exit column; the sizes below follow from that order:
   V(2) = 2, V(2^k) = 2^(k+1) + 2 V(2^(k-1))  =>  V(2^k) = 2^k (2k - 1);
   E(2) = 4, E(2^k) = 2^(k+2) + 2 E(2^(k-1))  =>  E(2^k) = 2^(k+1) (2k - 1). *)
module Layout = struct
  let wires k = (1 lsl k) * ((2 * k) - 1)
  let switches k = (1 lsl (k + 1)) * ((2 * k) - 1)
  let out_wire ~k ~vb j = vb + wires k - (1 lsl k) + j
  let half_in ~k ~vb ~h i = vb + (h lsl (k - 1)) + i
  let sub_vb ~k ~vb ~h = vb + (1 lsl k) + (h * wires (k - 1))
  let sub_eb ~k ~eb ~h = eb + (1 lsl (k + 1)) + (h * switches (k - 1))

  let entry_switch ~eb ~h r = eb + (2 * r) + h

  let exit_switch ~k ~eb ~h o =
    eb + (1 lsl (k + 1)) + (2 * switches (k - 1)) + (4 * (o lsr 1)) + (2 * h)
    + (o land 1)

  let leaf_switch ~eb r o = eb + (2 * r) + o

  (* The verification walks every block in allocation order, so it reads
     edge ids 0, 1, 2, ... once each; all helpers are top-level and take
     ints, so the pass allocates nothing. *)
  let edge_is g e ~src ~dst =
    Digraph.edge_src g e = src && Digraph.edge_dst g e = dst

  let rec entry_ok g ~k ~ib ~vb ~eb r =
    r = 1 lsl k
    || edge_is g (entry_switch ~eb ~h:0 r) ~src:(ib + r)
         ~dst:(half_in ~k ~vb ~h:0 (r / 2))
       && edge_is g (entry_switch ~eb ~h:1 r) ~src:(ib + r)
            ~dst:(half_in ~k ~vb ~h:1 (r / 2))
       && entry_ok g ~k ~ib ~vb ~eb (r + 1)

  (* exit switch i joins output wire i of each half to outs 2i, 2i+1 *)
  let rec exit_ok g ~k ~vb ~eb i =
    i = 1 lsl (k - 1)
    || exit_half_ok g ~k ~vb ~eb ~h:0 i
       && exit_half_ok g ~k ~vb ~eb ~h:1 i
       && exit_ok g ~k ~vb ~eb (i + 1)

  and exit_half_ok g ~k ~vb ~eb ~h i =
    let src = out_wire ~k:(k - 1) ~vb:(sub_vb ~k ~vb ~h) i in
    edge_is g (exit_switch ~k ~eb ~h (2 * i)) ~src
      ~dst:(out_wire ~k ~vb (2 * i))
    && edge_is g (exit_switch ~k ~eb ~h ((2 * i) + 1)) ~src
         ~dst:(out_wire ~k ~vb ((2 * i) + 1))

  let rec block_ok g ~k ~ib ~vb ~eb =
    if k = 1 then
      edge_is g (leaf_switch ~eb 0 0) ~src:ib ~dst:(out_wire ~k ~vb 0)
      && edge_is g (leaf_switch ~eb 0 1) ~src:ib ~dst:(out_wire ~k ~vb 1)
      && edge_is g (leaf_switch ~eb 1 0) ~src:(ib + 1)
           ~dst:(out_wire ~k ~vb 0)
      && edge_is g (leaf_switch ~eb 1 1) ~src:(ib + 1)
           ~dst:(out_wire ~k ~vb 1)
    else
      entry_ok g ~k ~ib ~vb ~eb 0
      && sub_ok g ~k ~vb ~eb ~h:0
      && sub_ok g ~k ~vb ~eb ~h:1
      && exit_ok g ~k ~vb ~eb 0

  and sub_ok g ~k ~vb ~eb ~h =
    block_ok g ~k:(k - 1)
      ~ib:(half_in ~k ~vb ~h 0)
      ~vb:(sub_vb ~k ~vb ~h) ~eb:(sub_eb ~k ~eb ~h)

  let rec identity_from a base i =
    i = Array.length a || (a.(i) = base + i && identity_from a base (i + 1))

  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

  let matches (net : Network.t) =
    let n = Array.length net.Network.inputs and g = net.Network.graph in
    is_power_of_two n && n >= 2
    &&
    let k = log2 n in
    Array.length net.Network.outputs = n
    && Digraph.vertex_count g = n + wires k
    && Digraph.edge_count g = switches k
    && identity_from net.Network.inputs 0 0
    && identity_from net.Network.outputs (wires k) 0
    && block_ok g ~k ~ib:0 ~vb:n ~eb:0
end

(* Looping algorithm: two requests sharing an input switch (or an output
   switch) must take different halves.  The constraint graph is a union
   of two perfect matchings, i.e. a disjoint union of even cycles, which
   we 2-colour by walking each cycle. *)
let loop_colour pi =
  let n = Array.length pi in
  let colour = Array.make n (-1) in
  let inv = Perm.inverse pi in
  (* request r conflicts with the request sharing its input switch and the
     one sharing its output switch; the conflict graph is a union of two
     perfect matchings, hence even cycles, hence 2-colourable by BFS. *)
  let in_partner r = r lxor 1 in
  let out_partner r = inv.(pi.(r) lxor 1) in
  let stack = Stack.create () in
  for start = 0 to n - 1 do
    if colour.(start) = -1 then begin
      colour.(start) <- 0;
      Stack.push start stack;
      while not (Stack.is_empty stack) do
        let r = Stack.pop stack in
        List.iter
          (fun p ->
            if colour.(p) = -1 then begin
              colour.(p) <- 1 - colour.(r);
              Stack.push p stack
            end)
          [ in_partner r; out_partner r ]
      done
    end
  done;
  colour

let rec route_node node pi =
  let n = Array.length pi in
  match node with
  | Switch { ins; outs } ->
      Array.init n (fun i -> [ ins.(i); outs.(pi.(i)) ])
  | Split { ins; outs; top_in = _; bot_in = _; top_out = _; bot_out = _; top; bot }
    ->
      let half = n / 2 in
      let colour = loop_colour pi in
      (* build sub-permutations on switch indices *)
      let top_pi = Array.make half (-1) and bot_pi = Array.make half (-1) in
      for r = 0 to n - 1 do
        let isw = r / 2 and osw = pi.(r) / 2 in
        if colour.(r) = 0 then top_pi.(isw) <- osw else bot_pi.(isw) <- osw
      done;
      let top_paths = route_node top top_pi in
      let bot_paths = route_node bot bot_pi in
      Array.init n (fun r ->
          let isw = r / 2 in
          let mid =
            if colour.(r) = 0 then top_paths.(isw) else bot_paths.(isw)
          in
          (ins.(r) :: mid) @ [ outs.(pi.(r)) ])

let route t pi =
  let n = Network.n_inputs t.net in
  if Array.length pi <> n then invalid_arg "Benes.route: arity";
  if not (Perm.is_valid pi) then invalid_arg "Benes.route: not a permutation";
  route_node t.root pi

let switch_columns t = (2 * Layout.log2 (Network.n_inputs t.net)) - 1

let root t = t.root
