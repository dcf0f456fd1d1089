(** Beneš rearrangeable networks [B] and the looping algorithm.

    B(n) for n a power of two: a column of n/2 2×2 switches, two recursive
    B(n/2) halves, and an output column — size 4·(n/2)·(2 log₂ n − 1) =
    Θ(n log n), matching the Shannon lower bound [S].  The looping
    algorithm 2-colours the request graph (a union of two perfect
    matchings, hence even cycles) to split any permutation across the two
    halves, yielding vertex-disjoint routes for every permutation — the
    constructive proof of rearrangeability.

    In the graph formalism of the paper, a 2×2 switch is the complete
    bipartite graph K₂,₂ on wire vertices, so each switch contributes four
    graph edges (switch crosspoints). *)

(** The recursive block structure of {!make}, the tree {!route} descends.
    {!Layout} gives the same vertex and edge ids in closed form.
    [ins]/[outs] are vertex ids; at a [Split],
    entry switch [i] joins [ins.(2i)], [ins.(2i+1)] to [top_in.(i)],
    [bot_in.(i)] (complete bipartite), and symmetrically for the output
    column. *)
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

type t

val make : int -> t
(** [make n] for n ≥ 2 a power of two.  @raise Invalid_argument otherwise. *)

val root : t -> node

val network : t -> Network.t

val create : int -> Network.t
(** [network (make n)] — for callers that only need the graph. *)

(** Closed-form numbering of [make n]'s vertices and edges.

    [make] allocates ids in a fixed recursive order, so every wire vertex
    and every switch of B(n) is index arithmetic.  A {e block} is a
    B(2{^k}) sub-network named by four ints: its level [k], the base [ib]
    of its 2{^k} input wires (allocated by its parent), the base [vb] of
    the wire vertices it allocates itself, and the base [eb] of its
    switches.  Within a block of level [k > 1], [vb] numbers the entry
    wires of the top half ([h = 0]) then the bottom half ([h = 1]), then
    the two halves' own vertices, then the block's 2{^k} output wires;
    [eb] numbers the entry column's switches, then the two halves', then
    the exit column's.  The root block is [(log₂ n, 0, n, 0)]: inputs are
    vertices [0 .. n-1] and outputs are [wires (log₂ n) + j]. *)
module Layout : sig
  val wires : int -> int
  (** Vertices a level-[k] block allocates: V(2{^k}) = 2{^k}(2k − 1). *)

  val switches : int -> int
  (** Edges of a level-[k] block: E(2{^k}) = 2{^k+1}(2k − 1). *)

  val out_wire : k:int -> vb:int -> int -> int
  (** Output wire [j] of the block. *)

  val half_in : k:int -> vb:int -> h:int -> int -> int
  (** Input wire [i] of half [h] — also that half's [ib] at [i = 0]. *)

  val sub_vb : k:int -> vb:int -> h:int -> int
  (** [vb] of half [h]. *)

  val sub_eb : k:int -> eb:int -> h:int -> int
  (** [eb] of half [h]. *)

  val entry_switch : eb:int -> h:int -> int -> int
  (** The switch from input wire [r] to [half_in ~h (r / 2)]. *)

  val exit_switch : k:int -> eb:int -> h:int -> int -> int
  (** The switch from output wire [o / 2] of half [h] to output wire
      [o]. *)

  val leaf_switch : eb:int -> int -> int -> int
  (** In a level-1 block (one 2×2 switch), the switch from input wire
      [r] to output wire [o]. *)

  val matches : Network.t -> bool
  (** Whether the network is numbered exactly as [make n] numbers B(n),
      for [n] its input count: every terminal and every edge id where the
      layout puts it.  One sequential pass over the edge ids, O(m), no
      allocation; the network's name plays no part. *)

  val log2 : int -> int
  (** ⌊log₂ n⌋ for [n ≥ 1]. *)
end

val route : t -> Ftcsn_util.Perm.t -> int list array
(** [route t pi] = vertex-disjoint paths, one per input [i], from input
    vertex [i] to output vertex [pi.(i)].  Paths include both endpoints.
    @raise Invalid_argument when the permutation arity differs from n. *)

val switch_columns : t -> int
(** 2 log₂ n − 1. *)
