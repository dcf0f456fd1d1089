(** The live call table shared by {!Traffic} and the serve engine.

    In the paper's model a circuit-switching network carries a set of
    calls, each holding a vertex-disjoint path through switches that
    have not failed.  This module is that set: the idle-input and
    idle-output pools, a structure-of-arrays store of calls in
    preallocated slots, the vertex → slot [owner] index, and the
    {!Ftcsn_routing.Greedy} router the paths are marked busy in.  The
    engines keep what differs between them: their event loop and clock
    scheme, their per-call payload (an array indexed by slot), and what
    they count or emit when a call is placed, severed or released.

    At most [min n_inputs n_outputs] calls are ever live, so slots are
    preallocated and recycled through an intrusive freelist; the live
    set is an intrusive doubly-linked list through [c_prev]/[c_next].
    Per-slot path and edge buffers grow once to the path length and are
    reused, so place, sever, reroute and release allocate nothing.

    {2 Hangup keys}

    A pending hangup carries [key t slot = stamp * cap + slot].  The
    slot's stamp bumps only on a {e permanent} {!release}, never on a
    sever whose call is rerouted into the same slot, so a rerouted
    call's pending hangup stays valid and a released slot's old key
    reads as stale ({!slot_of_key} returns [-1]). *)

(** Index pool over [0, n): [items] is a permutation whose prefix
    [0, size) is the idle set, [pos] its inverse — O(1) take and return
    and an exactly-uniform draw over the idle set. *)
type pool = private { items : int array; pos : int array; mutable size : int }

type t = private {
  net : Ftcsn_networks.Network.t;
  router : Ftcsn_routing.Greedy.t;
  cap : int;  (** slot count: [min n_inputs n_outputs] *)
  c_in : int array;  (** input index (not vertex id) of the slot's call *)
  c_out : int array;
  c_stamp : int array;
  c_plen : int array;  (** path length in vertices *)
  c_path : int array array;  (** path vertices [0 .. c_plen - 1] *)
  c_edges : int array array;  (** switch of each hop [0 .. c_plen - 2] *)
  c_prev : int array;
  c_next : int array;  (** live-list next, or freelist next when free *)
  mutable live_head : int;
  mutable live_count : int;
  mutable free_head : int;
  owner : int array;  (** vertex → slot of the live call holding it, or -1 *)
  idle_in : pool;  (** idle input indices *)
  idle_out : pool;
  route_buf : int array;  (** {!route}'s path vertices *)
  route_ebuf : int array;  (** ... and the switches of its hops *)
  mutable max_concurrent : int;  (** most calls live at once so far *)
}

val create : router:Ftcsn_routing.Greedy.t -> Ftcsn_networks.Network.t -> t
(** An empty table over an idle fabric; [router] must route on the same
    network. *)

val is_idle : pool -> int -> bool

val draw : Ftcsn_prng.Rng.t -> pool -> int
(** A uniform idle index (one [Rng.int] draw); the pool must be
    non-empty. *)

val route : t -> i:int -> o:int -> int
(** Route input index [i] to output index [o] into [route_buf] /
    [route_ebuf], marking the path busy in the router; its length, or
    [-1] when blocked.  Allocates nothing. *)

val place : t -> i:int -> o:int -> len:int -> int
(** Take a free slot for a new call [i → o] on the path {!route} just
    left in the buffers (length [len]) and put it live; returns the
    slot.  [i] and [o] must be idle. *)

val place_list : t -> i:int -> o:int -> int list -> int
(** {!place} for a path given as a vertex list that is already busy in
    the router — the cold path of saturation and rearrangement. *)

val relay : t -> int list -> int list list -> unit
(** [relay t slots paths] migrates the live calls [slots] onto [paths]
    (pairwise, same endpoints): every old path is released in the router
    first, then each new one is occupied and adopted in order.  The
    rearrangement fallback's re-lay; slots and stamps are kept. *)

val live_slots : t -> int list
(** The live slots (cold; order unspecified). *)

val vacate : t -> int -> unit
(** Take a live call off the network — release its path, clear
    [owner], return its endpoints to the pools — but keep its slot and
    stamp, for {!reroute} or {!release}. *)

val release : t -> int -> unit
(** Return a vacated slot to the freelist for good, bumping its stamp so
    every pending key for it reads as stale. *)

val key : t -> int -> int
(** The hangup key of a slot's current occupancy. *)

val slot_of_key : t -> int -> int
(** The slot a hangup key names, or [-1] when its occupancy has been
    released since the key was taken. *)

val sever : t -> e:int -> int -> int
(** [sever t ~e v]: if the live call holding vertex [v] has switch [e]
    on its path, {!vacate} it and return its slot; otherwise [-1].  The
    fault handlers call this for both endpoints of a failed switch. *)

val reroute : t -> int -> bool
(** Route a vacated call's endpoint pair again and, on success, put the
    new path live in the same slot under the same stamp (its pending
    hangup stays valid); [false] leaves the slot vacated. *)
