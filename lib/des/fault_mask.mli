(** The live fault mask of the DES engines, one byte per switch and one
    byte per vertex.

    {!Traffic} and [Ftcsn_serve.Engine] route every call through a
    {!Ftcsn_routing.Greedy} router whose [allowed]/[edge_ok] predicates
    read this mask, so its footprint is what the router's inner loop
    touches per visited vertex.  A switch (edge) byte is [normal], open
    or closed; a vertex byte is usable, stripped or terminal.  A vertex
    is stripped while at least one incident switch is failed, unless it
    is a terminal: terminals stay routable (their failed switches are
    excluded by [edge_ok] alone), internal vertices are dropped whole,
    as [Fault_strip] does.

    The failed-switch count per vertex ([faulty_deg]) is kept beside the
    bytes; only fault events touch it. *)

type t

val create : Ftcsn_networks.Network.t -> t
(** An all-normal mask over the network's switches and vertices. *)

val allowed : t -> int -> bool
(** [allowed t] is the router's vertex predicate: a terminal, or a
    vertex with no failed incident switch.  Partially apply it once; the
    returned closure only reads the vertex bytes. *)

val edge_ok : t -> int -> bool
(** [edge_ok t] is the router's switch predicate: the switch is normal.
    Partially apply it once. *)

val is_normal : t -> int -> bool
(** [is_normal t e]: switch [e] is neither open- nor closed-failed. *)

val is_closed : t -> int -> bool
(** [is_closed t e]: switch [e] is closed-failed. *)

val set_failed : t -> int -> closed:bool -> unit
(** Mark switch [e] failed (open or closed) without touching the
    vertices; the caller owes one {!shift} [+1] per distinct endpoint.
    The sharded engine's drains use this to keep vertex updates for the
    window commit. *)

val set_normal : t -> int -> unit
(** Mark switch [e] normal again; the caller owes one {!shift} [-1] per
    distinct endpoint. *)

val shift : t -> int -> int -> unit
(** [shift t v d] adds [d] to vertex [v]'s failed-switch count and
    re-derives its byte (stripped iff the count is nonzero, terminals
    unchanged). *)

val fail : t -> int -> closed:bool -> unit
(** {!set_failed} plus the [+1] shifts on both endpoints (once for a
    self-loop). *)

val repair : t -> int -> unit
(** {!set_normal} plus the [-1] shifts on both endpoints. *)
