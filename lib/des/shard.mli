(** Stage-level edge sharding for the scaled traffic engine.

    A layered switching network (every registry family except the
    explicitly cyclic ones) admits a natural partition of its {e edges}
    by topological level: the level of an edge is the longest-path
    depth of its source vertex.  Open-switch failure and repair clocks
    on edges of disjoint level blocks never interact except through
    live calls, so the sharded engine ({!Traffic} with [shards > 1])
    gives each contiguous block of levels its own event heap, RNG
    stream, fault clocks and scratch buffers, and only escalates an
    event to the global control heap when it can touch shared state.

    Shard ids are bytes: at most 255 shards, stored as one byte per
    edge in a [Bytes.t] of length [edge_count]. *)

val regions : Ftcsn_networks.Network.t -> int
(** Number of shardable regions: the count of nonempty edge levels of
    the (acyclic) network, or [1] for a cyclic network.  [partition]
    accepts any [shards] between [1] and this value; [ftnet traffic]
    refuses larger [--shards] up front with this number in the
    message. *)

val max_shards : int
(** 255 — shard ids are stored one byte per edge. *)

val partition : Ftcsn_networks.Network.t -> shards:int -> Bytes.t
(** [partition net ~shards] maps every edge id to a shard id in
    [0 .. shards-1] ([Bytes.get] the edge id; see {!shard_of}).  Shards
    own contiguous level blocks, balanced by edge count, and every
    shard owns at least one nonempty level.  Deterministic: depends
    only on the graph structure.
    @raise Invalid_argument if [shards < 1], [shards > max_shards], or
    [shards > regions net]. *)

val shard_of : Bytes.t -> int -> int
(** [shard_of b e] is the shard id of edge [e] under partition [b]. *)
