(** Structure-aware single-request routing on Beneš networks.

    {!Ftcsn_networks.Benes.route} runs the looping algorithm on whole
    permutations; the DES routes one call at a time.  This router applies
    the same idea per request: in each block of the recursive Beneš a
    request has exactly two continuations — through the top or the bottom
    half — so assigning halves block by block visits O(log n) blocks on
    the fault-free fast path instead of searching the flat graph.  Blocks
    are four ints and every vertex and switch id is
    {!Ftcsn_networks.Benes.Layout} arithmetic, so a route reads only the
    fault and busy masks.  The two-way descent enumerates {e every}
    input→output path, so exhaustive failure is a genuine block; a visit
    budget (O(depth) blocks) caps pathological fault patterns, after
    which the router falls back to the exact {!Staged_route} search —
    accept/block decisions always match the full-BFS oracle.

    Like {!Staged_route}, a route call allocates zero minor words; it is
    the [Route_loop] DES policy and the [--policy loop] CLI spelling.
    Every fallback bumps the [loop_route.fallback] counter of
    {!Ftcsn_obs.Metrics.default}. *)

type t

val create : Ftcsn_networks.Network.t -> t option
(** [Some] exactly when {!Ftcsn_networks.Benes.Layout.matches} accepts
    the network — one O(m) pass, whatever its name; [None] otherwise,
    and callers fall back to {!Staged_route} or plain BFS.  The staged
    fallback is built on first use. *)

val path_length : t -> int
(** Vertices on every input→output path: [2 log2 n]. *)

val route_into :
  t ->
  allowed:(int -> bool) ->
  edge_ok:(int -> bool) ->
  src:int ->
  dst:int ->
  buf:int array ->
  ebuf:int array ->
  int
(** Same contract as {!Staged_route.route_into}: path into
    [buf.(0 .. len-1)], length returned, [-1] iff a full BFS over the
    same masks would block.  When the descent answers ({!descended}), the
    switch of each hop [buf.(i) → buf.(i+1)] is also written to
    [ebuf.(i)]; requests whose endpoints are not an input/output pair,
    and those that exhaust the visit budget, are answered by the staged
    fallback, which leaves [ebuf] unspecified.
    @raise Invalid_argument on out-of-range vertices, or when [buf] is
    shorter than {!path_length} or [ebuf] than one less. *)

val descended : t -> bool
(** Whether the last {!route_into} found its path by the descent, so
    that [ebuf] holds the path's switches. *)
