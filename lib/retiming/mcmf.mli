(** Minimum-cost flow by successive shortest augmenting paths (SPFA, so
    negative arc costs are fine as long as there is no negative cycle).
    Used by the exact min-register retiming: the LP dual of the
    difference-constraint program is a transshipment problem, and the
    potentials of the final residual network are the optimal retiming
    labels. *)

type t

val create : int -> t
(** [create n] makes a flow network on nodes [0 .. n-1]. *)

val add_edge : t -> src:int -> dst:int -> capacity:int -> cost:int -> unit

val max_flow_min_cost : t -> source:int -> sink:int -> int * int
(** Pushes as much flow as possible from [source] to [sink] at minimum cost;
    returns [(flow, cost)]. *)

val residual_constraints : t -> (int -> int -> int -> unit) -> unit
(** [residual_constraints t f] calls [f v u cost] for every arc [u -> v]
    with residual capacity: the difference constraints
    [p(v) - p(u) <= cost] whose solutions, after {!max_flow_min_cost}, are
    optimal dual potentials of the underlying LP (solve them with
    {!Minperiod.Internal.solve}). *)
