(** Leiserson–Saxe minimum-period retiming: the one min-period engine.

    The retiming graph has one vertex per logic node plus a host vertex for
    the environment; edge weights count the latches between logic nodes.
    Each call builds the W/D matrices once; a period is feasible iff the
    edge and W/D difference constraints have a solution, decided by the one
    Bellman–Ford solver {!Internal.solve} (shared with {!Minregister}).  The
    minimum period is found by binary search over the distinct D values.
    Graphs over 1200 vertices fail with [Too_large] before W/D is built.

    A computed retiming vector is *realized* on the netlist as a sequence of
    atomic moves (so that initial states are computed move by move); this can
    fail when a backward move has no initial-state preimage — the same
    failure mode the paper reports for SIS retiming.

    Metrics: [retiming.min_period.probes] counts feasibility probes;
    [retiming.min_period.failed.<too_large|infeasible|init_state|stuck>]
    counts failed {!retime_min_period} calls by cause (a search exhausted by
    realization failures returns [Infeasible] but counts the last of them). *)

type failure =
  | Too_large of int  (** vertex count beyond the effort cap *)
  | Infeasible
  | Init_state of string
      (** a backward move could not compute an initial state *)
  | Stuck of string  (** move sequencing deadlocked *)

val failure_message : failure -> string

val min_feasible_period : Netlist.Network.t -> Sta.model -> (float, failure) result
(** Best period any retiming can achieve (graph-level; ignores initial-state
    realizability). *)

val retime_min_period :
  ?current_period:float ->
  Netlist.Network.t -> model:Sta.model ->
  (Netlist.Network.t * float, failure) result
(** Retime a copy of the network to the minimum feasible period.  When
    realization fails at the optimum the next achievable candidate periods
    are tried before giving up, mirroring practical retiming tools.
    Candidate periods are filtered against [current_period] when given (e.g.
    from an incremental timer, see {!Sta.Incremental}), saving the full
    analysis otherwise needed here.  The input network is not modified. *)

(**/**)

(** Shared infrastructure for other retiming objectives (used by
    {!Minregister}) and for the tests' reference algorithms. *)
module Internal : sig
  type graph = {
    nv : int;                        (** vertex 0 is the host *)
    delay : float array;
    edges : (int * int * int) list;  (** (u, v, register count) *)
    node_of_vertex : int array;
  }

  val build_graph : Netlist.Network.t -> Sta.model -> graph

  val wd_matrices : graph -> int array array * float array array

  val period_constraints :
    int array array * float array array -> float ->
    (int -> int -> int -> unit) -> unit
  (** [period_constraints wd period f] calls [f u v (W(u,v) - 1)] for every
      pair with [D(u,v) > period + 1e-9]. *)

  val solve : int -> ((int -> int -> int -> unit) -> unit) -> int array option
  (** [solve n iter] solves r(u) - r(v) <= c over the constraints [(u, v, c)]
      that [iter f] passes to [f], on vertices [0 .. n-1].  Returns the
      greatest solution <= 0 shifted so that r(0) = 0 (independent of the
      enumeration order), or [None] when the system has a negative cycle. *)

  val feasible :
    graph -> int array array * float array array -> float -> int array option
  (** A retiming meeting the period (host label 0), or [None]. *)

  val candidate_periods : int array array * float array array -> float list
  (** The distinct finite D values, ascending, near-equal values (within
      1e-9) collapsed onto the lowest. *)

  val realize :
    Netlist.Network.t -> graph -> int array -> (unit, failure) result
  (** Apply a retiming vector (indexed by vertex; host must be 0) to the
      network by atomic moves. *)
end
