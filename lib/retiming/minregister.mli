(** Exact minimum-register retiming (Leiserson–Saxe OPT: minimize the total
    register count, optionally subject to a clock-period bound), solved via
    the min-cost-flow dual of the difference-constraint LP.

    The register-count objective is the classical unshared one
    (Σ_e w_r(e)); registers shared along fanout stems are recovered by a
    sibling-merge pass after realization, as SIS did.  Realization by atomic
    moves can fail on initial states like any retiming here.

    Feasibility of the constraint system (edge legality, the optional
    period bound's W/D constraints and the mirror constraints) is decided by
    {!Minperiod.Internal.solve}, the solver min-period retiming uses.
    Graphs over 400 vertices are rejected with [Too_large] before any
    matrix is built. *)

val min_registers :
  ?target_period:float ->
  Netlist.Network.t ->
  model:Sta.model ->
  (Netlist.Network.t * int, Minperiod.failure) result
(** Returns the retimed copy and its register count.  With [target_period],
    only retimings meeting the period are considered ([Infeasible] when the
    bound is below the graph's minimum). *)
