(** Unreachable-state external don't-cares via implicit state enumeration
    (BDD reachability), the paper's baseline technique [23][24][25][26].

    The paper notes this is computationally prohibitive for large circuits;
    {!unreachable_states} therefore takes an effort cap and raises
    {!Too_large} beyond it, letting flows fall back gracefully. *)

exception Too_large of string
(** The engine's exception, [Sim.Symbolic.Too_large]. *)

type result = {
  latch_order : Netlist.Network.node list;  (** variable order used *)
  reachable : Logic.Cover.t;   (** over latch variables in [latch_order] *)
  unreachable : Logic.Cover.t;
  num_reachable : float;
}

val unreachable_states :
  ?max_latches:int -> ?max_bdd_nodes:int -> Netlist.Network.t -> result
(** Fixpoint image computation from the initial state.  [Ix] initial values
    range over both binary values. *)

val simplify_with_unreachable :
  ?max_latches:int -> ?max_leaves:int -> Netlist.Network.t -> int
(** Simplify every latch data cone and primary-output cone using the
    unreachable-state DC set (restricted to the latch leaves of each cone).
    Returns the number of cones rebuilt; 0 when reachability is too large. *)
