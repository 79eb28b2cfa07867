(** The symbolic reachability engine: BDD images over one variable frame.

    Every BDD state-space question in the flow goes through here — the
    baseline's unreachable-state don't-cares ([Dontcare.Reach]), the
    product-machine equivalence checks ({!Equiv.seq_equal_bdd},
    [Eqcheck.seq_check]) and the DC_ret class certificate
    ([Eqcheck.dcret_check]).  The engine owns:

    - {!build}: BDDs of a network's nodes, each folded from its cover over
      its fanins' BDDs;
    - the variable frame: primary inputs first, shared by sorted name, then
      for each modelled latch its present-state variable immediately
      followed by its next-state variable, so next-state variable [v] renames
      to present-state [v - 1];
    - the monolithic transition relation and the initial-state set ([Ix]
      latches range over both values);
    - one frontier fixpoint ({!reach}) that keeps its rings, and the
      backwards walk over those rings into an input trace ({!trace});
    - a node budget: past it every operation raises {!Too_large}. *)

exception Too_large of string
(** A node budget (or a client's size cap) was exceeded. *)

val build :
  ?budget:Bdd.man * int ->
  ?roots:int list ->
  Bdd.man ->
  Netlist.Network.t ->
  leaf:(Netlist.Network.node -> Bdd.t) ->
  (int, Bdd.t) Hashtbl.t
(** [build man net ~leaf] maps node ids to BDDs built in scope [man]:
    [leaf] gives each primary input and latch output, constants fold, and a
    logic node is the sum of its cover's cubes over its fanins.  [roots]
    restricts the build to their transitive fanin (default: every node).
    With [budget = (scope, cap)], raises {!Too_large} as soon as [scope]'s
    node count passes [cap] — [scope] may be an ancestor of [man] (see
    [Bdd.sub_scope]), so a memoised build can be charged separately from
    the budget it counts against. *)

val assignment : Bdd.man -> Bdd.t -> nvars:int -> bool array
(** A total assignment over variables [0 .. nvars-1] satisfying a non-false
    BDD (unconstrained variables are [false]). *)

type t
(** One machine, or the product of several, over one variable frame. *)

val create :
  ?max_nodes:int -> (Netlist.Network.t * Netlist.Network.node list) list -> t
(** [create parts] frames each network with the given modelled latches, in
    order, and builds the cones of its primary outputs and of the modelled
    latches' data inputs, the transition relation and the initial states.
    The modelled latches must include every latch those cones read.
    [max_nodes] (default unbounded) is the node budget of the whole
    computation, build and fixpoint alike. *)

val man : t -> Bdd.man

val num_latches : t -> int
(** Modelled latches over all parts. *)

val value : t -> part:int -> int -> Bdd.t
(** BDD of a node (by id) of part [part], counted from 0.  Defined on the
    cones of the outputs and the modelled latches' data inputs. *)

val state_var : t -> part:int -> Netlist.Network.node -> int option
(** Present-state variable of a latch of part [part]; [None] when the latch
    is not modelled. *)

val init : t -> Bdd.t

val image : t -> Bdd.t -> Bdd.t
(** States reachable in one step from a set of states. *)

type outcome =
  | Closed of Bdd.t  (** the fixpoint: every state reached *)
  | Hit of { bad : Bdd.t; rings : Bdd.t list }
      (** [bad] meets the frontier: [bad] is that intersection, [rings] the
          frontiers from the start (oldest first; the last one is where
          [bad] was hit) *)

val reach : ?bad:Bdd.t -> ?delay:int -> ?from:Bdd.t -> t -> outcome
(** Frontier fixpoint from [from] (default {!init}) advanced by [delay]
    (default 0) exact image steps, stopping at the first frontier that
    meets [bad] (default: none). *)

val reachable : t -> Bdd.t
(** The states reachable from {!init}. *)

type trace = {
  inputs : (string * bool) list list;
      (** input vectors of the cycles leading from [start] to [witness] *)
  start : bool array;  (** assignment whose state variables are the start *)
  witness : bool array;  (** assignment in the [bad] set of the last cycle *)
}

val trace : t -> bad:Bdd.t -> Bdd.t list -> trace
(** Walk the rings of a {!Hit} backwards: from a witness in [bad], pick in
    each earlier ring a predecessor state and the input that steps it
    forward. *)

val input_vector : t -> bool array -> (string * bool) list
(** The primary-input values of an assignment, by name. *)

val latch_space : t -> Bdd.t -> Bdd.t
(** Renumber a set of states so that the [j]-th modelled latch (frame
    order) is variable [j]. *)

val observable_latches : Netlist.Network.t -> Netlist.Network.node list
(** Latches in the transitive fanin of some primary output, crossing latches
    through their data inputs.  The others never influence an output. *)

val interface_mismatch :
  Netlist.Network.t -> Netlist.Network.t -> string option
(** Why two networks cannot be compared as machines: differing primary
    input or primary output names. *)

val product : ?max_nodes:int -> Netlist.Network.t -> Netlist.Network.t -> t * Bdd.t
(** The product machine of two networks with matching interfaces over their
    observable latches, and the states and inputs on which some primary
    output differs. *)
