(** Semantic equivalence analyzer: per-pass sequential equivalence checking
    modulo DC_ret.

    [lib/verify] proves structural invariants; this layer proves the
    {e semantic} claim the whole flow rests on — every pass preserves I/O
    behavior, and the retiming-induced register-equivalence classes really
    are invariants of the reachable state space.

    Three engines, one verdict lattice ({!Proved} > {!Unknown} > {!Refuted}):

    - {!comb_check} — combinational equivalence of pre/post-pass next-state
      and output cones over shared leaves (primary inputs and present-state
      registers, matched by name), via BDDs with a {!Sat_lite} fallback past
      the node budget.  DC_ret cubes are satisfiability don't-cares: states
      where replicated registers disagree are excluded from the comparison.
    - {!seq_check} — product-machine sequential equivalence from the
      preserved initial states, with a counterexample {e input trace}
      extracted by walking the reachability rings backwards and confirmed by
      replaying it through [Sim.Simulate] on both netlists.
    - {!dcret_check} — bounded reachability over the latch state space
      certifying each DC_ret class is an invariant: the XOR of replicated
      registers is 0 in every reachable state from the preserved initial
      state.

    Every engine is budgeted (state-bit caps, a BDD node cap, a SAT conflict
    cap) and degrades to an explicit {!Unknown} — never to silence and never
    to a spurious refutation.  A {!Refuted} verdict always carries a
    simulation-confirmed counterexample; a candidate the replay cannot
    reproduce is downgraded to {!Unknown}. *)

type options = {
  max_state_bits : int;
      (** latch cap for {!dcret_check} reachability; beyond it: Unknown *)
  max_product_bits : int;
      (** cap on the output-observable latches of both machines for
          {!seq_check}; beyond it: Unknown *)
  max_comb_leaves : int;
      (** shared-leaf cap for {!comb_check}; beyond it: Unknown *)
  max_bdd_nodes : int;
      (** manager node budget; {!comb_check} falls back to SAT, the
          sequential engines report Unknown *)
  sat_conflicts : int;  (** conflict budget of the SAT fallback *)
}

val default_options : options

type cex = {
  endpoint : string;
      (** diverging primary output / next-state function, or
          ["dcret:<a><><b>"] for a class violation *)
  leaves : (string * bool) list;
      (** combinational: the full leaf assignment; sequential: the input
          vector of the diverging cycle *)
  init_pre : (string * bool) list;  (** initial state, latch name -> value *)
  init_post : (string * bool) list;
  trace : (string * bool) list list;
      (** per-cycle primary-input vectors; [[]] for a purely combinational
          witness *)
  sim_confirmed : bool;
      (** the witness was replayed through [Sim.Simulate] and the divergence
          reproduced *)
}

type verdict =
  | Proved
  | Refuted of cex
  | Unknown of string  (** the reason: which cap or budget was exceeded *)

type record = {
  label : string;  (** circuit / flow name *)
  pass : string;
  rule : string;  (** ["eq-pass/comb"], ["eq-pass/seq"], ["dcret-invariant"] *)
  verdict : verdict;
  seconds : float;
}

val verdict_name : verdict -> string
(** ["proved"], ["refuted"], ["unknown"]. *)

type memo
(** Cone-BDD build memo for a sequence of checks over one pass lineage: when
    a check's [pre] network is (a snapshot of) the previous check's [post],
    its cone functions are taken from the shared BDD table instead of being
    rebuilt.  Reuses are counted by the [eqcheck.bdd.reuse] metric; node
    budgets still trip exactly as if each check rebuilt from scratch. *)

val memo : unit -> memo
(** A fresh (empty) memo. *)

val comb_check :
  ?options:options ->
  ?classes:int list list ->
  ?memo:memo ->
  Netlist.Network.t ->
  Netlist.Network.t ->
  verdict
(** [comb_check pre post] compares every next-state and output cone of the
    two networks as combinational functions of their shared leaves, treating
    the DC_ret [classes] (latch ids; dead ids tolerated) as don't-cares.
    A {!Refuted} here means the {e cone functions} differ on a care-set
    assignment — which refutes sequential equivalence only if that assignment
    is reachable; flow integration escalates to {!seq_check} instead of
    trusting it (unreachable-state simplification legally changes cones). *)

val seq_check :
  ?options:options -> Netlist.Network.t -> Netlist.Network.t -> verdict
(** Product-machine sequential equivalence from the declared initial states
    ([Ix] latches unconstrained).  {!Refuted} carries an input trace from the
    initial state to an output divergence, replayed and confirmed through
    [Sim.Simulate]. *)

val dcret_check :
  ?options:options -> Netlist.Network.t -> int list list -> verdict
(** Certify every register-equivalence class as a reachability invariant:
    from the preserved initial state (class members start equal, including
    [Ix] members, which share one unconstrained value), no reachable state
    lets two members of one class disagree. *)

val check_pass :
  ?options:options ->
  ?memo:memo ->
  label:string ->
  pass:string ->
  classes:int list list ->
  Netlist.Network.t ->
  Netlist.Network.t ->
  record list
(** One pass boundary: an [eq-pass/*] record ({!comb_check} first when the
    leaf/endpoint interfaces match, escalating to {!seq_check} on any
    combinational difference or doubt), plus a [dcret-invariant] record on
    the post-pass network when [classes] is non-empty. *)

val instrument :
  ?options:options ->
  label:string ->
  record list ref ->
  Verify.instrument * (Netlist.Network.t -> unit) * (unit -> unit)
(** An instrument for [Core.Flow] / [Core.Resynth] that runs {!check_pass}
    at every pass boundary against the network as of the previous boundary.
    Checks run as chained [Sched] tasks over snapshots (each joins its
    predecessor, so the shared cone memo — and the [eqcheck.bdd.reuse]
    count — stay byte-identical at any [--jobs N]), overlapping with the
    flow itself when a pool is active.  Returns [(ins, seed, finish)]:
    [seed] seeds (or re-seeds) the reference network — call it with a flow's
    input before the flow runs, and again whenever the pass lineage
    branches; [finish] joins all outstanding checks and appends their
    records to the sink in boundary order — call it before reading the
    sink. *)

val counts : record list -> int * int * int
(** (proved, refuted, unknown). *)

val render : record list -> string
(** One line per record. *)

val render_json : record list -> string
(** The records as a JSON array. *)
