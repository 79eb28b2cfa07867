(** Reduced ordered binary decision diagrams with hash-consing over a
    domain-shared unique table.

    Nodes live in a process-wide striped unique table (or a private one, see
    {!create}); {!t} values are node handles valid for any scope on the same
    table, and structural equality of functions is handle equality.  A {!man}
    is a {e scope}: a lightweight accounting handle that tracks which distinct
    nodes its own operations consed, so {!node_count} reports exactly what a
    fresh private manager would have allocated for the same operation
    sequence — consumers' node budgets behave identically whether the shared
    table is cold or warm, serial or parallel.  The variable order is the
    natural integer order on variable indices.

    Thread-safety: scopes are single-domain objects, but any number of
    domains may each use their own scopes on the shared table concurrently.
    Lookups are lock-free; insertions take one of 64 stripe locks. *)

type man
(** A scope onto a node table. *)

type t = private int
(** Node handle; structural equality of functions is handle equality (within
    one table). *)

type mode = [ `Shared | `Private ]

val create : ?cache_size:int -> ?mode:mode -> unit -> man
(** Open a scope.  [`Shared] (the default, see {!set_default_mode}) attaches
    to the process-wide table; [`Private] builds a fresh table of its own
    (differential testing, benchmarking baselines).  [cache_size] sizes the
    per-domain ITE cache of a private table and is ignored for the shared
    one. *)

val set_default_mode : mode -> unit
(** Mode used by [create] when [?mode] is omitted.  Initially [`Shared]. *)

val default_mode : unit -> mode

val sub_scope : man -> man
(** A child scope on the same table: nodes consed through the child are also
    charged to the parent, so the parent's {!node_count} stays cumulative
    while the child isolates the charge of one sub-computation. *)

val adopt : man -> man -> unit
(** [adopt dst src] charges every node recorded in [src] to [dst] (and its
    parents), as if [dst] had consed them itself.  Used to keep budgets exact
    when previously built values are reused instead of rebuilt.  Both scopes
    must share a table. *)

val is_shared : man -> bool

val same_table : man -> man -> bool
(** Whether two scopes point at the same underlying table (always true for
    two [`Shared] scopes; false between distinct [`Private] managers).
    Handles recorded under one table are meaningless under another. *)

val bfalse : t
val btrue : t

val var : man -> int -> t
(** BDD of the single positive variable [i] ([i >= 0]). *)

val nvar : man -> int -> t

val bnot : man -> t -> t
val band : man -> t -> t -> t
val bor : man -> t -> t -> t
val bxor : man -> t -> t -> t
val bxnor : man -> t -> t -> t
val bimp : man -> t -> t -> t
val ite : man -> t -> t -> t -> t

val equal : t -> t -> bool
val is_true : t -> bool
val is_false : t -> bool

val cofactor : man -> t -> int -> bool -> t
(** Cofactor with respect to variable [i]. *)

val exists : man -> int list -> t -> t
(** Existential quantification over a set of variables. *)

val forall : man -> int list -> t -> t

val and_exists : man -> int list -> t -> t -> t
(** Relational product: [exists vars (a AND b)], computed without building the
    full conjunction. *)

val compose : man -> t -> int -> t -> t
(** [compose m f i g] substitutes [g] for variable [i] in [f]. *)

val rename : man -> t -> (int -> int) -> t
(** Variable renaming; the mapping must be strictly monotone on the support
    for correctness (checked by assertion on adjacent levels). *)

val support : man -> t -> int list
(** Variables the function depends on, ascending. *)

val size : man -> t -> int
(** Number of distinct internal nodes reachable from the handle. *)

val sat_count : man -> nvars:int -> t -> float
(** Number of satisfying assignments over [nvars] variables. *)

val any_sat : man -> t -> (int * bool) list
(** Some satisfying partial assignment; raises [Not_found] on [bfalse]. *)

val eval : man -> t -> (int -> bool) -> bool

val of_cover : ?fanins:t array -> man -> Logic.Cover.t -> t
(** The sum of the cover's cubes, variable [i] of the cover standing for
    [fanins.(i)] (default: the BDD variable [i]). *)

exception Cover_too_large

val to_cover : ?max_cubes:int -> man -> nvars:int -> t -> Logic.Cover.t
(** One cube per 1-path of the diagram (a disjoint cover).  Every variable in
    the support must be below [nvars].  Raises {!Cover_too_large} when the
    path count exceeds [max_cubes]. *)

val node_count : man -> int
(** Distinct nodes consed through this scope, terminals included — equal to
    what a fresh per-check manager would report, independent of table warmth.
    Node budgets should use this. *)

(** {2 Statistics} *)

type stats = {
  shared_nodes : int;  (** nodes in the shared table *)
  shared_capacity : int;  (** total unique-table slots across stripes *)
  shared_load_pct : float;
  ite_hits : int;
  ite_misses : int;
  mk_calls : int;
  unique_hits : int;  (** cons calls answered by an existing node *)
  stripe_contention : int;  (** lock acquisitions that had to wait *)
  stripe_grows : int;  (** stripe rehash events *)
  tables_created : int;  (** including private ones *)
  scopes_opened : int;
  nodes_allocated_total : int;  (** across all tables, process-wide *)
}

val stats : unit -> stats
(** Snapshot of shared-table and process-wide counters.  Per-domain op
    counters are read racily (monotone, may lag). *)

val total_allocated : unit -> int
(** Nodes ever allocated across all tables (shared and private); monotone.
    Deltas of this measure allocation work of a code region. *)

val publish_stats : unit -> unit
(** Export {!stats} into the [Obs.Metrics] registry as [bdd.*] gauges. *)
