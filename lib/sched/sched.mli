(** Deterministic fork-join task scheduler over OCaml 5 domains.

    Work-stealing deques, nested [fork]/[join] futures, and a [map] wrapper
    preserving the slot-ordered / lowest-index-failure semantics of the
    original flat parallel map.  Joined values never depend on scheduling:
    output is byte-identical for any [--jobs N] at any nesting depth
    (DESIGN.md §13 has the full argument). *)

val cores : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val default_jobs : unit -> int
(** [max 1 (cores ())]. *)

exception Worker_failure of int * exn
(** Raised by {!map} with the item index and original exception of the
    lowest-indexed failing item.  The original backtrace is preserved
    (re-raised with [Printexc.raise_with_backtrace]). *)

type 'a future
(** A task handle.  Created [Pending], claimed exactly once (by a worker, a
    thief, or the joiner itself), resolved to a value or an exception with
    its captured backtrace. *)

val fork : (unit -> 'a) -> 'a future
(** Queue [f] on the current worker's deque.  Outside any pool (jobs=1, or a
    foreign domain) [f] runs inline immediately, so program order is serial
    order and the serial run is the jobs=1 run by construction. *)

val join : 'a future -> 'a
(** Wait for the task's value.  A [Pending] task is claimed and run inline
    by the joiner; while the task runs elsewhere the joiner waits (it never
    runs unrelated tasks while blocked — see the deadlock note in
    [sched.ml]).  Re-raises the task's exception with its original
    backtrace.  Safe to join the same future from several places. *)

val join_result : 'a future -> ('a, exn * Printexc.raw_backtrace) result
(** Like {!join} but reifies failure instead of raising. *)

val run : ?jobs:int -> (unit -> 'a) -> 'a
(** [run ~jobs f] creates a pool of [jobs] workers (the calling domain is
    worker 0; [jobs - 1] domains are spawned), runs [f] inside it so that
    {!fork} distributes work, then shuts the pool down.  [jobs <= 1] runs
    [f] directly with no pool.  Nested [run] calls reuse the ambient pool. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Apply [f] to every element under a [jobs]-worker pool ([default_jobs ()]
    when omitted).  Results are in item order; on failure the
    lowest-indexed failing item's exception is raised as {!Worker_failure}.
    [jobs] is not clamped to the item count — extra workers steal tasks the
    items fork (intra-row parallelism). *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists. *)
