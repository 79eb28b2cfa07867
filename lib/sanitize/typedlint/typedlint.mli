(** Typed-AST analyzer: the sanitizer's static lint head.

    Loads compiler-libs [.cmt] files (the repo builds with [-bin-annot])
    and runs every lint rule over resolved value paths and real binding
    and scope resolution.  All rules are [Error] severity; findings reuse
    the {!Sanitize.finding} shape and the justified-waiver discipline of
    {!Lint_common}.

    Path rules, one table, fire on references to resolved value paths —
    through [open], local opens and module aliases:

    - [nondet/hashtbl-order] — [Stdlib.Hashtbl.iter]/[fold]/[to_seq*].
      A fold or [to_seq*] whose value goes straight into a [List]/[Array]
      sort (as an argument, or through [|>] or [@@]) is exempt.
    - [nondet/wall-clock] — [Unix.gettimeofday], [Unix.time], [Sys.time].
    - [nondet/ambient-random] — [Random.*] outside [Random.State].
    - [nondet/domain-id] — [Domain.self].
    - [mm/physical-eq-key] — [Obj.repr], [Obj.magic].
    - [mm/naked-atomic-get] — [Atomic.get] applied to a field named
      [published].

    Dataflow rules:

    - [typed/capture-escape] — a thunk passed to [Sched.fork] /
      [Core.Parallel.fork]/[map]/[map_list] whose closure captures a
      [ref], [Hashtbl.t] or [Buffer.t] from an enclosing scope, or writes
      a mutable record field of a captured value, without routing through
      [Atomic], a [Mutex]-guarded section, [Domain.DLS] or the
      obs/sanitize registries.
    - [typed/lock-discipline] — consistent-lock-set inference: every
      access to a shared mutable location (module-level containers,
      mutable record fields keyed as [Type.field]) collects the lock set
      held at the access, seeded from [Sanitize.Lock.lock], [Mutex.lock]
      and [Mutex.protect] sites.  A location locked at one access must
      share a common lock at every access.
    - [typed/module-escape] — module-level mutable state reachable from
      the flow entry points ([Flow.run_all], [Report.Table.run_suite*],
      the [bin/] executables) with no synchronization wrapper and no
      consistent lock guard.
    - [typed/blocking-in-task] — [Mutex.lock], [Condition.wait], [Unix]
      blocking calls or [Thread.delay] syntactically reachable inside a
      forked task body, directly or through same-unit helpers: the
      no-help fork-join scheduler parks a whole worker.

    The analyzer is deliberately conservative (silence over noise): it is
    intraprocedural plus one same-unit hop, identifies locks by access
    path rather than instance, and treats lambdas it cannot see called as
    unreachable.  DESIGN.md §15 documents every deliberate gap. *)

type finding = Sanitize.finding = {
  rule_id : string;
  severity : Sanitize.severity;
  sites : string list;
      (** primary site first; context sites (the fork site) after *)
  message : string;
}

val rule_ids : string list
(** The ten rule ids — the six path rules and the four [typed/*] rules —
    sorted.  [scan_cmt_files] can also emit the waiver-discipline
    findings [lint/waiver-unjustified], [lint/waiver-unknown-rule] and
    [lint/waiver-unused]. *)

type config = {
  source_root : string;
      (** directory the cmt-recorded source paths are relative to (the
          build root); in-source waivers are read from here *)
  entry_points : string list;
      (** dotted suffixes of qualified toplevel value names that mark a
          unit as a flow entry *)
  entry_path_prefixes : string list;
      (** source-path prefixes whose units are entries (executables) *)
  sanctioned_path_fragments : string list;
      (** source-path fragments whose units hold sanctioned synchronized
          registries (their internals are exempt) *)
}

val default_config : config
(** Entries [Flow.run_all] / [Table.run_suite] / [Table.run_suite_timed]
    plus everything under [bin/]; sanctioned registries [lib/obs] and
    [lib/sanitize]; source root ["."]. *)

type result = {
  findings : finding list;  (** post-waiver, sorted and deduped *)
  files_scanned : int;      (** distinct implementation units analyzed *)
  rules_fired : (string * int) list;
      (** pre-waiver fired counts per rule id, sorted *)
  waivers_honored : int;    (** suppressions applied (line + file) *)
}

val scan_cmt_files :
  ?config:config -> ?waivers:Lint_common.waiver list -> string list -> result
(** Analyze the given [.cmt] files (interface-only and unreadable files
    are skipped; units are deduped by recorded source file, sorted for
    determinism).  [waivers] are [LINT_WAIVERS] entries; in-source
    [lint-waive] markers are read from each unit's source under
    [config.source_root].  The whole waiver discipline runs here:
    unjustified markers, markers naming no rule in {!rule_ids}, and
    markers or [waivers] entries that suppressed nothing come back as
    findings. *)

val publish_stats : result -> unit
(** Publish [typedlint.*] gauges (files scanned, findings, rules fired —
    total and per rule — waivers honored) through the {!Obs.Metrics}
    registry; a no-op unless metrics are enabled. *)
