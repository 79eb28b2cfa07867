(* Deterministic fork-join task scheduler over OCaml 5 domains.

   v1 (PR 2) was a flat parallel [map]: one atomic claim counter, one domain
   per worker, results in a slot array.  That parallelizes the suite at row
   granularity only — wall-clock is floored by the slowest row, and the
   domain-shared BDD table (PR 6) is never exercised *inside* a row.  v2 is
   a general fork/join scheduler with work-stealing deques; [map] survives
   as a thin wrapper with its slot-ordered, lowest-index-failure semantics
   intact, and flow internals (eqcheck boundaries, verify rule groups,
   verification lanes, resynth cone minimization) fork nested tasks that any
   idle worker can steal.

   Determinism argument (DESIGN.md §13):
   - A future is an [Atomic] holding [Pending f | Running | Done result].
     Exactly one runner claims it by CAS [Pending -> Running]; the result is
     published with a plain [Atomic.set] (seq-cst, so the joiner's read of
     [Done] orders after every write the task made).
   - [join] returns the stored value (or re-raises the stored exception with
     its original backtrace) — the *value* never depends on which domain ran
     the task or when.
   - Callers fork only tasks whose side effects commute (atomic metrics
     counters, per-scope BDD accounting) or that are explicitly chained by
     joining their predecessor, and join in program order.  Hence output is
     byte-identical for any [--jobs N] at any nesting depth.
   - With no pool active (jobs=1, or fork outside [run]), [fork] executes the
     task inline at fork time: program order *is* serial order, so the serial
     run is literally the jobs=1 run.

   Steal protocol: per-worker deques under a mutex (contention is negligible
   against flow-sized tasks; no Chase-Lev subtleties).  Owners push/pop at
   the bottom (LIFO, keeps the working set warm), thieves take from the top
   (FIFO, steals the oldest = usually biggest task).  A claimed-elsewhere
   task left in a deque is skipped when popped.  Idle workers sleep on a
   condition variable — on an oversubscribed 1-core box extra workers park
   instead of burning the only core. *)

let cores () = Domain.recommended_domain_count ()

let default_jobs () = max 1 (cores ())

exception Worker_failure of int * exn

(* Scheduler observability: counts vary with [jobs] and scheduling (steals,
   inline forks, parks), so they are excluded from determinism comparisons —
   see [Bench] / CI, which compare only semantic metrics. *)
let m_forked = Obs.Metrics.counter "parallel.tasks.forked"
let m_inline = Obs.Metrics.counter "parallel.tasks.inline"
let m_steals = Obs.Metrics.counter "parallel.steals"
let m_waits = Obs.Metrics.counter "parallel.joins.waited"
let m_pools = Obs.Metrics.counter "parallel.pools"
let m_parked = Obs.Metrics.counter "parallel.sleepers.parked"
let m_woken = Obs.Metrics.counter "parallel.sleepers.woken"

type 'a state =
  | Pending of (unit -> 'a)
  | Running
  | Done of ('a, exn * Printexc.raw_backtrace) result

(* [sid] is the sanitizer's future uid (0 = untracked, when the sanitizer
   was disabled at fork time).  It rides along so the single-claim checker
   can pair the claiming CAS with the completing [Done] store. *)
type 'a future = {
  cell : 'a state Atomic.t;
  sid : int;
}

type task = Task : 'a future -> task

(* Claim and execute a task.  Returns false if someone else already claimed
   it (stale deque entry).  The CAS is the only way [Pending] becomes
   [Running], so a task body runs exactly once. *)
let try_run (Task fut) =
  match Atomic.get fut.cell with
  | Running | Done _ -> false
  | Pending f as st ->
    if Atomic.compare_and_set fut.cell st Running then begin
      if fut.sid <> 0 then Sanitize.Future.claimed ~fut:fut.sid;
      let r =
        match f () with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Atomic.set fut.cell (Done r);
      if fut.sid <> 0 then Sanitize.Future.completed ~fut:fut.sid;
      true
    end
    else false

type deque = {
  lock : Sanitize.Lock.t;
  mutable buf : task array; (* circular, power-of-two capacity *)
  mutable head : int; (* next slot thieves take from (top) *)
  mutable tail : int; (* next slot the owner pushes to (bottom) *)
}

type pool = {
  deques : deque array;
  quit : bool Atomic.t;
  pending : int Atomic.t; (* queued-but-unpopped tasks, for the sleep check *)
  sleepers : int Atomic.t;
  wake_lock : Sanitize.Lock.t;
  wake : Condition.t;
  mutable domains : unit Domain.t array;
}

let dummy_task = Task { cell = Atomic.make Running; sid = 0 }

(* Lock ranks (documented order: wake < deque — though sched never nests
   them; both rank below the BDD stripe/cache locks, which BDD operations
   inside a task may take while a deque lock is *not* held). *)
let order_wake = 10
let order_deque = 20

let make_deque i =
  { lock =
      Sanitize.Lock.create ~order:order_deque
        ~name:(Printf.sprintf "sched.deque.%d" i);
    buf = Array.make 64 dummy_task;
    head = 0;
    tail = 0 }

(* Ambient scheduler context: which pool this domain works for, and its
   worker index (deque slot).  [None] outside [run] and on foreign domains —
   there [fork] executes inline. *)
let ctx_key : (pool * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let wake_sleepers pool =
  if Atomic.get pool.sleepers > 0 then begin
    Sanitize.Lock.lock pool.wake_lock;
    Condition.broadcast pool.wake;
    Sanitize.Lock.unlock pool.wake_lock
  end

let grow d =
  let cap = Array.length d.buf in (* lint-waive: typed/lock-discipline -- sole caller push_bottom holds d.lock across grow *)
  let buf' = Array.make (2 * cap) dummy_task in
  for i = d.head to d.tail - 1 do (* lint-waive: typed/lock-discipline -- sole caller push_bottom holds d.lock across grow *)
    buf'.(i land ((2 * cap) - 1)) <- d.buf.(i land (cap - 1)) (* lint-waive: typed/lock-discipline -- sole caller push_bottom holds d.lock across grow *)
  done;
  d.buf <- buf' (* lint-waive: typed/lock-discipline -- sole caller push_bottom holds d.lock across grow *)

let push_bottom pool d t =
  Sanitize.Lock.lock d.lock;
  if d.tail - d.head = Array.length d.buf then grow d;
  d.buf.(d.tail land (Array.length d.buf - 1)) <- t;
  d.tail <- d.tail + 1;
  Sanitize.Lock.unlock d.lock;
  Atomic.incr pool.pending;
  (* [pending] is bumped before the sleeper check, and a parking worker
     re-checks [pending] after registering in [sleepers] (both seq-cst), so
     either we see the sleeper and broadcast or it sees the task: no lost
     wakeup. *)
  wake_sleepers pool

let pop_bottom pool d =
  Sanitize.Lock.lock d.lock;
  let r =
    if d.tail > d.head then begin
      d.tail <- d.tail - 1;
      Some d.buf.(d.tail land (Array.length d.buf - 1))
    end
    else None
  in
  Sanitize.Lock.unlock d.lock;
  if r <> None then Atomic.decr pool.pending;
  r

let steal_top pool d =
  Sanitize.Lock.lock d.lock;
  let r =
    if d.tail > d.head then begin
      let t = d.buf.(d.head land (Array.length d.buf - 1)) in
      d.head <- d.head + 1;
      Some t
    end
    else None
  in
  Sanitize.Lock.unlock d.lock;
  if r <> None then Atomic.decr pool.pending;
  r

(* Own deque first (bottom: newest, cache-warm), then scan the others
   cyclically from [wid + 1] and steal from the top (oldest). *)
let find_task pool wid =
  match pop_bottom pool pool.deques.(wid) with
  | Some _ as t -> t
  | None ->
    let n = Array.length pool.deques in
    let rec scan k =
      if k = n then None
      else
        let j = (wid + k) mod n in
        match steal_top pool pool.deques.(j) with
        | Some _ as t ->
          Obs.Metrics.incr m_steals;
          t
        | None -> scan (k + 1)
    in
    scan 1

(* Park until a task is pushed or the pool shuts down.  See [push_bottom]
   for the no-lost-wakeup argument. *)
let park pool =
  Sanitize.Lock.lock pool.wake_lock;
  Atomic.incr pool.sleepers;
  if Atomic.get pool.pending = 0 && not (Atomic.get pool.quit) then begin
    Obs.Metrics.incr m_parked;
    Sanitize.Lock.wait pool.wake pool.wake_lock;
    Obs.Metrics.incr m_woken
  end;
  Atomic.decr pool.sleepers;
  Sanitize.Lock.unlock pool.wake_lock

let worker_loop pool wid =
  Domain.DLS.set ctx_key (Some (pool, wid));
  let rec loop () =
    if not (Atomic.get pool.quit) then begin
      (match find_task pool wid with
       | Some t -> ignore (try_run t)
       | None -> park pool);
      loop ()
    end
  in
  loop ()

let fork f =
  let sid = if Sanitize.enabled () then Sanitize.Future.fresh () else 0 in
  let fut = { cell = Atomic.make (Pending f); sid } in
  (match Domain.DLS.get ctx_key with
   | Some (pool, wid) ->
     Obs.Metrics.incr m_forked;
     push_bottom pool pool.deques.(wid) (Task fut)
   | None ->
     (* No pool: run right now.  Program order = serial order, which is what
        makes jobs=1 byte-identical by construction. *)
     Obs.Metrics.incr m_inline;
     ignore (try_run (Task fut)));
  fut

(* A join claims a [Pending] future and runs it inline — that is a real
   dependency, so the thread's stack only ever holds tasks it needs.  While
   the future runs on another domain the joiner *waits* (brief spins, then
   an escalating micro-sleep so an oversubscribed box lets the owning
   domain finish); it deliberately does NOT "help" by running unrelated
   queued tasks.  Helping would stack a fresh task on top of a suspended
   one, and with chained futures (eqcheck boundary checks join their
   predecessor) two domains can each end up waiting for a task suspended
   under the other's helper frame: deadlock.  Without helping, every
   thread's wait-for edge follows a real task dependency, and since a task
   can only join futures forked before it, that graph is acyclic. *)
let rec await fut spins =
  match Atomic.get fut.cell with
  | Done r -> r
  | Pending _ ->
    ignore (try_run (Task fut));
    await fut 0
  | Running ->
    if spins = 0 then Obs.Metrics.incr m_waits;
    Domain.cpu_relax ();
    if spins >= 100 then Unix.sleepf (Float.min 1e-3 (5e-5 *. float spins));
    await fut (spins + 1)

let join_result fut = await fut 0

let join fut =
  match join_result fut with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let make_pool jobs =
  { deques = Array.init jobs make_deque;
    quit = Atomic.make false;
    pending = Atomic.make 0;
    sleepers = Atomic.make 0;
    wake_lock = Sanitize.Lock.create ~order:order_wake ~name:"sched.wake";
    wake = Condition.create ();
    domains = [||] }

let run ?jobs f =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  match Domain.DLS.get ctx_key with
  | Some _ -> f () (* nested [run]: reuse the ambient pool *)
  | None ->
    if jobs = 1 then f ()
    else begin
      Obs.Metrics.incr m_pools;
      let pool = make_pool jobs in
      pool.domains <-
        Array.init (jobs - 1) (fun i ->
            let wid = i + 1 in
            Domain.spawn (fun () ->
                (* one span per worker: on a Chrome trace each domain is a
                   distinct track holding the spans of the tasks it ran *)
                Obs.Trace.span ~cat:"parallel" "worker" (fun () ->
                    worker_loop pool wid)));
      Domain.DLS.set ctx_key (Some (pool, 0));
      let finish () =
        Domain.DLS.set ctx_key None;
        Atomic.set pool.quit true;
        Sanitize.Lock.lock pool.wake_lock;
        Condition.broadcast pool.wake;
        Sanitize.Lock.unlock pool.wake_lock;
        Array.iter Domain.join pool.domains
      in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
    end

(* [map ~jobs f items]: apply [f] to every element under a [jobs]-worker
   pool.  Results are returned in item order; if any [f] raises, the
   exception of the lowest-indexed failing item is re-raised (wrapped in
   [Worker_failure], carrying the original backtrace) — also
   deterministically, because futures are joined in slot order.  Unlike v1,
   [jobs] is not clamped to the item count: extra workers steal the *nested*
   tasks items fork (intra-row parallelism). *)
let map ?jobs f items =
  let n = Array.length items in
  if n = 0 then [||]
  else
    run ?jobs (fun () ->
        let futs = Array.map (fun x -> fork (fun () -> f x)) items in
        Array.mapi
          (fun i fut ->
            match join_result fut with
            | Ok v -> v
            | Error (e, bt) ->
              Printexc.raise_with_backtrace (Worker_failure (i, e)) bt)
          futs)

let map_list ?jobs f items = Array.to_list (map ?jobs f (Array.of_list items))
