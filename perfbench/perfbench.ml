(* perfbench: the worker process of the repository benchmark.

   [run.py] builds this executable and drives it; BENCHMARK.json names the
   workloads and metrics.  Modes:

     perfbench table --workload table1|eqcheck-each --expected FILE
                     --trace 0|1 [--smoke] [--setup-only]
     perfbench breakdown --workload table1|eqcheck-each --expected FILE
                         --seed N [--smoke]
     perfbench loadgen --socket PATH --seed N --seconds S --trace 0|1
                       [--smoke]
     perfbench expected

   [table] runs one pass of Table I rows through [Report.Table.run_suite]
   ([--setup-only]: stop where the first row would begin);
   [breakdown] times the layers of the same rows one call at a time;
   [loadgen] is the serve-mix load generator: two client connections to a
   running [resynthd serve] in a closed loop.  [expected] prints the Table I
   row lines that [table] checks every row against (regenerate the
   expected-rows file with it when a row changes on purpose).

   Both measuring modes print, as their last stdout line, one JSON object
   {"attempted", "failed", "failures", "metrics", "detail"}; [run.py] adds
   the process-level metrics and provenance and prints the final result.

   The traced run ([--trace 1]) times calls into each layer's public
   functions from this file, as spans with explicit parent links; where a
   layer is reachable only inside another public call it reads the
   program's own [Obs.Trace] spans or [Obs.Metrics] counters. *)

module J = Serve.Json
module N = Netlist.Network

(* Every clock read of the benchmark goes through here. *)
let now () = Unix.gettimeofday () (* lint-waive: nondet/wall-clock — the benchmark's clock: elapsed times are its product and never feed a flow *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* --- statistics ------------------------------------------------------------------- *)

let sorted xs = List.sort compare xs

(* nearest-rank percentile, p in [0, 100] *)
let percentile p xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    List.nth s (max 0 (min (n - 1) (k - 1)))

let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0

let geomean = function
  | [] -> 0.0
  | xs ->
    Float.exp (sum (List.map Float.log xs) /. float_of_int (List.length xs))

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- result record ---------------------------------------------------------------- *)

type outcome = {
  mutable attempted : int;
  mutable failures : string list;  (* newest first *)
  mutable metrics : (string * float * string) list;  (* newest first *)
  mutable detail : (string * J.t) list;  (* newest first *)
}

let outcome () = { attempted = 0; failures = []; metrics = []; detail = [] }
let metric o name unit v = o.metrics <- (name, v, unit) :: o.metrics
let detail o key v = o.detail <- (key, v) :: o.detail

let attempt o = function
  | [] -> o.attempted <- o.attempted + 1
  | problems ->
    o.attempted <- o.attempted + 1;
    o.failures <- String.concat "; " problems :: o.failures

(* Metric values go out with every digit (the JSON printer rounds floats
   to six), so the metrics object is rendered here. *)
let print_outcome o =
  let num f =
    if Float.is_finite f then Printf.sprintf "%.17g" f
    else die "non-finite metric value"
  in
  let metrics =
    String.concat ","
      (List.rev_map
         (fun (name, v, unit) ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (J.to_string (J.Str name))
             (num v) (J.to_string (J.Str unit)))
         o.metrics)
  in
  let rest =
    J.to_string
      (J.Obj
         [ ("attempted", J.Int o.attempted);
           ("failed", J.Int (List.length o.failures));
           ("failures", J.List (List.rev_map (fun s -> J.Str s) o.failures));
           ("detail", J.Obj (List.rev o.detail)) ])
  in
  (* splice the metrics object in front of the closing brace *)
  print_endline
    (String.sub rest 0 (String.length rest - 1) ^ ",\"metrics\":{" ^ metrics ^ "}}")

(* --- Table I rows: checks and quality of results ---------------------------------- *)

let read_expected file =
  let ic = open_in file in
  let rec loop acc =
    match input_line ic with
    | line when String.trim line = "" -> loop acc
    | line ->
      let name = List.hd (String.split_on_char ' ' line) in
      loop ((name, line) :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  loop []

(* The problems of one flow row: an unverified attempt, a Refuted pass
   verdict, or a Table I line that differs from [expected]. *)
let row_problems ~expected (row : Core.Flow.row) =
  let name = row.Core.Flow.circuit in
  let unverified which (a : Core.Flow.attempt) =
    if a.Core.Flow.verified then []
    else [ Printf.sprintf "%s: %s result not verified" name which ]
  in
  let _, refuted, _ = Eqcheck.counts row.Core.Flow.eqcheck in
  let line = Report.Table.row_to_string row in
  unverified "retimed" row.Core.Flow.retimed
  @ unverified "resynthesized" row.Core.Flow.resynthesized
  @ (if refuted = 0 then []
     else [ Printf.sprintf "%s: %d Refuted pass verdicts" name refuted ])
  @
  if expected = line then []
  else [ Printf.sprintf "%s: Table I row %S, expected %S" name line expected ]

let check_rows o expected rows =
  List.iter
    (fun (r : Core.Flow.row) ->
      match List.assoc_opt r.Core.Flow.circuit expected with
      | None -> attempt o [ r.Core.Flow.circuit ^ ": no expected Table I row" ]
      | Some e -> attempt o (row_problems ~expected:e r))
    rows

(* QoR of a set of rows: geomean of each flow's value over its script.delay
   value, over the rows where the flow applied. *)
let qor o (rows : Core.Flow.row list) =
  let applied pick =
    List.filter_map
      (fun (r : Core.Flow.row) ->
        Option.map (fun s -> (r.Core.Flow.base, s)) (pick r).Core.Flow.stats)
      rows
  in
  let resyn = applied (fun r -> r.Core.Flow.resynthesized) in
  let ret = applied (fun r -> r.Core.Flow.retimed) in
  let gm f pairs = geomean (List.map f pairs) in
  let clk ((b : Core.Flow.stats), (s : Core.Flow.stats)) = s.clk /. b.clk in
  metric o "qor.resynth_clk" "ratio" (gm clk resyn);
  metric o "qor.resynth_regs" "ratio"
    (gm (fun ((b : Core.Flow.stats), (s : Core.Flow.stats)) ->
         ratio s.regs b.regs) resyn);
  metric o "qor.resynth_area" "ratio"
    (gm (fun ((b : Core.Flow.stats), (s : Core.Flow.stats)) -> s.area /. b.area)
       resyn);
  metric o "qor.resynth_rows" "count" (float_of_int (List.length resyn));
  metric o "qor.retimed_clk" "ratio" (gm clk ret);
  metric o "qor.retimed_rows" "count" (float_of_int (List.length ret))

(* --- independent co-simulation oracle --------------------------------------------- *)

type cosim = Agree | Disagree of int | Unsimulatable of string

(* Simulate [candidate] against its flow input [reference] through
   [Sim.Simulate], a separate engine from the BDD proof: [runs] runs of
   [length] seeded random input vectors from the binary initial states. *)
let cosimulate ~seed ~runs ~length reference candidate =
  let pis net = sorted (List.map (fun n -> n.N.name) (N.inputs net)) in
  match
    ( Sim.Simulate.binary_initial_state reference,
      Sim.Simulate.binary_initial_state candidate )
  with
  | exception Failure msg -> Unsimulatable msg
  | _ when pis reference <> pis candidate -> Unsimulatable "input sets differ"
  | init_ref, init_cand ->
    let names = pis reference in
    let rng = Random.State.make [| seed |] in
    let rec run k =
      if k = runs then Agree
      else
        let rec cycle c sr sc =
          if c = length then None
          else
            let vec = List.map (fun nm -> (nm, Random.State.bool rng)) names in
            let pi nm = List.assoc nm vec in
            let sr', outr = Sim.Simulate.step reference ~pi ~state:sr in
            let sc', outc = Sim.Simulate.step candidate ~pi ~state:sc in
            if sorted outr <> sorted outc then Some c else cycle (c + 1) sr' sc'
        in
        match cycle 0 init_ref init_cand with
        | Some c -> Disagree ((k * length) + c)
        | None -> run (k + 1)
    in
    run 0

(* --- benchmark-owned spans -------------------------------------------------------- *)

(* One span per call into a layer, with an explicit parent link.  Program
   spans recorded by [Obs.Trace] during a call become its children by
   attribution (the trace is reset before the call), never by timestamp
   containment.  The breakdown runs serially, so attribution is exact. *)
type bspan = {
  sid : int;
  parent : int;  (* 0: a root *)
  sname : string;
  row : string;
  dur : float;
}

let bspans = ref []
let next_sid = ref 0
let current = ref 0

let record ~parent ~row sname dur =
  incr next_sid;
  let sid = !next_sid in
  bspans := { sid; parent; sname; row; dur } :: !bspans;
  sid

let span ?(capture = false) ~row sname f =
  incr next_sid;
  let sid = !next_sid and parent = !current in
  current := sid;
  if capture then Obs.Trace.reset ();
  let t0 = now () in
  let finish () =
    let dur = now () -. t0 in
    current := parent;
    bspans := { sid; parent; sname; row; dur } :: !bspans;
    if capture then begin
      let prog = Obs.Trace.spans () in
      let top =
        List.fold_left (fun m (s : Obs.Trace.span) -> min m s.Obs.Trace.depth)
          max_int prog
      in
      (* program spans come sorted by (track, start, depth): each nests
         under the latest span recorded one level up, the top level under
         [sid] *)
      let open_at = Hashtbl.create 8 in
      List.iter
        (fun (s : Obs.Trace.span) ->
          let d = Int64.to_float s.Obs.Trace.dur_ns /. 1e9 in
          let depth = s.Obs.Trace.depth in
          let p =
            if depth = top then sid
            else Option.value ~default:(-1) (Hashtbl.find_opt open_at (depth - 1))
          in
          Hashtbl.replace open_at depth
            (record ~parent:p ~row ("program:" ^ s.Obs.Trace.name) d))
        prog
    end
  in
  Fun.protect ~finally:finish f

let span_total name =
  sum (List.filter_map (fun s -> if s.sname = name then Some s.dur else None)
         !bspans)

(* a span's duration minus the part its direct children cover *)
let self s =
  s.dur
  -. sum (List.filter_map (fun c -> if c.parent = s.sid then Some c.dur else None)
            !bspans)

let self_total keep = sum (List.filter_map (fun s -> if keep s then Some (self s) else None) !bspans)

(* --- per-layer breakdown ---------------------------------------------------------- *)

type source = { label : string; build : unit -> N.t }

let suite_source name =
  { label = name; build = (fun () -> (Circuits.Suite.find name).Circuits.Suite.build ()) }

type oracle = {
  mutable simulated : int;
  mutable unsimulatable : int;
  mutable mismatches : string list;
}

(* Replays [Core.Flow.run_all]'s structure through the layers' public
   entry points, one benchmark span per call, and co-simulates every flow
   output against its script.delay input.  The replay must track
   [run_all] (its lanes run serially here): every replayed row is checked
   against [expected] like a [table] row, so a replay that drifts from the
   program's flow fails the run. *)
let breakdown o ~seed ~verify ~expected sources =
  let oracle = { simulated = 0; unsimulatable = 0; mismatches = [] } in
  let lib = Techmap.Genlib.mcnc_lite in
  let seq_equal = ref [] in
  Obs.Trace.enable ();
  List.iteri
    (fun i src ->
      let row = src.label in
      span ~row ("row/" ^ row) (fun () ->
          let net = span ~row "circuits.build" src.build in
          let mapped =
            span ~row "synth_opt.script_delay" (fun () ->
                Core.Flow.script_delay_flow net ~lib)
          in
          N.set_name_of_model mapped row;
          let base =
            span ~row "sta.measure" (fun () ->
                let timer = Sta.Incremental.create mapped (Sta.mapped_delay ~default:1.0 ()) in
                Core.Flow.measure ~timer mapped ~lib)
          in
          let retimed =
            span ~capture:true ~row "retiming.flow" (fun () ->
                Core.Flow.retiming_flow ~current_period:base.Core.Flow.clk
                  mapped ~lib)
          in
          let resynthesized =
            span ~capture:true ~row "core.resynthesize" (fun () ->
                Core.Flow.resynthesis_flow mapped)
          in
          let check which = function
            | Error note -> { Core.Flow.stats = None; note; verified = true }
            | Ok out ->
              let stats = span ~row "sta.measure" (fun () -> Core.Flow.measure out ~lib) in
              let verified =
                (not verify)
                ||
                let t0 = now () in
                let ok =
                  span ~row "sim.seq_equal" (fun () ->
                      try Sim.Equiv.seq_equal mapped out
                      with Failure _ -> Sim.Equiv.seq_equal_random ~seed:7 mapped out)
                in
                seq_equal := (now () -. t0, row) :: !seq_equal;
                ok
              in
              (match
                 span ~row "oracle.cosim" (fun () ->
                     cosimulate ~seed:(seed + i) ~runs:4 ~length:64 mapped out)
               with
               | Agree -> oracle.simulated <- oracle.simulated + 1
               | Unsimulatable _ -> oracle.unsimulatable <- oracle.unsimulatable + 1
               | Disagree cycle ->
                 oracle.simulated <- oracle.simulated + 1;
                 oracle.mismatches <-
                   Printf.sprintf "%s: %s result disagrees with its input at \
                                   simulated cycle %d" row which cycle
                   :: oracle.mismatches);
              { Core.Flow.stats = Some stats; note = ""; verified }
          in
          let retimed = check "retimed" retimed in
          let resynthesized = check "resynthesized" (Result.map fst resynthesized) in
          check_rows o expected
            [ { Core.Flow.circuit = row; base; retimed; resynthesized;
                resynth_outcome = None; eqcheck = []; verify_diags = [] } ]))
    sources;
  Obs.Trace.disable ();
  Obs.Trace.reset ();
  (oracle, !seq_equal)

(* Record the breakdown's layer metrics (idle layers read 0). *)
let breakdown_metrics o (oracle, seq_equal) =
  let prog name = span_total ("program:" ^ name) in
  metric o "circuits.build_s" "s" (span_total "circuits.build");
  metric o "synth_opt.script_delay_s" "s" (span_total "synth_opt.script_delay");
  metric o "sta.measure_s" "s" (span_total "sta.measure");
  metric o "retiming.flow_s" "s" (span_total "retiming.flow");
  metric o "retiming.min_period_s" "s"
    (prog "retiming/min-period" +. prog "resynth/post-retime");
  metric o "dontcare.unreachable_simplify_s" "s"
    (prog "retiming/unreachable-simplify");
  metric o "core.resynthesize_s" "s" (span_total "core.resynthesize");
  metric o "core.dc_simplify_s" "s" (prog "resynth/dc-simplify");
  metric o "self.retiming_flow_s" "s" (self_total (fun s -> s.sname = "retiming.flow"));
  (* resynthesis time outside its named passes *)
  metric o "self.core_resynthesize_s" "s"
    (self_total (fun s ->
         s.sname = "core.resynthesize" || s.sname = "program:resynthesis"));
  metric o "self.row_s" "s" (self_total (fun s -> s.parent = 0));
  let seq_times = List.map fst seq_equal in
  metric o "sim.seq_equal_s" "s" (sum seq_times);
  metric o "sim.seq_equal_calls" "count" (float_of_int (List.length seq_times));
  let max_s, max_row =
    List.fold_left (fun (m, r) (t, row) -> if t > m then (t, row) else (m, r))
      (0.0, "-") seq_equal
  in
  metric o "sim.seq_equal_max_s" "s" max_s;
  detail o "sim.seq_equal_max_row" (J.Str max_row);
  metric o "oracle.cosim_outputs" "count" (float_of_int oracle.simulated);
  metric o "oracle.unsimulatable" "count" (float_of_int oracle.unsimulatable);
  metric o "oracle.mismatches" "count"
    (float_of_int (List.length oracle.mismatches));
  (* every simulated output is one checked operation *)
  List.iter (fun m -> attempt o [ m ]) oracle.mismatches;
  for _ = 1 to oracle.simulated + oracle.unsimulatable - List.length oracle.mismatches do
    attempt o []
  done;
  (* per-row rollup: which layer spent the row's time (by self time) *)
  let rows =
    List.filter_map
      (fun s -> if s.parent = 0 then Some (s.row, s.dur) else None)
      (List.rev !bspans)
  in
  let layer_self row =
    let layers =
      List.sort_uniq compare
        (List.filter_map
           (fun s -> if s.row = row && s.parent > 0 then Some s.sname else None)
           !bspans)
    in
    List.map
      (fun l -> (l, self_total (fun s -> s.row = row && s.sname = l && s.parent > 0)))
      layers
  in
  detail o "breakdown"
    (J.List
       (List.map
          (fun (row, dur) ->
            let top =
              List.sort (fun (_, a) (_, b) -> compare b a) (layer_self row)
            in
            J.Obj
              [ ("row", J.Str row);
                ("wall_s", J.Float dur);
                ( "self_s",
                  J.Obj
                    (List.filteri (fun i _ -> i < 3)
                       (List.map (fun (l, t) -> (l, J.Float t)) top)) ) ])
          rows))

(* --- registry snapshots ----------------------------------------------------------- *)

let counter_delta delta name =
  match List.assoc_opt name delta with
  | Some (Obs.Metrics.Counter n) -> n
  | Some (Obs.Metrics.Gauge _ | Obs.Metrics.Histogram _ | Obs.Metrics.Info _)
  | None -> 0

(* Layer counters of one window, from [Obs.Metrics] (counters) and the BDD
   package's statistics. *)
type window = {
  counters : (string * int) list;
  bdd_allocated : int;
  ite_hits : int;
  ite_misses : int;
  contention : int;
  minor_words : float;
  major_collections : int;
}

let counter_names =
  [ "parallel.tasks.forked"; "parallel.steals"; "parallel.joins.waited";
    "sta.requeries"; "logic.scc.pairs_probed"; "eqcheck.memo.hit";
    "eqcheck.memo.miss"; "eqcheck.cap.bdd_nodes"; "eqcheck.cap.comb_leaves";
    "eqcheck.cap.product_bits"; "eqcheck.cap.sat_conflicts";
    "eqcheck.cap.state_bits" ]

let measure_window f =
  let snap = Obs.Metrics.snapshot () in
  let b0 = Bdd.stats () and alloc0 = Bdd.total_allocated () in
  let g0 = Gc.quick_stat () in
  let v = f () in
  let g1 = Gc.quick_stat () in
  let b1 = Bdd.stats () and alloc1 = Bdd.total_allocated () in
  let delta = Obs.Metrics.delta snap in
  ( v,
    { counters = List.map (fun n -> (n, counter_delta delta n)) counter_names;
      bdd_allocated = alloc1 - alloc0;
      ite_hits = b1.Bdd.ite_hits - b0.Bdd.ite_hits;
      ite_misses = b1.Bdd.ite_misses - b0.Bdd.ite_misses;
      contention = b1.Bdd.stripe_contention - b0.Bdd.stripe_contention;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections } )

let window_metrics o w =
  let c n = List.assoc n w.counters in
  let f = float_of_int in
  metric o "bdd.nodes_allocated" "count" (f w.bdd_allocated);
  metric o "bdd.ite_hit_ratio" "ratio" (ratio w.ite_hits (w.ite_hits + w.ite_misses));
  metric o "bdd.stripe_contention" "count" (f w.contention);
  metric o "sched.tasks_forked" "count" (f (c "parallel.tasks.forked"));
  metric o "sched.steals" "count" (f (c "parallel.steals"));
  metric o "sched.joins_waited" "count" (f (c "parallel.joins.waited"));
  metric o "sta.requeries" "count" (f (c "sta.requeries"));
  metric o "logic.scc_pairs_probed" "count" (f (c "logic.scc.pairs_probed"));
  metric o "eqcheck.cap_trips" "count"
    (f (List.fold_left (fun acc (n, v) ->
            if String.length n > 12 && String.sub n 0 12 = "eqcheck.cap." then acc + v
            else acc) 0 w.counters));
  let hit = c "eqcheck.memo.hit" in
  metric o "eqcheck.memo_hit_ratio" "ratio" (ratio hit (hit + c "eqcheck.memo.miss"));
  metric o "gc.minor_mwords" "Mwords" (w.minor_words /. 1e6);
  metric o "gc.major_collections" "count" (f w.major_collections)

(* --- table1 / eqcheck-each -------------------------------------------------------- *)

type workload = {
  wname : string;
  names : string list;
  verify : bool;
  eqcheck : bool;
  jobs : int;
}

(* s420 (about 50 s of BDD reachability in its flow check), s344 (about
   5 s of it) and planet (about 10 s of min-period retiming) leave table1 so
   that several passes fit a run; s298 keeps the flow check's BDD
   reachability in it, and eqcheck-each runs all 21 rows. *)
let workload ~smoke = function
  | "table1" ->
    { wname = "table1";
      names =
        (if smoke then [ "s27"; "s208" ]
         else
           List.filter (fun n -> not (List.mem n [ "s420"; "s344"; "planet" ]))
             Circuits.Suite.names);
      verify = true; eqcheck = false; jobs = 1 }
  | "eqcheck-each" ->
    { wname = "eqcheck-each";
      names = (if smoke then [ "s27"; "s208" ] else Circuits.Suite.names);
      verify = false; eqcheck = true; jobs = 2 }
  | w -> die "unknown table workload %s" w

let run_pass w =
  let t0 = now () in
  let rows, per_row =
    Report.Table.run_suite_timed ~verify:w.verify ~eqcheck_each:w.eqcheck
      ~names:w.names ~jobs:w.jobs ()
  in
  (now () -. t0, rows, per_row)

let failed_rows o rows =
  let failed pick =
    float_of_int
      (List.length (List.filter (fun r -> (pick r).Core.Flow.stats = None) rows))
  in
  metric o "retiming.failed_rows" "count" (failed (fun r -> r.Core.Flow.retimed));
  metric o "core.declined_rows" "count" (failed (fun r -> r.Core.Flow.resynthesized))

(* The per-layer breakdown over the workload's rows, in a process of its
   own so that it, too, starts from a cold BDD table. *)
let run_breakdown ~wname ~expected_file ~seed ~smoke =
  let w = workload ~smoke wname in
  let o = outcome () in
  let expected = read_expected expected_file in
  breakdown_metrics o
    (breakdown o ~seed ~verify:w.verify ~expected (List.map suite_source w.names));
  o

(* One pass over the workload's rows in this (fresh) process, as a user
   regenerating Table I runs it.  The untraced pass reports its wall time,
   per-row times and QoR; the traced pass runs with tracing and metrics on.
   [run.py] starts one process per pass, so every pass starts from a cold
   BDD table. *)
let run_table ~wname ~expected_file ~trace ~smoke ~setup_only =
  let w = workload ~smoke wname in
  let o = outcome () in
  (* set-up: the expected rows; [run.py] measures from process spawn to
     [first_row_at] *)
  let expected = read_expected expected_file in
  metric o "first_row_at" "s" (now ());
  if setup_only then ()
  else if not trace then begin
    let wall, rows, per_row = run_pass w in
    check_rows o expected rows;
    metric o "wall_s" "s" wall;
    qor o rows;
    let proved, refuted, unknown = Eqcheck.counts (Report.Table.eqcheck_records rows) in
    detail o "eqcheck"
      (J.Obj [ ("proved", J.Int proved); ("refuted", J.Int refuted);
               ("unknown", J.Int unknown) ]);
    detail o "row_s" (J.Obj (List.map (fun (r, t) -> (r, J.Float t)) per_row))
  end
  else begin
    Obs.Metrics.enable ();
    Obs.Trace.enable ();
    let (wall, rows, _), win = measure_window (fun () -> run_pass w) in
    Obs.Trace.disable ();
    Obs.Trace.reset ();
    check_rows o expected rows;
    metric o "traced_wall_s" "s" wall;
    window_metrics o win;
    let records = Report.Table.eqcheck_records rows in
    let proved, _, unknown = Eqcheck.counts records in
    metric o "eqcheck.proved" "count" (float_of_int proved);
    metric o "eqcheck.unknown" "count" (float_of_int unknown);
    metric o "eqcheck.busy_s" "s" (sum (List.map (fun r -> r.Eqcheck.seconds) records));
    metric o "eqcheck.boundaries" "count"
      (float_of_int
         (List.length
            (List.filter (fun r -> String.length r.Eqcheck.rule >= 7
                                   && String.sub r.Eqcheck.rule 0 7 = "eq-pass")
               records)));
    failed_rows o rows;
    List.iter (fun (n, u) -> metric o n u 0.0)
      [ ("serve.engine_ms_p50", "ms"); ("serve.overhead_ms_p50", "ms");
        ("serve.cache_hit_ratio", "ratio"); ("serve.polls_per_request", "count");
        ("serve.rejected", "count") ]
  end;
  detail o "jobs" (J.Int w.jobs);
  o

(* --- serve-mix load generator ----------------------------------------------------- *)

(* The rows that finish in under a second with verify on; s420, s344,
   s298, s400 and planet would make every latency a BDD or retiming
   number, and the two table workloads cover them. *)
let mix_names ~smoke =
  if smoke then [ "s27"; "s208" ]
  else
    [ "ex2"; "ex6"; "bbtas"; "bbara"; "s27"; "s208"; "s349"; "s382"; "s386";
      "s444"; "s510"; "s526"; "s641"; "s1196"; "s1238"; "s5378" ]

type request = { circuit : string; blif : bool }

(* Decks: deck [d] is a seeded permutation of every mix circuit, in which
   the circuits at mix positions [i] with [(i + d) mod 4 = 0] go as inline
   BLIF, a quarter of the deck.  Any four consecutive decks send every
   circuit once as BLIF, and the same decks go out at every seed: the seed
   only orders them. *)
let deck rng names d =
  let a = Array.of_list (List.mapi (fun i c -> { circuit = c; blif = (i + d) mod 4 = 0 }) names) in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let submit_doc ~id ~timeout_s req blif_text =
  let source =
    if req.blif then ("netlist", J.Str (List.assoc req.circuit blif_text))
    else ("benchmark", J.Str req.circuit)
  in
  J.Obj
    [ ("op", J.Str "submit"); ("id", J.Str id); source; ("timeout_s", J.Float timeout_s) ]

type served = {
  req : request;
  latency_ms : float;
  problems : string list;
  rid : string;
}

(* One closed-loop request: submit and wait for the result (the daemon
   enforces [timeout_s]), then check the payload against the in-process
   reference row. *)
let serve_one conn ~poll_s ~timeout_s ~blif_text ~reference ~id req =
  let t0 = now () in
  let res = Serve.Client.submit_and_wait ~poll_s conn (submit_doc ~id ~timeout_s req blif_text) in
  let latency_ms = (now () -. t0) *. 1000.0 in
  let problem msg = Printf.sprintf "%s (%s): %s" id req.circuit msg in
  let problems =
    match res with
    | Error e -> [ problem e ]
    | Ok res when J.member "ok" res <> Some (J.Bool true) ->
      [ problem ("daemon answered " ^ J.to_string res) ]
    | Ok res ->
      let payload = J.member "result" res in
      let verified which =
        Option.bind payload (fun p -> Option.bind (J.member which p) (J.member "verified"))
      in
      let expect = List.assoc (req.circuit, req.blif) reference in
      (if Option.bind payload (J.member "row") = Some (J.Str expect) then []
       else [ problem (Printf.sprintf "payload %s, expected row %S" (J.to_string res) expect) ])
      @ List.filter_map
          (fun which ->
            if verified which = Some (J.Bool true) then None
            else Some (problem (which ^ " not verified")))
          [ "retimed"; "resynthesized" ]
  in
  { req; latency_ms; problems; rid = id }

let prometheus_counters conn =
  match Serve.Client.request conn (J.Obj [ ("op", J.Str "metrics") ]) with
  | Error e -> die "metrics op failed: %s" e
  | Ok resp ->
    let body = Option.value ~default:"" (Option.bind (J.member "body" resp) J.to_str) in
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ name; v ] when line <> "" && line.[0] <> '#' ->
          Option.map (fun f -> (name, f)) (float_of_string_opt v)
        | _ -> None)
      (String.split_on_char '\n' body)

let connect_retry endpoint ~deadline =
  let rec go () =
    match Serve.Client.connect endpoint with
    | conn ->
      (match Serve.Client.request conn (J.Obj [ ("op", J.Str "ping") ]) with
       | Ok _ -> conn
       | Error _ when now () < deadline -> Serve.Client.close conn; Unix.sleepf 0.02; go ()
       | Error e -> die "daemon does not answer ping: %s" e)
    | exception Unix.Unix_error _ when now () < deadline -> Unix.sleepf 0.02; go ()
    | exception Unix.Unix_error (e, _, _) -> die "cannot connect: %s" (Unix.error_message e)
  in
  go ()

(* The status poll interval: it sets the latency resolution. *)
let poll_ms = 5.0

let run_loadgen ~socket ~seed ~seconds ~trace ~smoke =
  let o = outcome () in
  let names = mix_names ~smoke in
  let endpoint = Serve.Daemon.Unix_socket socket in
  let poll_s = poll_ms /. 1000.0 and timeout_s = 60.0 in
  let blif_text =
    List.map (fun n -> (n, Netlist.Blif.to_string ((suite_source n).build ()))) names
  in
  (* reference rows, computed in-process before timing starts; the traced
     run times this pass untraced and again traced *)
  let sources =
    List.concat_map (fun n -> [ (n, false); (n, true) ]) names
  in
  let reference_pass () =
    let t0 = now () in
    let rows =
      Core.Parallel.map_list ~jobs:2
        (fun (n, blif) ->
          let net =
            if blif then Netlist.Blif.parse_string (List.assoc n blif_text)
            else (suite_source n).build ()
          in
          let name = if blif then N.model_name net else n in
          ((n, blif), Core.Flow.run_all ~name net))
        sources
    in
    (now () -. t0, rows)
  in
  let _, reference_rows = reference_pass () in
  let reference =
    List.map (fun (k, r) -> (k, Report.Table.row_to_string r)) reference_rows
  in
  let conns = Array.init 2 (fun _ -> connect_retry endpoint ~deadline:(now () +. 30.0)) in
  let counters0 = prometheus_counters conns.(0) in
  (* closed loop over both connections: each client takes the next request
     only after its previous one returned; once [stop] holds for request k
     no further request is taken *)
  let run_clients ~stop ~plan ~prefix =
    let lock = Mutex.create () and next = ref 0 and closed = ref false in
    let take () =
      Mutex.protect lock (fun () ->
          let k = !next in
          if !closed || stop k then begin
            closed := true;
            None
          end
          else begin
            incr next;
            Option.map (fun r -> (k, r)) (plan k)
          end)
    in
    let client c =
      let rec go acc =
        match take () with
        | None -> acc
        | Some (k, req) ->
          let id = Printf.sprintf "%s-%d" prefix k in
          go (serve_one conns.(c) ~poll_s ~timeout_s ~blif_text ~reference ~id req :: acc)
      in
      go []
    in
    let other = Domain.spawn (fun () -> client 1) in
    let mine = client 0 in
    List.rev_append mine (Domain.join other)
  in
  (* cold pass: every mix circuit once, by name *)
  let cold_t0 = now () in
  let cold_plan = Array.of_list (List.map (fun c -> { circuit = c; blif = false }) names) in
  let cold =
    run_clients ~stop:(fun _ -> false) ~prefix:"cold"
      ~plan:(fun k -> if k < Array.length cold_plan then Some cold_plan.(k) else None)
  in
  let cold_s = now () -. cold_t0 in
  List.iter (fun s -> attempt o s.problems) cold;
  (* the measured window *)
  let rng = Random.State.make [| seed |] in
  let plan_tbl = Hashtbl.create 256 in
  let deck_len = List.length names in
  let plan k =
    let d = k / deck_len in
    while Hashtbl.length plan_tbl <= d do
      let d = Hashtbl.length plan_tbl in
      Hashtbl.replace plan_tbl d (Array.of_list (deck rng names d))
    done;
    Some (Hashtbl.find plan_tbl d).(k mod deck_len)
  in
  let min_requests = if smoke then 10 else 100 in
  let start = now () in
  (* whole decks only, so every seed's window holds the same requests *)
  let stop k =
    k mod deck_len = 0 && k >= min_requests && (smoke || now () -. start >= seconds)
  in
  let served = run_clients ~stop ~plan ~prefix:"req" in
  let window = now () -. start in
  List.iter (fun s -> attempt o s.problems) served;
  let counters1 = prometheus_counters conns.(0) in
  let lat = List.map (fun s -> s.latency_ms) served in
  metric o "cold_pass_s" "s" cold_s;
  metric o "latency_p50_ms" "ms" (percentile 50.0 lat);
  metric o "latency_p90_ms" "ms" (percentile 90.0 lat);
  metric o "throughput_rps" "1/s" (float_of_int (List.length served) /. window);
  (* one deck, every mix circuit once, at the measured rate *)
  metric o "wall_s" "s" (window *. float_of_int deck_len /. float_of_int (List.length served));
  detail o "requests" (J.Int (List.length served));
  detail o "poll_ms" (J.Float poll_ms);
  (* QoR of the served rows: the by-name reference rows, which every
     payload was checked against *)
  let rows =
    List.filter_map (fun ((_, blif), r) -> if blif then None else Some r) reference_rows
  in
  qor o rows;
  if trace then begin
    o.metrics <- List.filter (fun (n, _, _) -> String.sub n 0 4 <> "qor.") o.metrics;
    let cdelta name =
      let v l = Option.value ~default:0.0 (List.assoc_opt name l) in
      v counters1 -. v counters0
    in
    let engine =
      List.filter_map
        (fun s ->
          match
            Serve.Client.request conns.(0)
              (J.Obj [ ("op", J.Str "diagnostics"); ("id", J.Str s.rid) ])
          with
          | Ok d ->
            Option.map (fun e -> (e, s.latency_ms -. e))
              (Option.bind (Option.bind (J.member "diagnostics" d) (J.member "elapsed_ms"))
                 J.to_float)
          | Error _ -> None)
        served
    in
    metric o "serve.engine_ms_p50" "ms" (median (List.map fst engine));
    metric o "serve.overhead_ms_p50" "ms" (median (List.map snd engine));
    let hits = cdelta "serve_cache_hits" and misses = cdelta "serve_cache_misses" in
    metric o "serve.cache_hit_ratio" "ratio"
      (if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
    (* the window's only requests are each job's submit, status polls and
       result *)
    let n = float_of_int (List.length served) in
    metric o "serve.polls_per_request" "count"
      ((cdelta "serve_requests" -. (2.0 *. n)) /. n);
    metric o "serve.rejected" "count" (cdelta "serve_jobs_rejected");
    (* the daemon's own layer counters over the window *)
    metric o "bdd.nodes_allocated" "count"
      (cdelta "bdd_nodes_allocated_total");
    let ih = cdelta "bdd_ite_hits" and im = cdelta "bdd_ite_misses" in
    metric o "bdd.ite_hit_ratio" "ratio" (if ih +. im = 0.0 then 0.0 else ih /. (ih +. im));
    metric o "bdd.stripe_contention" "count" (cdelta "bdd_stripe_contention");
    metric o "sched.tasks_forked" "count" (cdelta "parallel_tasks_forked");
    metric o "sched.steals" "count" (cdelta "parallel_steals");
    metric o "sched.joins_waited" "count" (cdelta "parallel_joins_waited");
    metric o "sta.requeries" "count" (cdelta "sta_requeries");
    metric o "logic.scc_pairs_probed" "count" (cdelta "logic_scc_pairs_probed");
    (* in-process: the reference pass traced, against an untraced one;
       both after the first, so both find the BDD table warm *)
    let warm_wall, _ = reference_pass () in
    Obs.Metrics.enable ();
    Obs.Trace.enable ();
    let (wall_t, _), win = measure_window reference_pass in
    Obs.Trace.disable ();
    Obs.Trace.reset ();
    metric o "obs.trace_overhead_pct" "%" (100.0 *. (wall_t -. warm_wall) /. warm_wall);
    metric o "gc.minor_mwords" "Mwords" (win.minor_words /. 1e6);
    metric o "gc.major_collections" "count" (float_of_int win.major_collections);
    failed_rows o rows;
    let slow =
      List.fold_left (fun m s -> if s.latency_ms > m.latency_ms then s else m)
        (List.hd served) served
    in
    metric o "rows.slowest_s" "s" (slow.latency_ms /. 1000.0);
    metric o "rows.slowest_share_pct" "%" (100.0 *. slow.latency_ms /. 1000.0 /. window);
    detail o "rows.slowest" (J.Str slow.req.circuit);
    let expected =
      List.filter_map (fun ((n, blif), line) -> if blif then None else Some (n, line)) reference
    in
    breakdown_metrics o
      (breakdown o ~seed ~verify:true ~expected (List.map suite_source names));
    List.iter (fun (n, u) -> metric o n u 0.0)
      [ ("eqcheck.proved", "count"); ("eqcheck.unknown", "count");
        ("eqcheck.busy_s", "s"); ("eqcheck.boundaries", "count");
        ("eqcheck.cap_trips", "count"); ("eqcheck.memo_hit_ratio", "ratio") ]
  end;
  Array.iter Serve.Client.close conns;
  detail o "jobs" (J.Int 2);
  o

(* --- command line ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let get key =
    let rec find = function
      | k :: v :: _ when k = key -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let req key = match get key with Some v -> v | None -> die "%s is required" key in
  let num key conv =
    match conv (req key) with Some v -> v | None -> die "%s: not a number" key
  in
  let smoke = List.mem "--smoke" args in
  let trace () =
    match req "--trace" with
    | "0" -> false
    | "1" -> true
    | t -> die "--trace expects 0 or 1, got %s" t
  in
  let provenance o =
    detail o "ocaml" (J.Str Sys.ocaml_version);
    detail o "cores" (J.Int (Core.Parallel.cores ()))
  in
  match args with
  | "table" :: _ ->
    let o =
      run_table ~wname:(req "--workload") ~expected_file:(req "--expected")
        ~trace:(trace ()) ~smoke ~setup_only:(List.mem "--setup-only" args)
    in
    provenance o;
    print_outcome o
  | "breakdown" :: _ ->
    let o =
      run_breakdown ~wname:(req "--workload") ~expected_file:(req "--expected")
        ~seed:(num "--seed" int_of_string_opt) ~smoke
    in
    provenance o;
    print_outcome o
  | "loadgen" :: _ ->
    let o =
      run_loadgen ~socket:(req "--socket") ~seed:(num "--seed" int_of_string_opt)
        ~seconds:(num "--seconds" float_of_string_opt) ~trace:(trace ()) ~smoke
    in
    provenance o;
    print_outcome o
  | "expected" :: _ ->
    List.iter
      (fun r -> print_endline (Report.Table.row_to_string r))
      (Report.Table.run_suite ~verify:false ~jobs:2 ())
  | _ ->
    prerr_endline
      "usage: perfbench (table | loadgen | expected) [options]; see run.py";
    exit 2
