(* Kernel microbenchmarks and the flow ablations EXPERIMENTS.md reports.

   Usage: main [--smoke | --sta | --logic | --bdd] [--quick]

   --smoke   CI-sized pass over every kernel; writes no file
   --sta     incremental vs full STA re-query        -> BENCH_sta.json
   --logic   packed vs legacy cube ops, SCC index    -> BENCH_logic.json
   --bdd     one image step of the reachability engine -> BENCH_bdd.json
   --quick   smaller workloads for --sta, --logic and --bdd

   With no section flag it runs the ablations, the min-register extension
   and all three kernel sections.  End-to-end suite runs (Table I, per-pass
   checks, the daemon) are measured by perfbench; Table I itself is
   bin/table1.exe and the Section III example is examples/quickstart.exe. *)

module N = Netlist.Network

let line = String.make 86 '='

let section title =
  Printf.printf "\n%s\n== %s\n%s\n%!" line title line

(* --- timing and emission ------------------------------------------------------ *)

type timing = { median : float; iqr : float }
(** Seconds per run of the timed body. *)

let samples = 7

(* [p]-quantile of a sorted array, interpolating between neighbours. *)
let quantile sorted p =
  let x = p *. float_of_int (Array.length sorted - 1) in
  let i = int_of_float x in
  let j = min (i + 1) (Array.length sorted - 1) in
  sorted.(i) +. ((x -. float_of_int i) *. (sorted.(j) -. sorted.(i)))

(* The one timer: after a warm-up run, grow the repetition count until one
   sample takes [min_s] of wall clock, then take [samples] samples of that
   many runs each.  Sub-microsecond bodies need the repetition count; the
   median and interquartile range of the samples separate a real difference
   from scheduler noise on a shared box. *)
let time_pass ?(min_s = 0.05) f =
  ignore (f ());
  let sample reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do ignore (f ()) done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let rec calibrate reps =
    if sample reps *. float_of_int reps >= min_s then reps
    else calibrate (reps * 4)
  in
  let reps = calibrate 1 in
  let xs = Array.init samples (fun _ -> sample reps) in
  Array.sort Float.compare xs;
  { median = quantile xs 0.5; iqr = quantile xs 0.75 -. quantile xs 0.25 }

let pp_us t = Printf.sprintf "%9.2f us ±%.2f" (t.median *. 1e6) (t.iqr *. 1e6)

(* [key.median_<unit>] and [key.iqr_<unit>] fields for one timing. *)
let timing_fields key ~scale ~unit t =
  [ (Printf.sprintf "%s.median_%s" key unit, t.median *. scale);
    (Printf.sprintf "%s.iqr_%s" key unit, t.iqr *. scale) ]

(* The source revision a bench ran on. *)
let git_commit () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let line = try input_line ic with End_of_file -> "unknown" in
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 -> line
     | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> "unknown")

(* Every BENCH_*.json goes through here: the section's values become gauges
   under a "bench.<section>" prefix next to the host fields (commit, OCaml
   version, cores, samples per timing), then that namespace is dumped.
   Histograms observed under the prefix ride along. *)
let emit_bench ~file ~prefix ~title values =
  Obs.Metrics.enable ();
  Obs.Metrics.set_info (prefix ^ ".benchmark") title;
  Obs.Metrics.set_info (prefix ^ ".commit") (git_commit ());
  Obs.Metrics.set_info (prefix ^ ".ocaml_version") Sys.ocaml_version;
  List.iter
    (fun (key, v) ->
      Obs.Metrics.set_gauge (Obs.Metrics.gauge (prefix ^ "." ^ key)) v)
    (("cores", float_of_int (Core.Parallel.cores ()))
     :: ("samples", float_of_int samples)
     :: values);
  Obs.Export.write_file file (Obs.Export.metrics_json ~prefix ());
  Printf.printf "  -> %s\n" file

(* --- ablations ----------------------------------------------------------------- *)

let ablations () =
  section "Ablations (DESIGN.md section 5)";
  let variants =
    [ ("dc-mode=substitution",
       { Core.Resynth.default_options with
         Core.Resynth.dc_mode = Core.Resynth.Substitution });
      ("no-post-retiming",
       { Core.Resynth.default_options with Core.Resynth.retime_post = false });
      ("no-guard",
       { Core.Resynth.default_options with
         Core.Resynth.guard_regression = false }) ]
  in
  List.iter
    (fun (name, options) ->
      let rows =
        Report.Table.run_suite ~verify:false ~resynth_options:options ()
      in
      Printf.printf "\n--- %s\n%s" name (Report.Table.summary rows);
      if name = "no-guard" then begin
        let regressions =
          List.length
            (List.filter
               (fun r ->
                 match r.Core.Flow.resynthesized.Core.Flow.stats with
                 | Some s ->
                   s.Core.Flow.clk > r.Core.Flow.base.Core.Flow.clk +. 1e-9
                 | None -> false)
               rows)
        in
        Printf.printf
          "  unguarded clock regressions vs script.delay: %d rows (the \
           paper's s420/s510 phenomenon)\n"
          regressions
      end)
    variants

(* --- extension: exact min-register retiming ----------------------------------- *)

(* Not part of the paper's evaluation, but the classical companion objective
   it cites ("retiming ... for register minimization under cycle-time
   constraints [2]").  Solved exactly by the min-cost-flow dual with the
   Leiserson-Saxe fanout-sharing mirror construction.  A result is
   "verified" only by the BDD product machine; past its latch cap the
   check is random co-simulation and says so. *)
let min_register_extension () =
  section "Extension: exact min-register retiming (period-constrained)";
  let model = Sta.mapped_delay () in
  List.iter
    (fun name ->
      let entry = Circuits.Suite.find name in
      let net = entry.Circuits.Suite.build () in
      let mapped =
        Core.Flow.script_delay_flow net ~lib:Techmap.Genlib.mcnc_lite
      in
      let period = Sta.clock_period mapped model in
      match
        Retiming.Minregister.min_registers ~target_period:period mapped ~model
      with
      | Ok (retimed, count) ->
        let how, ok =
          match Sim.Equiv.seq_equal_bdd mapped retimed with
          | ok -> ("verified", ok)
          | exception Sim.Equiv.Too_large _ ->
            ("simulated", Sim.Equiv.seq_equal_random ~seed:0xC0FFEE mapped retimed)
        in
        Printf.printf "  %-8s registers %3d -> %3d at period %.2f (%s %b)\n"
          name (N.num_latches mapped) count period how ok
      | Error f ->
        Printf.printf "  %-8s failed: %s\n" name
          (Retiming.Minperiod.failure_message f))
    [ "s27"; "s208"; "s298"; "s344"; "s382"; "s400"; "s444"; "s526" ]

(* --- incremental STA vs full reanalysis --------------------------------------- *)

(* The scenario every optimization loop pays for: apply one local edit, ask
   for the clock period again.  The full engine re-analyzes the whole
   network; the incremental timer re-propagates only the edit's cone. *)
let sta_bench ~emit_json ~circuits =
  section "Incremental STA vs full reanalysis (single-edit period re-queries)";
  let model = Sta.mapped_delay ~default:1.0 () in
  let bench_circuit name =
    let net = (Circuits.Suite.find name).Circuits.Suite.build () in
    let nodes = Array.of_list (N.logic_nodes net) in
    let nnodes = Array.length nodes in
    let gate gate_name gate_delay =
      Some { N.gate_name; gate_area = 1.0; gate_delay }
    in
    let slow = gate "slow" 3.0 and fast = gate "fast" 1.0 in
    (* stride across the circuit so successive edits hit unrelated cones *)
    let edits = ref 0 in
    let edit () =
      incr edits;
      N.set_binding net
        nodes.(!edits * 37 mod nnodes)
        (if !edits land 1 = 0 then slow else fast)
    in
    let full =
      time_pass (fun () ->
          edit ();
          Sta.clock_period net model)
    in
    let timer = Sta.Incremental.create net model in
    let incremental =
      time_pass (fun () ->
          edit ();
          Sta.Incremental.period timer)
    in
    (* both engines must agree after all those edits *)
    assert (Sta.Incremental.period timer = Sta.clock_period net model);
    let stats = Sta.Incremental.stats timer in
    let speedup = full.median /. incremental.median in
    Printf.printf
      "  %-6s %4d gates  full %s  incremental %s  speedup %5.1fx  (%d \
       incremental syncs, %d full)\n%!"
      name nnodes (pp_us full) (pp_us incremental) speedup
      stats.Sta.Incremental.incremental_syncs stats.Sta.Incremental.full_syncs;
    [ (name ^ ".logic_nodes", float_of_int nnodes) ]
    @ timing_fields (name ^ ".full") ~scale:1e9 ~unit:"ns" full
    @ timing_fields (name ^ ".incremental") ~scale:1e9 ~unit:"ns" incremental
    @ [ (name ^ ".speedup", speedup) ]
  in
  let fields = List.concat_map bench_circuit circuits in
  if emit_json then
    emit_bench ~file:"BENCH_sta.json" ~prefix:"bench.sta"
      ~title:"single-edit clock-period re-query, ns per query" fields

(* --- packed vs legacy cube kernel ---------------------------------------------- *)

(* The same workload runs against the packed kernel ({!Logic.Cube}) and the
   legacy one-variant-per-literal arrays ({!Logic.Cube_ref}), built from
   identical cube strings, with checksums compared so a representation bug
   cannot masquerade as a speedup. *)

module type CUBE_OPS = sig
  type t
  val of_string : string -> t
  val contains : t -> t -> bool
  val intersect : t -> t -> t option
  val distance : t -> t -> int
  val supercube : t -> t -> t
  val lit_count : t -> int
  val compare : t -> t -> int
end

module Cube_workload (C : CUBE_OPS) = struct
  let build strings = Array.map C.of_string strings

  (* Each pass returns an int checksum over the whole sweep. *)
  let contains_sweep cubes () =
    let count = ref 0 and n = Array.length cubes in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if C.contains cubes.(i) cubes.(j) then incr count
      done
    done;
    !count

  let intersect_sweep cubes () =
    let acc = ref 0 and n = Array.length cubes in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        match C.intersect cubes.(i) cubes.(j) with
        | Some c -> acc := !acc + C.lit_count c
        | None -> incr acc
      done
    done;
    !acc

  let distance_sweep cubes () =
    let acc = ref 0 and n = Array.length cubes in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        acc := !acc + C.distance cubes.(i) cubes.(j)
      done
    done;
    !acc

  let supercube_fold cubes () =
    let acc = ref cubes.(0) in
    for i = 1 to Array.length cubes - 1 do
      acc := C.supercube !acc cubes.(i)
    done;
    C.lit_count !acc

  let sort_pass cubes () =
    let copy = Array.copy cubes in
    Array.sort C.compare copy;
    C.lit_count copy.(0)

  let passes cubes =
    [ ("contains-sweep", contains_sweep cubes);
      ("intersect-sweep", intersect_sweep cubes);
      ("distance-sweep", distance_sweep cubes);
      ("supercube-fold", supercube_fold cubes);
      ("sort", sort_pass cubes) ]
end

module Packed_work = Cube_workload (Logic.Cube)
module Legacy_work = Cube_workload (Logic.Cube_ref)

let random_cube_strings st ~vars ~cubes =
  Array.init cubes (fun _ ->
      String.init vars (fun _ ->
          (* half don't-care keeps sweeps from degenerating to all-disjoint *)
          match Random.State.int st 4 with
          | 0 -> '0'
          | 1 -> '1'
          | _ -> '-'))

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

let logic_bench ~emit_json ~quick =
  section "Packed vs legacy cube kernel (identical random workloads)";
  let widths = if quick then [ 16; 64 ] else [ 16; 63; 128; 200 ] in
  let cubes = if quick then 96 else 192 in
  let min_s = if quick then 0.01 else 0.05 in
  let st = Random.State.make [| 0x5eed; 0xcbe |] in
  let ops =
    List.concat_map
      (fun vars ->
        let strings = random_cube_strings st ~vars ~cubes in
        List.map2
          (fun (name, packed_pass) (_, legacy_pass) ->
            let packed_sum = packed_pass () and legacy_sum = legacy_pass () in
            if packed_sum <> legacy_sum then
              fail "logic bench: checksum mismatch on %s vars=%d (packed %d, \
                    legacy %d)" name vars packed_sum legacy_sum;
            let legacy = time_pass ~min_s legacy_pass in
            let packed = time_pass ~min_s packed_pass in
            let speedup = legacy.median /. packed.median in
            Printf.printf "  %-15s vars=%-3d legacy %s  packed %s  %6.2fx\n%!"
              name vars (pp_us legacy) (pp_us packed) speedup;
            (Printf.sprintf "%s.vars%d" name vars, legacy, packed, speedup))
          (Packed_work.passes (Packed_work.build strings))
          (Legacy_work.passes (Legacy_work.build strings)))
      widths
  in
  let geomean =
    exp
      (List.fold_left (fun acc (_, _, _, s) -> acc +. log s) 0.0 ops
      /. float_of_int (List.length ops))
  in
  Printf.printf "  geometric-mean speedup: %.2fx\n" geomean;
  (* single-cube containment: classic all-pairs sweep vs the
     signature-bucketed candidate index, on covers big enough for the
     quadratic term to hurt.  Outputs must agree cube for cube; per-call
     probe counts are sampled from the logic.scc instrumentation into
     bench.logic histograms so BENCH_logic.json carries before/after. *)
  Obs.Metrics.enable ();
  let h_linear = Obs.Metrics.histogram "bench.logic.scc_probes_linear" in
  let h_indexed = Obs.Metrics.histogram "bench.logic.scc_probes_indexed" in
  let c_probes = Obs.Metrics.counter "logic.scc.pairs_probed" in
  let scc_sizes = if quick then [ 256 ] else [ 256; 1024; 2048 ] in
  let scc =
    List.map
      (fun k ->
        let vars = 24 in
        let f =
          Logic.Cover.of_strings vars
            (Array.to_list (random_cube_strings st ~vars ~cubes:k))
        in
        let probed algo h =
          let v0 = Obs.Metrics.counter_value c_probes in
          let r = Logic.Cover.single_cube_containment ~algo f in
          Obs.Metrics.observe h (Obs.Metrics.counter_value c_probes - v0);
          r
        in
        let lin = probed `Linear h_linear in
        let idx = probed `Indexed h_indexed in
        if
          not
            (Logic.Cover.size lin = Logic.Cover.size idx
            && List.for_all2
                 (fun a b -> Logic.Cube.compare a b = 0)
                 lin.Logic.Cover.cubes idx.Logic.Cover.cubes)
        then fail "logic bench: linear and indexed containment disagree at \
                   cubes=%d" k;
        let time algo =
          time_pass ~min_s (fun () ->
              Logic.Cover.size (Logic.Cover.single_cube_containment ~algo f))
        in
        let linear = time `Linear and indexed = time `Indexed in
        let speedup = linear.median /. indexed.median in
        Printf.printf "  %-15s cubes=%-4d linear %s  indexed %s  %6.2fx\n%!"
          "scc-index" k (pp_us linear) (pp_us indexed) speedup;
        (Printf.sprintf "scc.cubes%d" k, linear, indexed, speedup))
      scc_sizes
  in
  let fields a b =
    List.concat_map
      (fun (key, ta, tb, speedup) ->
        timing_fields (key ^ "." ^ a) ~scale:1e9 ~unit:"ns" ta
        @ timing_fields (key ^ "." ^ b) ~scale:1e9 ~unit:"ns" tb
        @ [ (key ^ ".speedup", speedup) ])
  in
  if emit_json then
    emit_bench ~file:"BENCH_logic.json" ~prefix:"bench.logic"
      ~title:"packed vs legacy cube kernel + containment index, ns per pass"
      ((("cubes_per_set", float_of_int cubes) :: ("geomean_speedup", geomean)
        :: fields "legacy" "packed" ops)
      @ fields "linear" "indexed" scc)

(* --- BDD image step ------------------------------------------------------------- *)

(* One image step of the reachability engine on the product machine the
   flow's own check builds: the mapped circuit against its resynthesized
   version (the mapped circuit itself when resynthesis declines).  The step
   maps the full reachable set to its successors, the widest image of the
   fixpoint. *)
let bdd_bench ~emit_json ~circuits =
  section "BDD image step on the flow's product machine";
  let image_step name =
    let net = (Circuits.Suite.find name).Circuits.Suite.build () in
    let mapped =
      Core.Flow.script_delay_flow net ~lib:Techmap.Genlib.mcnc_lite
    in
    let other =
      match Core.Flow.resynthesis_flow (N.copy mapped) with
      | Ok (result, _) -> result
      | Error _ -> N.copy mapped
    in
    let machine, _ = Sim.Symbolic.product mapped other in
    let reached = Sim.Symbolic.reachable machine in
    let latches = Sim.Symbolic.num_latches machine in
    let states =
      Bdd.sat_count (Sim.Symbolic.man machine) ~nvars:latches
        (Sim.Symbolic.latch_space machine reached)
    in
    let t = time_pass (fun () -> Sim.Symbolic.image machine reached) in
    Printf.printf
      "  %-5s %2d product latches, %8.0f reachable states: %9.3f ms ±%.3f\n%!"
      name latches states (t.median *. 1e3) (t.iqr *. 1e3);
    [ (name ^ ".product_latches", float_of_int latches);
      (name ^ ".reachable_states", states) ]
    @ timing_fields (name ^ ".image") ~scale:1e3 ~unit:"ms" t
  in
  let fields = List.concat_map image_step circuits in
  if emit_json then
    emit_bench ~file:"BENCH_bdd.json" ~prefix:"bench.bdd"
      ~title:"image of the reachable set, ms per step" fields

let () =
  let smoke = ref false and quick = ref false and only = ref None in
  List.iter
    (function
      | "--smoke" -> smoke := true
      | "--quick" -> quick := true
      | "--sta" -> only := Some `Sta
      | "--logic" -> only := Some `Logic
      | "--bdd" -> only := Some `Bdd
      | arg ->
        Printf.eprintf
          "bench: unknown argument %s\n\
           usage: main [--smoke | --sta | --logic | --bdd] [--quick]\n"
          arg;
        exit 2)
    (List.tl (Array.to_list Sys.argv));
  let quick = !quick in
  let sta () =
    sta_bench ~emit_json:true
      ~circuits:
        (if quick then [ "s641"; "s5378" ]
         else [ "s641"; "s1196"; "s1238"; "s5378" ])
  in
  let logic () = logic_bench ~emit_json:true ~quick in
  let bdd () =
    bdd_bench ~emit_json:true
      ~circuits:(if quick then [ "s298" ] else [ "s298"; "s420" ])
  in
  Printf.printf "Retiming-induced state register equivalence: kernel benches\n";
  match !only with
  | Some `Sta -> sta ()
  | Some `Logic -> logic ()
  | Some `Bdd -> bdd ()
  | None when !smoke ->
    sta_bench ~emit_json:false ~circuits:[ "s298"; "s641" ];
    logic_bench ~emit_json:false ~quick:true;
    bdd_bench ~emit_json:false ~circuits:[ "s298" ];
    Printf.printf "\nsmoke ok.\n"
  | None ->
    ablations ();
    min_register_extension ();
    sta ();
    logic ();
    bdd ();
    Printf.printf "\ndone.\n"
