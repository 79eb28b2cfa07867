(* Retiming tests: atomic moves, initial-state computation, Leiserson-Saxe
   min-period retiming (against FEAS and list Bellman-Ford references),
   constrained min-area, exact min-register.  Every transformation is
   checked for sequential equivalence. *)

module N = Netlist.Network
module M = Retiming.Moves
module MI = Retiming.Minperiod.Internal

let and_cover = Logic.Cover.of_strings 2 [ "11" ]
let or_cover = Logic.Cover.of_strings 2 [ "1-"; "-1" ]
let inv_cover = Logic.Cover.of_strings 1 [ "0" ]
let xor_cover = Logic.Cover.of_strings 2 [ "10"; "01" ]

(* r1 -> g1 -> g2 -> r2 -> r1 feedback loop with two registers in a row:
   retiming can push one register between g1 and g2 (period 2 -> 1). *)
let two_register_loop () =
  let net = N.create ~name:"loop2" () in
  let a = N.add_input net "a" in
  let r1 = N.add_latch net ~name:"r1" N.I0 a in
  let g1 = N.add_logic net ~name:"g1" and_cover [ r1; a ] in
  let g2 = N.add_logic net ~name:"g2" xor_cover [ g1; a ] in
  let r2 = N.add_latch net ~name:"r2" N.I0 g2 in
  N.replace_fanin net r1 ~old_fanin:a ~new_fanin:r2;
  N.set_output net "o" r1;
  N.check net;
  net

let test_forward_move_init () =
  (* g = AND of two latches with inits 1,1 -> new latch init 1 *)
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let r1 = N.add_latch net ~name:"r1" N.I1 a in
  let r2 = N.add_latch net ~name:"r2" N.I1 b in
  let g = N.add_logic net ~name:"g" and_cover [ r1; r2 ] in
  N.set_output net "o" g;
  let before = N.copy net in
  (match M.forward_across_node net g with
   | Ok latch ->
     Alcotest.(check bool) "init 1" true (N.latch_init latch = N.I1);
     Alcotest.(check int) "one latch now" 1 (N.num_latches net);
     N.check net;
     Alcotest.(check bool) "behaviour preserved" true
       (Sim.Equiv.seq_equal_bdd before net)
   | Error e -> Alcotest.fail (M.error_message e))

let test_forward_move_init_and0 () =
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let r1 = N.add_latch net ~name:"r1" N.I1 a in
  let r2 = N.add_latch net ~name:"r2" N.I0 b in
  let g = N.add_logic net ~name:"g" and_cover [ r1; r2 ] in
  N.set_output net "o" g;
  match M.forward_across_node net g with
  | Ok latch -> Alcotest.(check bool) "init 0" true (N.latch_init latch = N.I0)
  | Error e -> Alcotest.fail (M.error_message e)

let test_forward_move_x_init () =
  (* AND(1, x) = x; AND(0, x) = 0 under 3-valued evaluation *)
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let r1 = N.add_latch net ~name:"r1" N.Ix a in
  let r2 = N.add_latch net ~name:"r2" N.I0 b in
  let g = N.add_logic net ~name:"g" and_cover [ r1; r2 ] in
  N.set_output net "o" g;
  match M.forward_across_node net g with
  | Ok latch ->
    Alcotest.(check bool) "0 dominates x" true (N.latch_init latch = N.I0)
  | Error e -> Alcotest.fail (M.error_message e)

let test_forward_requires_all_latches () =
  let net = N.create () in
  let a = N.add_input net "a" in
  let r = N.add_latch net ~name:"r" N.I0 a in
  let g = N.add_logic net ~name:"g" and_cover [ r; a ] in
  N.set_output net "o" g;
  Alcotest.(check bool) "not retimable" false (M.is_forward_retimable net g);
  match M.forward_across_node net g with
  | Error (M.Not_retimable _) -> ()
  | Ok _ | Error (M.No_initial_state _) -> Alcotest.fail "expected failure"

let test_forward_self_loop () =
  (* v reads its own latched output: toggle-style; register must remain on
     the loop. *)
  let net = N.create () in
  let a = N.add_input net "a" in
  let r = N.add_latch net ~name:"r" N.I0 a in
  let g = N.add_logic net ~name:"g" inv_cover [ r ] in
  N.replace_fanin net r ~old_fanin:a ~new_fanin:g;
  N.set_output net "o" g;
  let before = N.copy net in
  (* g's only fanin is the latch: forward retimable *)
  match M.forward_across_node net g with
  | Ok _ ->
    N.check net;
    Alcotest.(check int) "still one latch" 1 (N.num_latches net);
    Alcotest.(check bool) "behaviour preserved" true
      (Sim.Equiv.seq_equal_bdd before net)
  | Error e -> Alcotest.fail (M.error_message e)

let test_backward_move () =
  (* latch after an AND gate, init 1: preimage must be (1,1) *)
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let g = N.add_logic net ~name:"g" and_cover [ a; b ] in
  let r = N.add_latch net ~name:"r" N.I1 g in
  N.set_output net "o" r;
  let before = N.copy net in
  (match M.backward_across_node net g with
   | Ok latches ->
     Alcotest.(check int) "two new latches" 2 (List.length latches);
     List.iter
       (fun l ->
         Alcotest.(check bool) "init 1" true (N.latch_init l = N.I1))
       latches;
     N.check net;
     Alcotest.(check bool) "behaviour preserved" true
       (Sim.Equiv.seq_equal_bdd before net)
   | Error e -> Alcotest.fail (M.error_message e))

let test_backward_move_no_preimage () =
  (* constant-0 node with latch init 1: no preimage *)
  let net = N.create () in
  let a = N.add_input net "a" in
  let g =
    N.add_logic net ~name:"g" (Logic.Cover.of_strings 2 [ "10"; "01" ]) [ a; a ]
  in
  (* xor(a, a) = 0 *)
  let r = N.add_latch net ~name:"r" N.I1 g in
  N.set_output net "o" r;
  match M.backward_across_node net g with
  | Error (M.No_initial_state _) -> ()
  | Ok _ -> Alcotest.fail "xor(a,a)=0 cannot have initial value 1"
  | Error (M.Not_retimable m) -> Alcotest.fail m

let test_backward_needs_uniform_inits () =
  let net = N.create () in
  let a = N.add_input net "a" in
  let g = N.add_logic net ~name:"g" inv_cover [ a ] in
  let _r1 = N.add_latch net ~name:"r1" N.I0 g in
  let _r2 = N.add_latch net ~name:"r2" N.I1 g in
  Alcotest.(check bool) "different inits block backward move" false
    (M.is_backward_retimable net g)

let test_split_stem () =
  let net = N.create () in
  let a = N.add_input net "a" in
  let r = N.add_latch net ~name:"r" N.I1 a in
  let g1 = N.add_logic net ~name:"g1" inv_cover [ r ] in
  let g2 = N.add_logic net ~name:"g2" inv_cover [ r ] in
  N.set_output net "o1" g1;
  N.set_output net "o2" g2;
  let before = N.copy net in
  let copies = M.split_stem net r in
  Alcotest.(check int) "two copies" 2 (List.length copies);
  List.iter
    (fun c -> Alcotest.(check bool) "same init" true (N.latch_init c = N.I1))
    copies;
  N.check net;
  Alcotest.(check int) "two latches now" 2 (N.num_latches net);
  Alcotest.(check bool) "behaviour preserved" true
    (Sim.Equiv.seq_equal_bdd before net);
  (* and merging them back restores the register count *)
  (match M.merge_siblings net copies with
   | Ok _ ->
     Alcotest.(check int) "merged back" 1 (N.num_latches net);
     Alcotest.(check bool) "still equivalent" true
       (Sim.Equiv.seq_equal_bdd before net)
   | Error e -> Alcotest.fail (M.error_message e))

let test_merge_rejects_mixed_inits () =
  let net = N.create () in
  let a = N.add_input net "a" in
  let r1 = N.add_latch net ~name:"r1" N.I0 a in
  let r2 = N.add_latch net ~name:"r2" N.I1 a in
  let g = N.add_logic net ~name:"g" and_cover [ r1; r2 ] in
  N.set_output net "o" g;
  match M.merge_siblings net [ r1; r2 ] with
  | Error (M.Not_retimable _) -> ()
  | Ok _ -> Alcotest.fail "mixed inits must not merge"
  | Error (M.No_initial_state m) -> Alcotest.fail m

(* --- min-period retiming ---------------------------------------------------- *)

let test_min_period_loop () =
  let net = two_register_loop () in
  Alcotest.(check (float 1e-9)) "initial period 2" 2.0
    (Sta.clock_period net Sta.unit_delay);
  (match Retiming.Minperiod.min_feasible_period net Sta.unit_delay with
   | Ok p -> Alcotest.(check (float 1e-9)) "feasible period 1" 1.0 p
   | Error f -> Alcotest.fail (Retiming.Minperiod.failure_message f));
  match Retiming.Minperiod.retime_min_period net ~model:Sta.unit_delay with
  | Ok (retimed, period) ->
    Alcotest.(check (float 1e-9)) "achieved 1" 1.0 period;
    Alcotest.(check (float 1e-9)) "measured 1" 1.0
      (Sta.clock_period retimed Sta.unit_delay);
    N.check retimed;
    Alcotest.(check bool) "behaviour preserved" true
      (Sim.Equiv.seq_equal_bdd net retimed)
  | Error f -> Alcotest.fail (Retiming.Minperiod.failure_message f)

let test_retime_infeasible_target () =
  (* the loop bound is 1: the engine's feasibility check rejects 0.5 and
     accepts 1 *)
  let net = two_register_loop () in
  let g = MI.build_graph net Sta.unit_delay in
  let wd = MI.wd_matrices g in
  Alcotest.(check bool) "0.5 is below the loop bound" true
    (MI.feasible g wd 0.5 = None);
  Alcotest.(check bool) "1 is feasible" true (MI.feasible g wd 1.0 <> None)

let test_retime_pipeline () =
  (* a -> g1 -> g2 -> g3 -> r -> out: moving the register into the middle of
     the 3-gate chain balances the pipeline (period 3 -> 2). *)
  let net = N.create ~name:"pipe" () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let g1 = N.add_logic net ~name:"g1" and_cover [ a; b ] in
  let g2 = N.add_logic net ~name:"g2" or_cover [ g1; b ] in
  let g3 = N.add_logic net ~name:"g3" inv_cover [ g2 ] in
  let r = N.add_latch net ~name:"r" N.I0 g3 in
  N.set_output net "o" r;
  Alcotest.(check (float 1e-9)) "period 3" 3.0
    (Sta.clock_period net Sta.unit_delay);
  match Retiming.Minperiod.retime_min_period net ~model:Sta.unit_delay with
  | Ok (retimed, period) ->
    Alcotest.(check (float 1e-9)) "period 2" 2.0 period;
    Alcotest.(check bool) "behaviour preserved" true
      (Sim.Equiv.seq_equal_bdd net retimed)
  | Error f -> Alcotest.fail (Retiming.Minperiod.failure_message f)

let test_retime_cannot_improve_single_register_pipeline () =
  (* One register, 2-gate stage on each side of any placement: retiming
     cannot beat the current period; the tool must say so. *)
  let net = N.create ~name:"pipe1" () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let g1 = N.add_logic net ~name:"g1" and_cover [ a; b ] in
  let g2 = N.add_logic net ~name:"g2" or_cover [ g1; b ] in
  let r = N.add_latch net ~name:"r" N.I0 g2 in
  let g3 = N.add_logic net ~name:"g3" inv_cover [ r ] in
  N.set_output net "o" g3;
  match Retiming.Minperiod.retime_min_period net ~model:Sta.unit_delay with
  | Error Retiming.Minperiod.Infeasible -> ()
  | Ok (_, p) -> Alcotest.failf "unexpected improvement to %.1f" p
  | Error f -> Alcotest.fail (Retiming.Minperiod.failure_message f)

let seq_profile =
  { Circuits.Generators.default_profile with ngates = 14; nlatch = 4; npi = 3 }

let prop_retime_preserves_behaviour =
  QCheck.Test.make ~count:40 ~name:"min-period retiming preserves behaviour"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed seq_profile in
      N.sweep net;
      match Retiming.Minperiod.retime_min_period net ~model:Sta.unit_delay with
      | Ok (retimed, period) ->
        N.check retimed;
        Sta.clock_period retimed Sta.unit_delay <= period +. 1e-9
        && Sim.Equiv.seq_equal_bdd net retimed
      | Error _ -> true)

let prop_retime_improves_period =
  QCheck.Test.make ~count:40 ~name:"successful retiming reduces the period"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed seq_profile in
      N.sweep net;
      let before = Sta.clock_period net Sta.unit_delay in
      match Retiming.Minperiod.retime_min_period net ~model:Sta.unit_delay with
      | Ok (retimed, _) ->
        Sta.clock_period retimed Sta.unit_delay < before -. 1e-9
      | Error _ -> true)

let prop_random_moves_preserve_behaviour =
  QCheck.Test.make ~count:40 ~name:"random atomic moves preserve behaviour"
    QCheck.(pair (int_range 0 5_000) (int_range 0 1_000))
    (fun (seed, move_seed) ->
      let net = Circuits.Generators.random_sequential ~seed seq_profile in
      N.sweep net;
      let before = N.copy net in
      let rng = Random.State.make [| move_seed |] in
      for _ = 1 to 6 do
        let nodes = N.logic_nodes net in
        if nodes <> [] then begin
          let v = List.nth nodes (Random.State.int rng (List.length nodes)) in
          match Random.State.int rng 3 with
          | 0 ->
            if M.is_forward_retimable net v then
              ignore (M.forward_across_node net v)
          | 1 ->
            if M.is_backward_retimable net v then
              ignore (M.backward_across_node net v)
          | _ ->
            (match N.latches net with
             | [] -> ()
             | l :: _ -> ignore (M.split_stem net l))
        end
      done;
      N.check net;
      Sim.Equiv.seq_equal_bdd before net)

(* --- min-area ---------------------------------------------------------------- *)

let test_minarea_merges_copies () =
  let net = N.create () in
  let a = N.add_input net "a" in
  let r1 = N.add_latch net ~name:"r1" N.I1 a in
  let r2 = N.add_latch net ~name:"r2" N.I1 a in
  let g = N.add_logic net ~name:"g" and_cover [ r1; r2 ] in
  N.set_output net "o" g;
  let eliminated =
    Retiming.Minarea.minimize_registers net ~model:Sta.unit_delay
      ~max_period:10.0
  in
  Alcotest.(check bool) "at least one register saved" true (eliminated >= 1);
  N.check net

let prop_minarea_sound =
  QCheck.Test.make ~count:30
    ~name:"min-area retiming preserves behaviour and period"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed seq_profile in
      N.sweep net;
      let before = N.copy net in
      let period = Sta.clock_period net Sta.unit_delay in
      let latches_before = N.num_latches net in
      ignore
        (Retiming.Minarea.minimize_registers net ~model:Sta.unit_delay
           ~max_period:period);
      N.check net;
      N.num_latches net <= latches_before
      && Sta.clock_period net Sta.unit_delay <= period +. 1e-9
      && Sim.Equiv.seq_equal_bdd before net)

(* --- reference algorithms for the min-period engine --------------------------- *)

(* Leiserson-Saxe's iterative FEAS algorithm, an independent feasibility
   check (relax-and-increment over the retimed graph, no W/D constraints).
   FEAS(c): starting from r = 0, repeatedly compute the combinational
   arrival times of the retimed graph (edges with w_r = 0 are wires) and
   increment r(v) for every vertex whose arrival exceeds c; c is feasible
   iff no violation remains.  It finds the least solution >= 0 where the
   engine finds the greatest <= 0, so only the verdicts are comparable. *)
let feas_feasible (g : MI.graph) target =
  let r = Array.make g.MI.nv 0 in
  let arrivals () =
    (* longest-path over the 0-weight subgraph; None on a 0-weight cycle *)
    let adj = Array.make g.MI.nv [] in
    let indeg = Array.make g.MI.nv 0 in
    List.iter
      (fun (u, v, w) ->
        (* exactly-zero retimed weight = a wire; transiently negative
           weights are neither wires nor registers and are ignored here.
           The host never propagates arrivals (a PO-to-PI hop through the
           environment is not a combinational path): its outgoing wires
           contribute nothing beyond each gate's own delay, which the
           initialization covers. *)
        let wr = w + r.(v) - r.(u) in
        if wr = 0 && u <> v && u <> 0 then begin
          adj.(u) <- v :: adj.(u);
          indeg.(v) <- indeg.(v) + 1
        end)
      g.MI.edges;
    let arrival = Array.copy g.MI.delay in
    let queue = Queue.create () in
    for v = 0 to g.MI.nv - 1 do
      if indeg.(v) = 0 then Queue.push v queue
    done;
    let processed = ref 0 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      incr processed;
      List.iter
        (fun v ->
          if arrival.(u) +. g.MI.delay.(v) > arrival.(v) then
            arrival.(v) <- arrival.(u) +. g.MI.delay.(v);
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then Queue.push v queue)
        adj.(u)
    done;
    if !processed < g.MI.nv then None else Some arrival
  in
  (* The host is incrementable like any vertex: retimings only depend on
     label differences, so a host increment is a global decrement in
     disguise.  With the host participating, convergence can need more than
     the classical |V| - 1 rounds (each host increment re-normalizes the
     whole labeling); a quadratic bound is still cheap at these sizes. *)
  let rec iterate k =
    if k > (g.MI.nv * g.MI.nv) + 8 then false
    else
      match arrivals () with
      | None -> false (* a combinational (0-weight) cycle: infeasible here *)
      | Some arrival ->
        let violated = Array.make g.MI.nv false in
        for v = 0 to g.MI.nv - 1 do
          if arrival.(v) > target +. 1e-9 then violated.(v) <- true
        done;
        (* a negative retimed weight is a legality violation of the head
           vertex: incrementing it is the Bellman-Ford relaxation of the
           edge constraint r(v) >= r(u) - w *)
        List.iter
          (fun (u, v, w) -> if w + r.(v) - r.(u) < 0 then violated.(v) <- true)
          g.MI.edges;
        let any = ref false in
        Array.iteri
          (fun v bad ->
            if bad then begin
              r.(v) <- r.(v) + 1;
              any := true
            end)
          violated;
        if not !any then
          List.for_all (fun (u, v, w) -> w + r.(v) - r.(u) >= 0) g.MI.edges
        else iterate (k + 1)
  in
  iterate 0

(* The minimum period by linear scan over the engine's candidate periods,
   each decided by FEAS. *)
let min_feasible_period_feas net model =
  let g = MI.build_graph net model in
  match MI.candidate_periods (MI.wd_matrices g) with
  | [] -> Ok 0.0
  | candidates -> (
    match List.find_opt (feas_feasible g) candidates with
    | Some c -> Ok c
    | None -> Error Retiming.Minperiod.Infeasible)

let prop_feas_agrees_with_wd =
  QCheck.Test.make ~count:60
    ~name:"FEAS and W/D min-period algorithms agree"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed seq_profile in
      N.sweep net;
      let a = Retiming.Minperiod.min_feasible_period net Sta.unit_delay in
      let b = min_feasible_period_feas net Sta.unit_delay in
      match a, b with
      | Ok x, Ok y -> abs_float (x -. y) < 1e-9
      | Error Retiming.Minperiod.Infeasible, Error Retiming.Minperiod.Infeasible
        ->
        true
      | _, _ -> false)

(* The list-based Bellman-Ford the engine's solver replaced: relax every
   constraint until nothing changes, giving up after n + 2 passes. *)
let solve_list n constraints =
  let r = Array.make n 0 in
  let changed = ref true in
  let iterations = ref 0 in
  while !changed && !iterations <= n + 2 do
    changed := false;
    incr iterations;
    List.iter
      (fun (u, v, c) ->
        if r.(u) > r.(v) + c then begin
          r.(u) <- r.(v) + c;
          changed := true
        end)
      constraints
  done;
  if !changed then None
  else begin
    let shift = r.(0) in
    Some (Array.map (fun x -> x - shift) r)
  end

(* A random difference-constraint system on 2..12 vertices.  Half are
   planted feasible (every bound at least the difference of a hidden
   potential, some tight); the rest draw bounds with a negative bias, so
   negative cycles are common. *)
let random_system rng =
  let n = 2 + Random.State.int rng 11 in
  let m = Random.State.int rng (3 * n) in
  let planted = Random.State.bool rng in
  let p = Array.init n (fun _ -> Random.State.int rng 7 - 3) in
  let constraint_ () =
    let u = Random.State.int rng n and v = Random.State.int rng n in
    let c =
      if planted then p.(u) - p.(v) + Random.State.int rng 3
      else Random.State.int rng 7 - 3
    in
    (u, v, c)
  in
  (n, List.init m (fun _ -> constraint_ ()))

let test_solver_matches_reference () =
  let rng = Random.State.make [| 2024 |] in
  let feasible = ref 0 and infeasible = ref 0 in
  for _ = 1 to 2000 do
    let n, constraints = random_system rng in
    let expected = solve_list n constraints in
    let got = MI.solve n (fun f -> List.iter (fun (u, v, c) -> f u v c) constraints) in
    if got <> expected then
      Alcotest.failf "solver differs from the reference on %d vertices: %s" n
        (String.concat "; "
           (List.map (fun (u, v, c) -> Printf.sprintf "r%d - r%d <= %d" u v c)
              constraints));
    if expected = None then incr infeasible else incr feasible
  done;
  Alcotest.(check bool) "feasible systems exercised" true (!feasible >= 500);
  Alcotest.(check bool) "negative cycles exercised" true (!infeasible >= 200)

let test_candidates_collapse_near_equal () =
  (* D values that differ only by float rounding (sums taken in different
     orders) are one candidate, represented by the lowest *)
  let w = [| [| 0; 1 |]; [| 1; 0 |] |] in
  let d = [| [| 13.1; 13.1 +. 1e-12 |]; [| neg_infinity; 2.0 |] |] in
  Alcotest.(check (list (float 0.0))) "one per cluster" [ 2.0; 13.1 ]
    (MI.candidate_periods (w, d))

(* --- effort caps ------------------------------------------------------------- *)

let big_net ngates =
  Circuits.Generators.random_sequential ~seed:7
    { seq_profile with ngates; nlatch = 8 }

(* Run [f] with metrics on; return its result and a reader of the counter
   deltas it caused. *)
let with_counters f =
  Obs.Metrics.enable ();
  let before = Obs.Metrics.snapshot () in
  let result = Fun.protect ~finally:Obs.Metrics.disable f in
  let delta = Obs.Metrics.delta before in
  let count name =
    match List.assoc_opt name delta with
    | Some (Obs.Metrics.Counter n) -> n
    | Some _ | None -> 0
  in
  (result, count)

let test_min_period_too_large () =
  let net = big_net 1300 in
  let logic = List.length (N.logic_nodes net) in
  Alcotest.(check bool) "above the 1200-vertex cap" true (logic + 1 > 1200);
  let result, count =
    with_counters (fun () ->
        Retiming.Minperiod.retime_min_period net ~model:Sta.unit_delay)
  in
  (match result with
   | Error (Retiming.Minperiod.Too_large n) ->
     Alcotest.(check int) "vertex count" (logic + 1) n
   | Ok _ -> Alcotest.fail "expected Too_large"
   | Error f -> Alcotest.fail (Retiming.Minperiod.failure_message f));
  Alcotest.(check int) "failure counted" 1
    (count "retiming.min_period.failed.too_large");
  Alcotest.(check int) "W/D never built" 0 (count "retiming.wd_builds")

let test_min_register_too_large () =
  let net = big_net 450 in
  let logic = List.length (N.logic_nodes net) in
  Alcotest.(check bool) "above the 400-vertex cap" true (logic + 1 > 400);
  let result, count =
    with_counters (fun () ->
        Retiming.Minregister.min_registers ~target_period:1.0 net
          ~model:Sta.unit_delay)
  in
  (match result with
   | Error (Retiming.Minperiod.Too_large n) ->
     Alcotest.(check int) "vertex count" (logic + 1) n
   | Ok _ -> Alcotest.fail "expected Too_large"
   | Error f -> Alcotest.fail (Retiming.Minperiod.failure_message f));
  Alcotest.(check int) "W/D never built" 0 (count "retiming.wd_builds")

(* --- exact min-register retiming ---------------------------------------------- *)

let test_minregister_fanout_merge () =
  (* a -> g -> {L1 -> o1, L2 -> o2}: two registers on the two fanout edges
     of g can become one register before g (backward move), halving the
     count. *)
  let net = N.create () in
  let a = N.add_input net "a" in
  let g = N.add_logic net ~name:"g" inv_cover [ a ] in
  let l1 = N.add_latch net ~name:"l1" N.I1 g in
  let l2 = N.add_latch net ~name:"l2" N.I1 g in
  N.set_output net "o1" l1;
  N.set_output net "o2" l2;
  match Retiming.Minregister.min_registers net ~model:Sta.unit_delay with
  | Ok (retimed, count) ->
    Alcotest.(check int) "one register" 1 count;
    N.check retimed;
    Alcotest.(check bool) "behaviour preserved" true
      (Sim.Equiv.seq_equal_bdd net retimed)
  | Error f -> Alcotest.fail (Retiming.Minperiod.failure_message f)

let test_minregister_respects_period () =
  (* Same circuit: merging the registers backward puts both gate delays on
     one register-to-output path; with a period bound of 1 the merge is
     forbidden and both registers stay. *)
  let net = N.create () in
  let a = N.add_input net "a" in
  let g = N.add_logic net ~name:"g" inv_cover [ a ] in
  let g2 = N.add_logic net ~name:"g2" inv_cover [ g ] in
  let l1 = N.add_latch net ~name:"l1" N.I1 g2 in
  let l2 = N.add_latch net ~name:"l2" N.I1 g2 in
  let c1 = N.add_logic net ~name:"c1" inv_cover [ l1 ] in
  let c2 = N.add_logic net ~name:"c2" inv_cover [ l2 ] in
  N.set_output net "o1" c1;
  N.set_output net "o2" c2;
  (* unconstrained: can pull the two registers backward across g2 (one
     register) *)
  (match Retiming.Minregister.min_registers net ~model:Sta.unit_delay with
   | Ok (retimed, count) ->
     Alcotest.(check bool) "saves a register" true (count <= 1);
     Alcotest.(check bool) "equivalent" true
       (Sim.Equiv.seq_equal_bdd net retimed)
   | Error f -> Alcotest.fail (Retiming.Minperiod.failure_message f));
  (* with the period capped at the current value, the result must still
     meet it *)
  let period = Sta.clock_period net Sta.unit_delay in
  match
    Retiming.Minregister.min_registers ~target_period:period net
      ~model:Sta.unit_delay
  with
  | Ok (retimed, _) ->
    Alcotest.(check bool) "period respected" true
      (Sta.clock_period retimed Sta.unit_delay <= period +. 1e-9)
  | Error f -> Alcotest.fail (Retiming.Minperiod.failure_message f)

let test_minregister_infeasible_period () =
  let net = two_register_loop () in
  match
    Retiming.Minregister.min_registers ~target_period:0.5 net
      ~model:Sta.unit_delay
  with
  | Error Retiming.Minperiod.Infeasible -> ()
  | Ok _ -> Alcotest.fail "period 0.5 is infeasible"
  | Error f -> Alcotest.fail (Retiming.Minperiod.failure_message f)

let prop_minregister_sound =
  QCheck.Test.make ~count:30
    ~name:"exact min-register retiming preserves behaviour"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed seq_profile in
      N.sweep net;
      match Retiming.Minregister.min_registers net ~model:Sta.unit_delay with
      | Ok (retimed, _) ->
        N.check retimed;
        Sim.Equiv.seq_equal_bdd net retimed
      | Error _ -> true)

let prop_minregister_never_grows =
  QCheck.Test.make ~count:30
    ~name:"exact min-register retiming never grows the register count"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed seq_profile in
      N.sweep net;
      let before =
        let merged = N.copy net in
        ignore (Retiming.Minarea.merge_all_siblings merged);
        N.num_latches merged
      in
      match Retiming.Minregister.min_registers net ~model:Sta.unit_delay with
      | Ok (_, count) -> count <= before
      | Error _ -> true)

let prop_minregister_period_bound_holds =
  QCheck.Test.make ~count:30
    ~name:"min-register with period bound meets the bound"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed seq_profile in
      N.sweep net;
      let period = Sta.clock_period net Sta.unit_delay in
      match
        Retiming.Minregister.min_registers ~target_period:period net
          ~model:Sta.unit_delay
      with
      | Ok (retimed, _) ->
        Sta.clock_period retimed Sta.unit_delay <= period +. 1e-9
        && Sim.Equiv.seq_equal_bdd net retimed
      | Error _ -> true)

let () =
  Alcotest.run "retiming"
    [ ( "moves",
        [ Alcotest.test_case "forward init and(1,1)" `Quick
            test_forward_move_init;
          Alcotest.test_case "forward init and(1,0)" `Quick
            test_forward_move_init_and0;
          Alcotest.test_case "forward init with x" `Quick
            test_forward_move_x_init;
          Alcotest.test_case "forward needs all latches" `Quick
            test_forward_requires_all_latches;
          Alcotest.test_case "forward self loop" `Quick test_forward_self_loop;
          Alcotest.test_case "backward with preimage" `Quick test_backward_move;
          Alcotest.test_case "backward without preimage" `Quick
            test_backward_move_no_preimage;
          Alcotest.test_case "backward uniform inits" `Quick
            test_backward_needs_uniform_inits;
          Alcotest.test_case "split and merge stem" `Quick test_split_stem;
          Alcotest.test_case "merge rejects mixed inits" `Quick
            test_merge_rejects_mixed_inits ] );
      ( "minperiod",
        [ Alcotest.test_case "two-register loop" `Quick test_min_period_loop;
          Alcotest.test_case "infeasible target" `Quick
            test_retime_infeasible_target;
          Alcotest.test_case "pipeline" `Quick test_retime_pipeline;
          Alcotest.test_case "single-register pipeline" `Quick
            test_retime_cannot_improve_single_register_pipeline;
          Alcotest.test_case "solver matches list Bellman-Ford" `Quick
            test_solver_matches_reference;
          Alcotest.test_case "near-equal candidates collapse" `Quick
            test_candidates_collapse_near_equal;
          Alcotest.test_case "too large" `Quick test_min_period_too_large ] );
      ( "minarea",
        [ Alcotest.test_case "merges equivalent copies" `Quick
            test_minarea_merges_copies ] );
      ( "minregister",
        [ Alcotest.test_case "fanout merge" `Quick test_minregister_fanout_merge;
          Alcotest.test_case "respects period" `Quick
            test_minregister_respects_period;
          Alcotest.test_case "infeasible period" `Quick
            test_minregister_infeasible_period;
          Alcotest.test_case "too large" `Quick test_min_register_too_large ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_retime_preserves_behaviour; prop_retime_improves_period;
            prop_random_moves_preserve_behaviour; prop_minarea_sound;
            prop_minregister_sound; prop_minregister_never_grows;
            prop_minregister_period_bound_holds; prop_feas_agrees_with_wd ] ) ]
