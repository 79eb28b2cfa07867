(* Simulation and equivalence-checking tests. *)

module N = Netlist.Network
module S = Sim.Simulate

let xor_cover = Logic.Cover.of_strings 2 [ "10"; "01" ]
let and_cover = Logic.Cover.of_strings 2 [ "11" ]

(* Toggle FF: r' = r xor en, out = r *)
let toggle () =
  let net = N.create ~name:"toggle" () in
  let en = N.add_input net "en" in
  let r = N.add_latch net ~name:"r" N.I0 en in
  let next = N.add_logic net ~name:"next" xor_cover [ en; r ] in
  N.replace_fanin net r ~old_fanin:en ~new_fanin:next;
  N.set_output net "out" r;
  net

(* 2-bit binary counter with synchronous reset to 00.
   b0' = rst' * (b0 xor 1) = rst' * b0'; b1' = rst' * (b1 xor b0). *)
let counter2 () =
  let net = N.create ~name:"counter2" () in
  let rst = N.add_input net "rst" in
  let b0 = N.add_latch net ~name:"b0" N.Ix rst in
  let b1 = N.add_latch net ~name:"b1" N.Ix rst in
  (* next b0 = not rst and not b0 *)
  let n0 =
    N.add_logic net ~name:"n0" (Logic.Cover.of_strings 2 [ "00" ]) [ rst; b0 ]
  in
  (* next b1 = not rst and (b1 xor b0) *)
  let x = N.add_logic net ~name:"x" xor_cover [ b1; b0 ] in
  let n1 =
    N.add_logic net ~name:"n1" (Logic.Cover.of_strings 2 [ "01" ]) [ rst; x ]
  in
  N.replace_fanin net b0 ~old_fanin:rst ~new_fanin:n0;
  N.replace_fanin net b1 ~old_fanin:rst ~new_fanin:n1;
  N.set_output net "c0" b0;
  N.set_output net "c1" b1;
  net

let test_step_sequence () =
  let net = toggle () in
  let state = S.binary_initial_state net in
  let always_on _ = true in
  let s1, o1 = S.step net ~pi:always_on ~state in
  Alcotest.(check bool) "out cycle 1 = init 0" false (List.assoc "out" o1);
  let s2, o2 = S.step net ~pi:always_on ~state:s1 in
  Alcotest.(check bool) "out cycle 2 = 1" true (List.assoc "out" o2);
  let _, o3 = S.step net ~pi:always_on ~state:s2 in
  Alcotest.(check bool) "out cycle 3 = 0" false (List.assoc "out" o3)

let test_run () =
  let net = toggle () in
  let vectors = List.init 4 (fun _ _name -> true) in
  let _, outs = S.run net (S.binary_initial_state net) vectors in
  let bits = List.map (fun o -> List.assoc "out" o) outs in
  Alcotest.(check (list bool)) "toggling" [ false; true; false; true ] bits

let test_three_valued_x_propagation () =
  let net = toggle () in
  let all_x = List.map (fun l -> (l.N.id, S.Tx)) (N.latches net) in
  let _, outs = S.step3 net ~pi:(fun _ -> S.T1) ~state:all_x in
  Alcotest.(check bool) "unknown output" true
    (S.tri_equal (List.assoc "out" outs) S.Tx)

let test_three_valued_controlling () =
  (* AND with a controlling 0 input must give 0 even with X. *)
  let net = N.create () in
  let a = N.add_input net "a" in
  let r = N.add_latch net ~name:"r" N.Ix a in
  let g = N.add_logic net ~name:"g" and_cover [ a; r ] in
  N.set_output net "o" g;
  let state = [ (r.N.id, S.Tx) ] in
  let _, outs = S.step3 net ~pi:(fun _ -> S.T0) ~state in
  Alcotest.(check bool) "0 dominates X" true
    (S.tri_equal (List.assoc "o" outs) S.T0)

let test_synchronizing_sequence () =
  let net = counter2 () in
  match S.synchronizing_sequence ~seed:42 net with
  | None -> Alcotest.fail "counter with reset must be synchronizable"
  | Some seq ->
    (* replaying the sequence from all-X must give a binary state *)
    let all_x = List.map (fun l -> (l.N.id, S.Tx)) (N.latches net) in
    let final =
      List.fold_left
        (fun st pi ->
          let tri_pi name = S.tri_of_bool (pi name) in
          fst (S.step3 net ~pi:tri_pi ~state:st))
        all_x seq
    in
    Alcotest.(check bool) "all binary" true
      (List.for_all (fun (_, v) -> not (S.tri_equal v S.Tx)) final)

let test_no_synchronizing_sequence () =
  (* A free-running toggle FF with no inputs controlling it cannot be
     synchronized structurally. *)
  let net = N.create () in
  let a = N.add_input net "a" in
  let r = N.add_latch net ~name:"r" N.Ix a in
  let inv = N.add_logic net ~name:"inv" (Logic.Cover.of_strings 1 [ "0" ]) [ r ] in
  N.replace_fanin net r ~old_fanin:a ~new_fanin:inv;
  N.set_output net "o" r;
  Alcotest.(check bool) "not synchronizable" true
    (S.synchronizing_sequence ~seed:7 ~attempts:8 ~max_len:16 net = None)

(* --- equivalence ------------------------------------------------------------ *)

let test_seq_equal_bdd_positive () =
  let a = toggle () and b = toggle () in
  Alcotest.(check bool) "identical copies equal" true (Sim.Equiv.seq_equal_bdd a b)

let test_seq_equal_bdd_negative () =
  let a = toggle () in
  let b = toggle () in
  (* flip b's initial state: observable in the first cycle *)
  let r = match N.find_by_name b "r" with Some n -> n | None -> assert false in
  N.set_latch_init b r N.I1;
  Alcotest.(check bool) "different init detected" false
    (Sim.Equiv.seq_equal_bdd a b)

let test_seq_equal_bdd_retimed_style () =
  (* A circuit and a version with a duplicated (equivalent) register must be
     sequentially equivalent: this is exactly the paper's fanout-stem
     transformation. *)
  let a = toggle () in
  let b = N.create ~name:"toggle" () in
  let en = N.add_input b "en" in
  let r1 = N.add_latch b ~name:"r" N.I0 en in
  let r2 = N.add_latch b ~name:"r2" N.I0 en in
  (* next value computed from r1, loaded into both registers *)
  let next = N.add_logic b ~name:"next" xor_cover [ en; r1 ] in
  N.replace_fanin b r1 ~old_fanin:en ~new_fanin:next;
  N.replace_fanin b r2 ~old_fanin:en ~new_fanin:next;
  (* output reads the duplicate *)
  N.set_output b "out" r2;
  Alcotest.(check bool) "register duplication is sound" true
    (Sim.Equiv.seq_equal_bdd a b)

let test_seq_equal_random_positive () =
  let a = toggle () and b = toggle () in
  Alcotest.(check bool) "random cosim equal" true
    (Sim.Equiv.seq_equal_random ~seed:3 a b)

let test_seq_equal_random_negative () =
  let a = toggle () in
  let b = toggle () in
  let next = match N.find_by_name b "next" with Some n -> n | None -> assert false in
  N.set_cover b next (Logic.Cover.of_strings 2 [ "1-" ]);
  Alcotest.(check bool) "behaviour change detected" false
    (Sim.Equiv.seq_equal_random ~seed:3 a b)

let test_delayed_replacement () =
  (* A register with initial value 0 vs the same register with initial value
     1: outputs differ in the first cycle only, so the machines are not
     equivalent but are 1-delayed equivalent (Singhal et al.'s delayed
     replacement, paper Section II). *)
  let build init =
    let net = N.create ~name:"d" () in
    let a = N.add_input net "a" in
    let r = N.add_latch net ~name:"r" init a in
    N.set_output net "o" r;
    net
  in
  let z = build N.I0 and o = build N.I1 in
  Alcotest.(check bool) "not equivalent" false (Sim.Equiv.seq_equal_bdd z o);
  Alcotest.(check bool) "1-delayed equivalent" true
    (Sim.Equiv.seq_equal_bdd ~delay:1 z o);
  Alcotest.(check bool) "0-delay is plain equivalence" false
    (Sim.Equiv.seq_equal_bdd ~delay:0 z o)

let test_delayed_replacement_stem_with_mixed_inits () =
  (* Splitting a fanout stem while giving the copies different initial
     values is NOT behaviour-preserving, but it is delayed-replacement-safe
     after one cycle (both copies load the shared data input).  This is the
     paper's Fig. 3 discussion. *)
  let original = N.create ~name:"m" () in
  let a = N.add_input original "a" in
  let r = N.add_latch original ~name:"r" N.I0 a in
  let g1 = N.add_logic original ~name:"g1" (Logic.Cover.of_strings 1 [ "0" ]) [ r ] in
  let g2 = N.add_logic original ~name:"g2" (Logic.Cover.of_strings 1 [ "1" ]) [ r ] in
  N.set_output original "o1" g1;
  N.set_output original "o2" g2;
  let split = N.copy original in
  let r' = N.node split r.N.id in
  (match Retiming.Moves.split_stem split r' with
   | [ _; copy ] -> N.set_latch_init split copy N.I1 (* sabotage the initial value *)
   | _ -> Alcotest.fail "expected two copies");
  Alcotest.(check bool) "not equivalent with mixed inits" false
    (Sim.Equiv.seq_equal_bdd original split);
  Alcotest.(check bool) "but 1-delayed equivalent" true
    (Sim.Equiv.seq_equal_bdd ~delay:1 original split)

let test_comb_equal_sat_agrees () =
  let ok = ref true in
  for seed = 0 to 30 do
    let net =
      Circuits.Generators.random_sequential ~seed
        { Circuits.Generators.default_profile with
          ngates = 10;
          nlatch = 2;
          npi = 3 }
    in
    N.sweep net;
    let mutated = N.copy net in
    (* mutate one random node in half the cases *)
    if seed mod 2 = 0 then begin
      match N.logic_nodes mutated with
      | [] -> ()
      | n :: _ ->
        let c = N.cover_of n in
        let flipped = Logic.Cover.complement c in
        N.set_cover mutated n flipped
    end;
    let expected = Sim.Equiv.comb_equal_exhaustive net mutated in
    let got = Sim.Equiv.comb_equal_sat net mutated in
    if expected <> got then ok := false
  done;
  Alcotest.(check bool) "sat CEC agrees with exhaustive" true !ok

let prop_bdd_equals_random_verdict =
  QCheck.Test.make ~count:20 ~name:"bdd and random checks agree on copies"
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let net =
        Circuits.Generators.random_sequential ~seed
          { Circuits.Generators.default_profile with
            ngates = 8;
            nlatch = 3;
            npi = 2 }
      in
      N.sweep net;
      let dup = N.copy net in
      Sim.Equiv.seq_equal_bdd net dup
      && Sim.Equiv.seq_equal_random ~seed ~vectors:8 ~length:32 net dup)

let () =
  Alcotest.run "sim"
    [ ( "simulate",
        [ Alcotest.test_case "step sequence" `Quick test_step_sequence;
          Alcotest.test_case "run" `Quick test_run;
          Alcotest.test_case "x propagation" `Quick
            test_three_valued_x_propagation;
          Alcotest.test_case "controlling value" `Quick
            test_three_valued_controlling;
          Alcotest.test_case "synchronizing sequence" `Quick
            test_synchronizing_sequence;
          Alcotest.test_case "unsynchronizable" `Quick
            test_no_synchronizing_sequence ] );
      ( "equiv",
        [ Alcotest.test_case "bdd positive" `Quick test_seq_equal_bdd_positive;
          Alcotest.test_case "bdd negative" `Quick test_seq_equal_bdd_negative;
          Alcotest.test_case "register duplication" `Quick
            test_seq_equal_bdd_retimed_style;
          Alcotest.test_case "random positive" `Quick
            test_seq_equal_random_positive;
          Alcotest.test_case "random negative" `Quick
            test_seq_equal_random_negative;
          Alcotest.test_case "delayed replacement" `Quick
            test_delayed_replacement;
          Alcotest.test_case "delayed stem split" `Quick
            test_delayed_replacement_stem_with_mixed_inits;
          Alcotest.test_case "sat cec agreement" `Slow
            test_comb_equal_sat_agrees ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest [ prop_bdd_equals_random_verdict ]
      ) ]
