(* Symbolic reachability clients against an explicit-state oracle.

   Every client of the BDD reachability engine — unreachable-state
   enumeration, the product-machine equivalence checks and the DC_ret class
   certificate — is compared with a breadth-first search over concrete
   states that steps the netlists through [Sim.Simulate].  The machines are
   small random FSMs (at most 6 latches and 3 inputs) with [Ix] initial
   values and latches no output observes. *)

module N = Netlist.Network
module S = Sim.Simulate
module E = Eqcheck

(* --- random machines ------------------------------------------------------------ *)

(* A cover whose on-set is the minterms of [table] over [k] variables. *)
let cover_of_table k table =
  List.init (1 lsl k) Fun.id
  |> List.filter (fun m -> table land (1 lsl m) <> 0)
  |> List.map (fun m ->
         String.init k (fun i -> if m land (1 lsl i) <> 0 then '1' else '0'))
  |> Logic.Cover.of_strings k

let random_init rng =
  match Random.State.int rng 3 with 0 -> N.I0 | 1 -> N.I1 | _ -> N.Ix

let random_gate rng net signals =
  let n = Array.length signals in
  let k = min n (1 + Random.State.int rng 3) in
  let rec pick acc =
    if List.length acc = k then acc
    else
      let s = signals.(Random.State.int rng n) in
      pick (if List.memq s acc then acc else s :: acc)
  in
  let fanins = pick [] in
  N.add_logic net (cover_of_table k (Random.State.int rng (1 lsl (1 lsl k))))
    fanins

(* Inputs [i0..], latches [l0..] and outputs [o0..]; latch data and outputs
   are drawn from the whole circuit, so feedback and unobservable latches
   both occur. *)
let random_machine rng ~ni ~no =
  let nl = 1 + Random.State.int rng 6 in
  let net = N.create ~name:"m" () in
  let inputs = Array.init ni (fun i -> N.add_input net (Printf.sprintf "i%d" i)) in
  let latches =
    Array.init nl (fun j ->
        N.add_latch net ~name:(Printf.sprintf "l%d" j) (random_init rng)
          inputs.(0))
  in
  let signals = ref (Array.append inputs latches) in
  for _ = 1 to 2 + Random.State.int rng 6 do
    signals := Array.append !signals [| random_gate rng net !signals |]
  done;
  let signals = !signals in
  Array.iter
    (fun l ->
      let d = signals.(Random.State.int rng (Array.length signals)) in
      if d != l && d != inputs.(0) then
        N.replace_fanin net l ~old_fanin:inputs.(0) ~new_fanin:d)
    latches;
  let drivers = Array.sub signals ni (Array.length signals - ni) in
  for o = 0 to no - 1 do
    N.set_output net (Printf.sprintf "o%d" o)
      drivers.(Random.State.int rng (Array.length drivers))
  done;
  net

(* A second machine over the same interface: an identical copy, a copy with
   one gate or one initial value changed, or an unrelated machine. *)
let partner rng ~ni ~no a =
  let b = N.copy a in
  (match Random.State.int rng 4 with
   | 0 -> ()
   | 1 ->
     let gates = Array.of_list (N.logic_nodes b) in
     let g = gates.(Random.State.int rng (Array.length gates)) in
     let k = Array.length g.N.fanins in
     N.set_cover b g (cover_of_table k (Random.State.int rng (1 lsl (1 lsl k))))
   | 2 ->
     let ls = Array.of_list (N.latches b) in
     N.set_latch_init b ls.(Random.State.int rng (Array.length ls))
       (random_init rng)
   | _ -> ());
  if Random.State.int rng 4 = 3 then random_machine rng ~ni ~no else b

let gen_pair seed =
  let rng = Random.State.make [| seed |] in
  let ni = 1 + Random.State.int rng 3 and no = 1 + Random.State.int rng 2 in
  let a = random_machine rng ~ni ~no in
  (a, partner rng ~ni ~no a)

(* --- explicit-state oracle ------------------------------------------------------- *)

(* A state is the list of latch values in [N.latches] order. *)
let assignments n =
  List.init (1 lsl n) (fun m -> List.init n (fun i -> m land (1 lsl i) <> 0))

let initial_states net =
  List.filter
    (fun st ->
      List.for_all2
        (fun l v ->
          match N.latch_init l with N.I0 -> not v | N.I1 -> v | N.Ix -> true)
        (N.latches net) st)
    (assignments (N.num_latches net))

let input_vectors net =
  let names = List.sort compare (List.map (fun n -> n.N.name) (N.inputs net)) in
  List.map (List.combine names) (assignments (List.length names))

(* One cycle: next state and sorted output values. *)
let step net st vec =
  let latches = N.latches net in
  let state = List.map2 (fun l v -> (l.N.id, v)) latches st in
  let st', outs = S.step net ~pi:(fun n -> List.assoc n vec) ~state in
  (List.map (fun l -> List.assoc l.N.id st') latches, List.sort compare outs)

(* Breadth-first closure of [start] under [succ]; [visit] sees every state
   once and may stop the search by returning [false]. *)
let bfs ~succ ~visit start =
  let seen = Hashtbl.create 256 in
  let queue = Queue.create () in
  let push s =
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      Queue.add s queue
    end
  in
  List.iter push start;
  let ok = ref true in
  while !ok && not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    if visit s then List.iter push (succ s) else ok := false
  done;
  (!ok, Hashtbl.length seen, Hashtbl.mem seen)

let oracle_reachable net =
  let vecs = input_vectors net in
  let succ st = List.map (fun v -> fst (step net st v)) vecs in
  let _, count, mem = bfs ~succ ~visit:(fun _ -> true) (initial_states net) in
  (count, mem)

(* Outputs agree on every pair reachable from the pairs reachable in exactly
   [delay] steps. *)
let oracle_seq_equal ?(delay = 0) a b =
  let vecs = input_vectors a in
  let succ (sa, sb) =
    List.map (fun v -> (fst (step a sa v), fst (step b sb v))) vecs
  in
  let start =
    List.concat_map
      (fun sa -> List.map (fun sb -> (sa, sb)) (initial_states b))
      (initial_states a)
  in
  let rec advance k s =
    if k = 0 then s
    else advance (k - 1) (List.sort_uniq compare (List.concat_map succ s))
  in
  let agree (sa, sb) =
    List.for_all (fun v -> snd (step a sa v) = snd (step b sb v)) vecs
  in
  let ok, _, _ = bfs ~succ ~visit:agree (advance delay start) in
  ok

let index_of l latches =
  let rec go i = function
    | [] -> invalid_arg "index_of"
    | x :: rest -> if x.N.id = l.N.id then i else go (i + 1) rest
  in
  go 0 latches

(* Class members start equal and stay equal in every reachable state. *)
let oracle_classes_hold net pairs =
  let latches = N.latches net in
  let idx = List.map (fun (a, b) -> (index_of a latches, index_of b latches)) pairs in
  let holds st = List.for_all (fun (i, j) -> List.nth st i = List.nth st j) idx in
  let vecs = input_vectors net in
  let succ st = List.map (fun v -> fst (step net st v)) vecs in
  let ok, _, _ =
    bfs ~succ ~visit:holds (List.filter holds (initial_states net))
  in
  ok

(* --- independent counterexample replay ------------------------------------------- *)

let named_state net inits =
  List.filter_map
    (fun (name, v) ->
      match N.find_by_name net name with
      | Some n -> Some (n.N.id, v)
      | None -> None)
    inits

let replay_diverges pre post (c : E.cex) =
  let outs o = List.sort compare o in
  let rec go sa sb = function
    | [] -> false
    | vec :: rest ->
      let pi name = List.assoc name vec in
      let sa', oa = S.step pre ~pi ~state:sa in
      let sb', ob = S.step post ~pi ~state:sb in
      outs oa <> outs ob || go sa' sb' rest
  in
  go (named_state pre c.E.init_pre) (named_state post c.E.init_post) c.E.trace

let replay_splits_class net pairs (c : E.cex) =
  let final =
    List.fold_left
      (fun state vec -> fst (S.step net ~pi:(fun n -> List.assoc n vec) ~state))
      (named_state net c.E.init_pre) c.E.trace
  in
  List.exists
    (fun (a, b) -> List.assoc a.N.id final <> List.assoc b.N.id final)
    pairs

(* --- properties ----------------------------------------------------------------- *)

let seed_arb = QCheck.(int_range 0 1_000_000)

let prop_reach =
  QCheck.Test.make ~count:150 ~name:"unreachable_states matches the oracle"
    seed_arb (fun seed ->
      let net, _ = gen_pair seed in
      let r = Dontcare.Reach.unreachable_states net in
      let count, mem = oracle_reachable net in
      let latches = N.latches net in
      let order =
        List.map (fun l -> index_of l latches) r.Dontcare.Reach.latch_order
      in
      Float.equal r.Dontcare.Reach.num_reachable (float_of_int count)
      && List.for_all
           (fun st ->
             let point = Array.of_list (List.map (List.nth st) order) in
             Logic.Cover.eval r.Dontcare.Reach.reachable point = mem st
             && Logic.Cover.eval r.Dontcare.Reach.unreachable point
                = not (mem st))
           (assignments (List.length latches)))

let prop_seq_equal_bdd =
  QCheck.Test.make ~count:150
    ~name:"seq_equal_bdd matches the oracle at delay 0, 1 and 2" seed_arb
    (fun seed ->
      let a, b = gen_pair seed in
      List.for_all
        (fun delay ->
          Sim.Equiv.seq_equal_bdd ~delay a b = oracle_seq_equal ~delay a b)
        [ 0; 1; 2 ])

let prop_seq_check =
  QCheck.Test.make ~count:150
    ~name:"seq_check proves exactly the equal pairs, refutations replay"
    seed_arb (fun seed ->
      let a, b = gen_pair seed in
      match E.seq_check a b with
      | E.Proved -> oracle_seq_equal a b
      | E.Refuted c ->
        (not (oracle_seq_equal a b)) && c.E.sim_confirmed
        && replay_diverges a b c
      | E.Unknown _ -> false)

(* A random machine with one latch split across its fanout stem (the copies
   form a genuine class) or with two unrelated latches declared a class. *)
let gen_classes seed =
  let rng = Random.State.make [| seed |] in
  let net = random_machine rng ~ni:(1 + Random.State.int rng 3) ~no:1 in
  let latches = Array.of_list (N.latches net) in
  let stems =
    List.filter (fun l -> List.length l.N.fanouts > 1) (Array.to_list latches)
  in
  let pick () = latches.(Random.State.int rng (Array.length latches)) in
  let cls =
    match stems with
    | s :: _ when Random.State.bool rng -> Retiming.Moves.split_stem net s
    | _ ->
      let a = pick () and b = pick () in
      if a == b then [ a ] else [ a; b ]
  in
  (net, cls)

let prop_dcret =
  QCheck.Test.make ~count:150
    ~name:"dcret_check matches the oracle on split and broken classes"
    seed_arb (fun seed ->
      let net, cls = gen_classes seed in
      let pairs =
        match cls with [] -> [] | rep :: rest -> List.map (fun m -> (rep, m)) rest
      in
      let holds = oracle_classes_hold net pairs in
      match E.dcret_check net [ List.map (fun l -> l.N.id) cls ] with
      | E.Proved -> holds
      | E.Refuted c ->
        (not holds) && c.E.sim_confirmed && replay_splits_class net pairs c
      | E.Unknown _ -> false)

(* Stem-split copies share data and initial value, so their class is always
   an invariant. *)
let prop_split_classes_proved =
  QCheck.Test.make ~count:60 ~name:"stem-split classes are proved" seed_arb
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let net = random_machine rng ~ni:2 ~no:2 in
      List.for_all
        (fun l ->
          if List.length l.N.fanouts < 2 then true
          else begin
            let copies = Retiming.Moves.split_stem net l in
            E.dcret_check net [ List.map (fun c -> c.N.id) copies ] = E.Proved
          end)
        (N.latches net))

(* --- failure paths ------------------------------------------------------------------ *)

(* [n] latches in a chain from input [a] to output [o]; [invert] negates the
   output. *)
let shift_register ?(invert = false) n =
  let net = N.create ~name:"shift" () in
  let a = N.add_input net "a" in
  let rec chain k prev =
    if k = n then prev
    else chain (k + 1) (N.add_latch net ~name:(Printf.sprintf "r%d" k) N.I0 prev)
  in
  let last = chain 0 a in
  let cover = Logic.Cover.of_strings 1 [ (if invert then "0" else "1") ] in
  N.set_output net "o" (N.add_logic net ~name:"out" cover [ last ]);
  net

let test_reach_budget () =
  let net = shift_register 4 in
  (match Dontcare.Reach.unreachable_states ~max_bdd_nodes:3 net with
   | exception Sim.Symbolic.Too_large _ -> ()
   | _ -> Alcotest.fail "expected Too_large from the node budget");
  (* one exception for every client *)
  (match Dontcare.Reach.unreachable_states ~max_latches:2 net with
   | exception Sim.Equiv.Too_large _ -> ()
   | _ -> Alcotest.fail "expected Too_large from the latch cap");
  let rev = N.revision net in
  Alcotest.(check int) "nothing simplified past the cap" 0
    (Dontcare.Reach.simplify_with_unreachable ~max_latches:2 net);
  Alcotest.(check int) "network untouched" rev (N.revision net);
  let comb = N.create () in
  N.set_output comb "o" (N.add_input comb "a");
  Alcotest.(check int) "no state space" 0
    (Dontcare.Reach.simplify_with_unreachable comb)

let test_seq_equal_falls_back () =
  (* 2 x 15 latches exceed the 28-latch product cap *)
  let a = shift_register 15 in
  let good = N.copy a and bad = shift_register ~invert:true 15 in
  (match Sim.Equiv.seq_equal_bdd a good with
   | exception Sim.Symbolic.Too_large _ -> ()
   | _ -> Alcotest.fail "expected Too_large past the latch cap");
  let seed = 0xC0FFEE in
  Alcotest.(check bool) "equal copy simulated equal" true
    (Sim.Equiv.seq_equal a good);
  Alcotest.(check bool) "inverted copy simulated different" false
    (Sim.Equiv.seq_equal a bad);
  Alcotest.(check bool) "verdicts are the co-simulation's"
    (Sim.Equiv.seq_equal_random ~seed a bad)
    (Sim.Equiv.seq_equal ~seed a bad)

let test_eqcheck_budget () =
  Obs.Metrics.enable ();
  let cap = Obs.Metrics.counter "eqcheck.cap.bdd_nodes" in
  let tiny = { E.default_options with E.max_bdd_nodes = 2 } in
  let unknown_and_counted what v =
    let before = Obs.Metrics.counter_value cap in
    (match Lazy.force v with
     | E.Unknown _ -> ()
     | E.Proved | E.Refuted _ -> Alcotest.fail (what ^ ": expected Unknown"));
    Alcotest.(check int) (what ^ " bumps the cap counter") (before + 1)
      (Obs.Metrics.counter_value cap)
  in
  let a = shift_register 3 in
  unknown_and_counted "seq_check"
    (lazy (E.seq_check ~options:tiny a (shift_register ~invert:true 3)));
  let net = shift_register 3 in
  let r1 = List.nth (N.latches net) 1 and r2 = List.nth (N.latches net) 2 in
  unknown_and_counted "dcret_check"
    (lazy (E.dcret_check ~options:tiny net [ [ r1.N.id; r2.N.id ] ]));
  (* with the default budget both verdicts are settled *)
  Alcotest.(check string) "seq refuted" "refuted"
    (E.verdict_name (E.seq_check a (shift_register ~invert:true 3)));
  Alcotest.(check string) "class refuted" "refuted"
    (E.verdict_name (E.dcret_check net [ [ r1.N.id; r2.N.id ] ]))

let () =
  Alcotest.run "symbolic"
    [ ( "oracle",
        List.map QCheck_alcotest.to_alcotest
          [ prop_reach;
            prop_seq_equal_bdd;
            prop_seq_check;
            prop_dcret;
            prop_split_classes_proved ] );
      ( "budgets",
        [ Alcotest.test_case "reach too large" `Quick test_reach_budget;
          Alcotest.test_case "seq_equal falls back" `Quick
            test_seq_equal_falls_back;
          Alcotest.test_case "eqcheck unknown" `Quick test_eqcheck_budget ] ) ]
