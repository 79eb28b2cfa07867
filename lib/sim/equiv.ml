module N = Netlist.Network

exception Too_large = Symbolic.Too_large

(* --- shared helpers -------------------------------------------------------- *)

let leaf_names net =
  let pis = List.map (fun n -> n.N.name) (N.inputs net) in
  let states = List.map (fun l -> l.N.name) (N.latches net) in
  List.sort_uniq compare (pis @ states)

let endpoint_names net =
  let pos = List.map fst (N.outputs net) in
  let nexts = List.map (fun l -> "next:" ^ l.N.name) (N.latches net) in
  List.sort_uniq compare (pos @ nexts)

(* Evaluate all endpoints of a network under an assignment of leaves given by
   name. *)
let eval_endpoints net assign =
  let leaf_value id =
    let n = N.node net id in
    assign n.N.name
  in
  let po =
    List.map
      (fun (name, n) -> (name, N.eval_comb net leaf_value n.N.id))
      (N.outputs net)
  in
  let next =
    List.map
      (fun l ->
        ("next:" ^ l.N.name, N.eval_comb net leaf_value (N.latch_data net l).N.id))
      (N.latches net)
  in
  po @ next

let comb_equal_exhaustive a b =
  let leaves = leaf_names a in
  if leaf_names b <> leaves then false
  else if endpoint_names a <> endpoint_names b then false
  else begin
    let n = List.length leaves in
    if n > 16 then raise (Too_large "comb_equal_exhaustive: > 16 leaves");
    let indexed = List.mapi (fun i name -> (name, i)) leaves in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < 1 lsl n do
      let bits = !i in
      let assign name = bits land (1 lsl List.assoc name indexed) <> 0 in
      let ea = eval_endpoints a assign and eb = eval_endpoints b assign in
      let sort = List.sort compare in
      if sort ea <> sort eb then ok := false;
      incr i
    done;
    !ok
  end

(* --- SAT-based combinational equivalence ----------------------------------- *)

(* Tseitin encoding of an SOP network, one variable per cube.  The returned
   encoder memoises per network: encode every endpoint with one encoder to
   share cones, or take a fresh encoder per endpoint. *)
let node_cnf solver net ~leaf_var =
  let memo = Hashtbl.create 64 in
  let rec go id =
    match Hashtbl.find_opt memo id with
    | Some v -> v
    | None ->
      let n = N.node net id in
      let v =
        match n.N.kind with
        | N.Input | N.Latch _ -> leaf_var n
        | N.Const b ->
          let v = Sat_lite.new_var solver in
          Sat_lite.add_clause solver [ (if b then v + 1 else -(v + 1)) ];
          v
        | N.Logic cover ->
          let fanin_vars = Array.map go n.N.fanins in
          let out = Sat_lite.new_var solver in
          let cube_vars =
            List.map
              (fun cube ->
                let cv = Sat_lite.new_var solver in
                (* cv -> each literal *)
                Logic.Cube.iteri
                  (fun i l ->
                    let fv = fanin_vars.(i) in
                    match l with
                    | Logic.Cube.One ->
                      Sat_lite.add_clause solver [ -(cv + 1); fv + 1 ]
                    | Logic.Cube.Zero ->
                      Sat_lite.add_clause solver [ -(cv + 1); -(fv + 1) ]
                    | Logic.Cube.Both -> ())
                  cube;
                (* literals -> cv *)
                let body = ref [] in
                Logic.Cube.iteri
                  (fun i l ->
                    let fv = fanin_vars.(i) in
                    match l with
                    | Logic.Cube.One -> body := -(fv + 1) :: !body
                    | Logic.Cube.Zero -> body := fv + 1 :: !body
                    | Logic.Cube.Both -> ())
                  cube;
                Sat_lite.add_clause solver ((cv + 1) :: List.rev !body);
                cv)
              cover.Logic.Cover.cubes
          in
          (* out <-> OR of cubes *)
          List.iter
            (fun cv -> Sat_lite.add_clause solver [ -(cv + 1); out + 1 ])
            cube_vars;
          Sat_lite.add_clause solver
            (-(out + 1) :: List.map (fun cv -> cv + 1) cube_vars);
          out
      in
      Hashtbl.add memo id v;
      v
  in
  go

let comb_equal_sat ?(conflict_limit = 500_000) a b =
  let leaves = leaf_names a in
  if leaf_names b <> leaves then false
  else if endpoint_names a <> endpoint_names b then false
  else begin
    let solver = Sat_lite.create () in
    let leaf_sat =
      List.map (fun name -> (name, Sat_lite.new_var solver)) leaves
    in
    let leaf_var n = List.assoc n.N.name leaf_sat in
    let endpoints net =
      List.map (fun (name, n) -> (name, n.N.id)) (N.outputs net)
      @ List.map
          (fun l -> ("next:" ^ l.N.name, (N.latch_data net l).N.id))
          (N.latches net)
    in
    (* miter: OR of XORs of matched endpoints must be unsat *)
    let xor_vars =
      List.map
        (fun (name, ida) ->
          let idb = List.assoc name (endpoints b) in
          (* a fresh encoder per endpoint *)
          let va = node_cnf solver a ~leaf_var ida in
          let vb = node_cnf solver b ~leaf_var idb in
          let x = Sat_lite.new_var solver in
          (* x <-> va xor vb *)
          Sat_lite.add_clause solver [ -(x + 1); va + 1; vb + 1 ];
          Sat_lite.add_clause solver [ -(x + 1); -(va + 1); -(vb + 1) ];
          Sat_lite.add_clause solver [ x + 1; -(va + 1); vb + 1 ];
          Sat_lite.add_clause solver [ x + 1; va + 1; -(vb + 1) ];
          x)
        (endpoints a)
    in
    Sat_lite.add_clause solver (List.map (fun x -> x + 1) xor_vars);
    match Sat_lite.solve ~conflict_limit solver with
    | Sat_lite.Unsat -> true
    | Sat_lite.Sat _ -> false
    | Sat_lite.Unknown -> raise (Too_large "comb_equal_sat: budget exhausted")
  end

(* --- BDD-based sequential equivalence --------------------------------------- *)

let seq_equal_bdd ?(max_latches = 28) ?(delay = 0) a b =
  if Symbolic.interface_mismatch a b <> None then false
  else begin
    if N.num_latches a + N.num_latches b > max_latches then
      raise (Too_large "seq_equal_bdd: too many latches");
    let machine, differ = Symbolic.product a b in
    match Symbolic.reach ~bad:differ ~delay machine with
    | Symbolic.Closed _ -> true
    | Symbolic.Hit _ -> false
  end

(* --- random co-simulation --------------------------------------------------- *)

let seq_equal_random ?(vectors = 64) ?(length = 128) ~seed a b =
  let pi_names = List.map (fun n -> n.N.name) (N.inputs a) in
  let rng = Random.State.make [| seed |] in
  let run_ok () =
    let sa = ref (Simulate.binary_initial_state a) in
    let sb = ref (Simulate.binary_initial_state b) in
    let ok = ref true in
    let cycle = ref 0 in
    while !ok && !cycle < length do
      let vector = List.map (fun nm -> (nm, Random.State.bool rng)) pi_names in
      let pi name = List.assoc name vector in
      let sa', oa = Simulate.step a ~pi ~state:!sa in
      let sb', ob = Simulate.step b ~pi ~state:!sb in
      sa := sa';
      sb := sb';
      if List.sort compare oa <> List.sort compare ob then ok := false;
      incr cycle
    done;
    !ok
  in
  let rec loop k = k = 0 || (run_ok () && loop (k - 1)) in
  loop vectors

let seq_equal ?(seed = 0xC0FFEE) a b =
  match seq_equal_bdd a b with
  | result -> result
  | exception Too_large _ -> seq_equal_random ~seed a b
