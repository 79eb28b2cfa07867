module N = Netlist.Network

exception Too_large of string

(* the one budget test: [scope] has consed more than [cap] distinct nodes *)
let charge scope cap =
  if Bdd.node_count scope > cap then
    raise (Too_large "bdd node budget exhausted")

(* --- node values ----------------------------------------------------------------- *)

let fanin_cone net roots =
  let need = Hashtbl.create 256 in
  let rec mark id =
    if not (Hashtbl.mem need id) then begin
      Hashtbl.replace need id ();
      let n = N.node net id in
      match n.N.kind with
      | N.Logic _ -> Array.iter mark n.N.fanins
      | N.Input | N.Const _ | N.Latch _ -> ()
    end
  in
  List.iter mark roots;
  need

let build ?budget ?roots man net ~leaf =
  let wanted =
    match roots with
    | None -> fun _ -> true
    | Some roots -> Hashtbl.mem (fanin_cone net roots)
  in
  let check =
    match budget with
    | None -> ignore
    | Some (scope, cap) -> fun () -> charge scope cap
  in
  let values = Hashtbl.create 256 in
  let add n v = if wanted n.N.id then Hashtbl.add values n.N.id (v n) in
  List.iter (fun n -> add n leaf) (N.inputs net);
  List.iter (fun n -> add n leaf) (N.latches net);
  List.iter
    (fun n ->
      match n.N.kind with
      | N.Const b -> add n (fun _ -> if b then Bdd.btrue else Bdd.bfalse)
      | N.Input | N.Latch _ | N.Logic _ -> ())
    (N.all_nodes net);
  List.iter
    (fun n ->
      if wanted n.N.id then begin
        let fanins = Array.map (Hashtbl.find values) n.N.fanins in
        Hashtbl.add values n.N.id (Bdd.of_cover ~fanins man (N.cover_of n));
        check ()
      end)
    (N.topo_combinational net);
  values

let assignment man f ~nvars =
  let a = Array.make nvars false in
  List.iter (fun (v, b) -> if v < nvars then a.(v) <- b) (Bdd.any_sat man f);
  a

(* --- the frame ------------------------------------------------------------------- *)

type part = {
  ps : (int, int) Hashtbl.t;  (** modelled latch id -> present-state variable *)
  values : (int, Bdd.t) Hashtbl.t;
}

type t = {
  man : Bdd.man;
  max_nodes : int;
  pis : string array;  (** variable [i] is primary input [pis.(i)] *)
  parts : part array;
  state_vars : int list;  (** present-state variables, ascending *)
  quantified : int list;  (** what an image step eliminates: inputs and state *)
  transition : Bdd.t;
  init : Bdd.t;
}

let check t = charge t.man t.max_nodes

let create ?(max_nodes = max_int) parts =
  let man = Bdd.create () in
  let pis =
    List.concat_map (fun (net, _) -> List.map (fun n -> n.N.name) (N.inputs net)) parts
    |> List.sort_uniq compare |> Array.of_list
  in
  let npi = Array.length pis in
  let pi_var = Hashtbl.create 16 in
  Array.iteri (fun i name -> Hashtbl.replace pi_var name i) pis;
  let next_var = ref npi in
  let transition = ref Bdd.btrue and init = ref Bdd.btrue in
  let frame (net, latches) =
    let ps = Hashtbl.create 16 in
    List.iter
      (fun l ->
        Hashtbl.replace ps l.N.id !next_var;
        next_var := !next_var + 2)
      latches;
    let leaf n =
      Bdd.var man
        (if N.is_input n then Hashtbl.find pi_var n.N.name
         else Hashtbl.find ps n.N.id)
    in
    let roots =
      List.map (fun (_, n) -> n.N.id) (N.outputs net)
      @ List.map (fun l -> (N.latch_data net l).N.id) latches
    in
    let values = build ~budget:(man, max_nodes) ~roots man net ~leaf in
    List.iter
      (fun l ->
        let v = Hashtbl.find ps l.N.id in
        let f = Hashtbl.find values (N.latch_data net l).N.id in
        transition :=
          Bdd.band man !transition (Bdd.bxnor man (Bdd.var man (v + 1)) f);
        charge man max_nodes;
        match N.latch_init l with
        | N.I0 -> init := Bdd.band man !init (Bdd.nvar man v)
        | N.I1 -> init := Bdd.band man !init (Bdd.var man v)
        | N.Ix -> ())
      latches;
    { ps; values }
  in
  let parts = Array.of_list (List.map frame parts) in
  let state_vars = List.init ((!next_var - npi) / 2) (fun j -> npi + (2 * j)) in
  { man;
    max_nodes;
    pis;
    parts;
    state_vars;
    quantified = List.init npi Fun.id @ state_vars;
    transition = !transition;
    init = !init }

let man t = t.man
let num_latches t = List.length t.state_vars
let value t ~part id = Hashtbl.find t.parts.(part).values id
let state_var t ~part l = Hashtbl.find_opt t.parts.(part).ps l.N.id
let init t = t.init

(* --- image and fixpoint ------------------------------------------------------------ *)

let image t s =
  Bdd.rename t.man (Bdd.and_exists t.man t.quantified t.transition s) (fun v ->
      v - 1)

type outcome =
  | Closed of Bdd.t
  | Hit of { bad : Bdd.t; rings : Bdd.t list }

let reach ?(bad = Bdd.bfalse) ?(delay = 0) ?from t =
  let rec advance k s = if k = 0 then s else advance (k - 1) (image t s) in
  let start = advance delay (Option.value from ~default:t.init) in
  let rec go reached frontier rings =
    check t;
    let hit = Bdd.band t.man frontier bad in
    if not (Bdd.is_false hit) then Hit { bad = hit; rings = List.rev rings }
    else begin
      let fresh = Bdd.band t.man (image t frontier) (Bdd.bnot t.man reached) in
      if Bdd.is_false fresh then Closed reached
      else go (Bdd.bor t.man reached fresh) fresh (fresh :: rings)
    end
  in
  go start start [ start ]

let reachable t =
  match reach t with
  | Closed r -> r
  | Hit _ -> assert false (* the default bad set is empty *)

(* --- counterexample traces ---------------------------------------------------------- *)

type trace = {
  inputs : (string * bool) list list;
  start : bool array;
  witness : bool array;
}

let input_vector t a = Array.to_list (Array.mapi (fun i name -> (name, a.(i))) t.pis)

let trace t ~bad rings =
  let nvars = Array.length t.pis + (2 * num_latches t) in
  let rings = Array.of_list rings in
  (* at ring i, constrain the next state to the state picked at ring i+1 and
     pick a predecessor (with the input that steps it there) in ring i *)
  let rec back i s inputs =
    if i = 0 then (inputs, s)
    else begin
      let ns_cube =
        List.fold_left
          (fun acc v ->
            Bdd.band t.man acc
              (if s.(v) then Bdd.var t.man (v + 1) else Bdd.nvar t.man (v + 1)))
          Bdd.btrue t.state_vars
      in
      let pred =
        Bdd.band t.man (Bdd.band t.man t.transition ns_cube) rings.(i - 1)
      in
      let a = assignment t.man pred ~nvars in
      check t;
      back (i - 1) a (input_vector t a :: inputs)
    end
  in
  let witness = assignment t.man bad ~nvars in
  let inputs, start = back (Array.length rings - 1) witness [] in
  { inputs; start; witness }

let latch_space t f =
  let npi = Array.length t.pis in
  Bdd.rename t.man f (fun v -> (v - npi) / 2)

(* --- product machines ----------------------------------------------------------------- *)

let observable_latches net =
  let seen = Hashtbl.create 256 in
  let rec walk id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      let n = N.node net id in
      match n.N.kind with
      | N.Input | N.Const _ -> ()
      | N.Logic _ -> Array.iter walk n.N.fanins
      | N.Latch _ -> walk (N.latch_data net n).N.id
    end
  in
  List.iter (fun (_, n) -> walk n.N.id) (N.outputs net);
  List.filter (fun l -> Hashtbl.mem seen l.N.id) (N.latches net)

let interface_mismatch a b =
  let sorted names = List.sort compare names in
  let pis net = sorted (List.map (fun n -> n.N.name) (N.inputs net)) in
  let pos net = sorted (List.map fst (N.outputs net)) in
  if pis a <> pis b then Some "primary-input name mismatch"
  else if pos a <> pos b then Some "primary-output name mismatch"
  else None

let product ?max_nodes a b =
  let t =
    create ?max_nodes [ (a, observable_latches a); (b, observable_latches b) ]
  in
  let outputs_b = N.outputs b in
  let differ =
    List.fold_left
      (fun acc (name, na) ->
        let nb = List.assoc name outputs_b in
        Bdd.bor t.man acc
          (Bdd.bxor t.man (value t ~part:0 na.N.id) (value t ~part:1 nb.N.id)))
      Bdd.bfalse (N.outputs a)
  in
  (t, differ)
