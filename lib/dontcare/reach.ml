module N = Netlist.Network

exception Too_large = Sim.Symbolic.Too_large

type result = {
  latch_order : N.node list;
  reachable : Logic.Cover.t;
  unreachable : Logic.Cover.t;
  num_reachable : float;
}

let unreachable_states ?(max_latches = 24) ?(max_bdd_nodes = 2_000_000) net =
  let latches = N.latches net in
  let nlatch = List.length latches in
  if nlatch = 0 then
    raise (Too_large "no latches: no state space to enumerate");
  if nlatch > max_latches then
    raise (Too_large (Printf.sprintf "%d latches" nlatch));
  (* the engine's scope charges only this traversal, so the node budget is
     independent of whatever other rows or domains have already built *)
  let machine = Sim.Symbolic.create ~max_nodes:max_bdd_nodes [ (net, latches) ] in
  let man = Sim.Symbolic.man machine in
  let reached =
    Sim.Symbolic.latch_space machine (Sim.Symbolic.reachable machine)
  in
  let cover_of f =
    try Bdd.to_cover ~max_cubes:20_000 man ~nvars:nlatch f
    with Bdd.Cover_too_large ->
      raise (Too_large "reachable-set cover explosion")
  in
  { latch_order = latches;
    reachable = cover_of reached;
    unreachable = cover_of (Bdd.bnot man reached);
    num_reachable = Bdd.sat_count man ~nvars:nlatch reached }

let simplify_with_unreachable ?(max_latches = 24) ?(max_leaves = 14) net =
  match unreachable_states ~max_latches net with
  | exception Too_large _ -> 0
  | r ->
    let latch_var = Hashtbl.create 16 in
    List.iteri (fun j l -> Hashtbl.add latch_var l.N.id j) r.latch_order;
    (* DC for a cone: unreachable patterns over the cone's latch leaves; we
       existentially project the unreachable set is NOT sound, so instead we
       keep only unreachable cubes whose support lies within the cone's
       leaves (those patterns never occur regardless of the other latches'
       values requires universal projection). *)
    let dc_for ~leaves =
      let nvars = Array.length leaves in
      let var_in_cone = Hashtbl.create 8 in
      Array.iteri
        (fun i leaf ->
          match Hashtbl.find_opt latch_var leaf.N.id with
          | Some j -> Hashtbl.add var_in_cone j i
          | None -> ())
        leaves;
      (* universal projection: a pattern over cone latches is impossible iff
         every completion is unreachable, i.e. it belongs to every cube? We
         approximate from the cube list: keep unreachable cubes whose
         support is within the cone's latch variables, rename to cone
         numbering.  Cube semantics make this sound: such a cube asserts
         unreachability for all completions. *)
      let usable =
        List.filter
          (fun cube ->
            let ok = ref true in
            Logic.Cube.iteri
              (fun v l ->
                if l <> Logic.Cube.Both && not (Hashtbl.mem var_in_cone v) then
                  ok := false)
              cube;
            !ok)
          r.unreachable.Logic.Cover.cubes
      in
      let renamed =
        List.map
          (fun cube ->
            let c = Logic.Cube.universe nvars in
            Logic.Cube.iteri
              (fun v l ->
                if l <> Logic.Cube.Both then
                  Logic.Cube.set c (Hashtbl.find var_in_cone v) l)
              cube;
            c)
          usable
      in
      Logic.Cover.make nvars renamed
    in
    let rebuilt = ref 0 in
    let targets =
      List.map (fun l -> N.latch_data net l) (N.latches net)
      @ List.map snd (N.outputs net)
    in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun n ->
        match N.node_opt net n.N.id with
        | Some n when N.is_logic n && not (Hashtbl.mem seen n.N.id) ->
          Hashtbl.add seen n.N.id ();
          if Cone.simplify_root ~max_leaves ~dc_for net n then incr rebuilt
        | Some _ | None -> ())
      targets;
    !rebuilt
