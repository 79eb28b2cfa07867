module N = Netlist.Network
module G = Minperiod.Internal

let big = max_int / 4

(* Exact min-register retiming with register sharing along fanout stems,
   via the Leiserson-Saxe mirror-vertex construction:

   For each vertex [u] with fanout edges (v_i, w_i) and w^ = max w_i, add a
   mirror vertex m_u with constraint edges
       r(u)   - r(m_u) <= w^          (the costed edge)
       r(v_i) - r(m_u) <= w^ - w_i
   so that, at the optimum, w^ + r(m_u) - r(u) = max_i (w_i + r(v_i) - r(u))
   = the number of registers the retimed net needs with sharing.  The
   objective sums exactly the costed mirror edges; legality and period
   constraints live on the original edges.

   The LP dual of this difference-constraint program is a transshipment
   problem solved by min-cost flow; the optimal retiming labels are the
   negated potentials of the final residual network. *)
let vertex_cap = 400

let min_registers ?target_period net ~model =
  let g = G.build_graph net model in
  let nv = g.G.nv in
  if nv > vertex_cap then Error (Minperiod.Too_large nv)
  else begin
    (* fanout edges by source; the i-th source in ascending order gets the
       mirror vertex nv + i *)
    let fanouts = Array.make nv [] in
    List.iter (fun (u, v, w) -> fanouts.(u) <- (v, w) :: fanouts.(u)) g.G.edges;
    let sources = List.filter (fun u -> fanouts.(u) <> []) (List.init nv Fun.id) in
    let total_vertices = nv + List.length sources in
    (* constraints (x, y, bound) meaning r(x) - r(y) <= bound *)
    let constraints = ref (List.rev g.G.edges) in
    let add x y bound = constraints := (x, y, bound) :: !constraints in
    Option.iter
      (fun period -> G.period_constraints (G.wd_matrices g) period add)
      target_period;
    List.iteri
      (fun i u ->
        let m = nv + i in
        let w_hat = List.fold_left (fun acc (_, w) -> max acc w) 0 fanouts.(u) in
        add u m w_hat;
        List.iter (fun (v, w) -> add v m (w_hat - w)) fanouts.(u))
      sources;
    let each f = List.iter (fun (x, y, bound) -> f x y bound) !constraints in
    if G.solve total_vertices each = None then Error Minperiod.Infeasible
    else begin
      (* Objective coefficients: +1 on r(m_u), -1 on r(u) per costed edge.
         The dual transshipment requires out-minus-in flow = -coefficient,
         so each source u is a unit supply and each mirror a unit demand. *)
      let source = total_vertices and sink = total_vertices + 1 in
      let flow = Mcmf.create (total_vertices + 2) in
      each (fun x y bound ->
          Mcmf.add_edge flow ~src:x ~dst:y ~capacity:big ~cost:bound);
      List.iter
        (fun u -> Mcmf.add_edge flow ~src:source ~dst:u ~capacity:1 ~cost:0)
        sources;
      List.iteri
        (fun i _ -> Mcmf.add_edge flow ~src:(nv + i) ~dst:sink ~capacity:1 ~cost:0)
        sources;
      let pushed, _ = Mcmf.max_flow_min_cost flow ~source ~sink in
      (* a min-cost flow leaves no negative residual cycle, so the
         potentials always exist once the supply is routed *)
      match G.solve (total_vertices + 2) (Mcmf.residual_constraints flow) with
      | Some p when pushed = List.length sources ->
        (* the labels are the negated potentials; solve fixes p(host) = 0 *)
        let r = Array.init nv (fun v -> -p.(v)) in
        let copy = N.copy net in
        (match G.realize copy g r with
         | Error e -> Error e
         | Ok () ->
           N.sweep copy;
           (* recover fanout-stem register sharing structurally *)
           ignore (Minarea.merge_all_siblings copy);
           (* The realization can exceed the model optimum when backward
              moves choose initial-state preimages that keep siblings from
              merging; never return something worse than the input with its
              own siblings merged. *)
           let baseline = N.copy net in
           ignore (Minarea.merge_all_siblings baseline);
           if N.num_latches copy <= N.num_latches baseline then
             Ok (copy, N.num_latches copy)
           else Ok (baseline, N.num_latches baseline))
      | Some _ | None -> Error Minperiod.Infeasible
    end
  end
