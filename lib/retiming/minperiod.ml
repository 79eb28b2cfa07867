module N = Netlist.Network

type failure =
  | Too_large of int
  | Infeasible
  | Init_state of string
  | Stuck of string

let failure_message = function
  | Too_large n -> Printf.sprintf "retiming graph too large (%d vertices)" n
  | Infeasible -> "no retiming achieves the target period"
  | Init_state msg -> "initial state: " ^ msg
  | Stuck msg -> "move sequencing stuck: " ^ msg

(* --- retiming graph -------------------------------------------------------- *)

type graph = {
  nv : int;                          (* vertex count; vertex 0 is the host *)
  delay : float array;               (* per vertex *)
  edges : (int * int * int) list;    (* (u, v, weight) *)
  node_of_vertex : int array;        (* vertex -> node id; -1 for host *)
}

(* Walk back through a latch chain; return (source node, latch count).
   A pure register ring (latches forming a cycle with no logic) has no
   combinational source: report [None] and let the caller treat the signal
   as coming from the environment — its registers cannot be moved by any
   retiming of logic vertices anyway. *)
let chase net start =
  let rec go node count seen =
    match node.N.kind with
    | N.Latch _ ->
      if List.mem node.N.id seen then (None, count)
      else go (N.latch_data net node) (count + 1) (node.N.id :: seen)
    | N.Input | N.Const _ | N.Logic _ -> (Some node, count)
  in
  go start 0 []

let build_graph net model =
  let logic = N.logic_nodes net in
  let nv = List.length logic + 1 in
  let vertex_of_node = Hashtbl.create 64 in
  let node_of_vertex = Array.make nv (-1) in
  let delay = Array.make nv 0.0 in
  List.iteri
    (fun i n ->
      Hashtbl.add vertex_of_node n.N.id (i + 1);
      node_of_vertex.(i + 1) <- n.N.id;
      delay.(i + 1) <- model n)
    logic;
  let edges = ref [] in
  let vertex_of net_node =
    match net_node.N.kind with
    | N.Logic _ -> Hashtbl.find vertex_of_node net_node.N.id
    | N.Input | N.Const _ -> 0
    | N.Latch _ -> assert false
  in
  List.iteri
    (fun i v ->
      Array.iter
        (fun fid ->
          let source, w = chase net (N.node net fid) in
          let u = match source with Some s -> vertex_of s | None -> 0 in
          edges := (u, i + 1, w) :: !edges)
        v.N.fanins)
    logic;
  (* primary outputs back to the host *)
  List.iter
    (fun (_, driver) ->
      match chase net driver with
      | Some ({ N.kind = N.Logic _; _ } as source), w ->
        edges := (vertex_of source, 0, w) :: !edges
      | Some _, _ | None, _ -> ())
    (N.outputs net);
  { nv; delay; edges = !edges; node_of_vertex }

(* --- W and D matrices ------------------------------------------------------ *)

let big = max_int / 4

(* Lexicographic shortest paths: W = min registers over paths, D = max delay
   among minimum-register paths (delays of both endpoints included).  The
   host (vertex 0) is never an intermediate vertex: a PO-to-PI hop through
   the environment is not a combinational timing path, so it must not
   generate period constraints. *)
let m_wd_builds = Obs.Metrics.counter "retiming.wd_builds"

let wd_matrices g =
  Obs.Metrics.incr m_wd_builds;
  let w = Array.make_matrix g.nv g.nv big in
  let d = Array.make_matrix g.nv g.nv neg_infinity in
  List.iter
    (fun (u, v, wt) ->
      if wt < w.(u).(v) || (wt = w.(u).(v) && g.delay.(u) > d.(u).(v)) then begin
        w.(u).(v) <- wt;
        d.(u).(v) <- g.delay.(u)
      end)
    g.edges;
  for k = 1 to g.nv - 1 do
    for u = 0 to g.nv - 1 do
      if w.(u).(k) < big then
        for v = 0 to g.nv - 1 do
          if w.(k).(v) < big then begin
            let nw = w.(u).(k) + w.(k).(v) in
            let nd = d.(u).(k) +. d.(k).(v) in
            if nw < w.(u).(v) || (nw = w.(u).(v) && nd > d.(u).(v)) then begin
              w.(u).(v) <- nw;
              d.(u).(v) <- nd
            end
          end
        done
    done
  done;
  let dd = Array.make_matrix g.nv g.nv neg_infinity in
  for u = 0 to g.nv - 1 do
    for v = 0 to g.nv - 1 do
      if w.(u).(v) < big then dd.(u).(v) <- d.(u).(v) +. g.delay.(v)
    done
  done;
  (w, dd)

(* --- the difference-constraint solver ----------------------------------------- *)

(* The clock-period constraints r(u) - r(v) <= W(u,v) - 1, one for every pair
   whose heaviest minimum-register path exceeds [period], read straight from
   the matrices ([D] is finite exactly where [W] is). *)
let period_constraints (w, d) period f =
  Array.iteri
    (fun u row ->
      Array.iteri
        (fun v duv -> if duv > period +. 1e-9 then f u v (w.(u).(v) - 1))
        row)
    d

(* Does the predecessor graph [parent] contain a cycle?  Each walk stamps the
   vertices it visits with [base + start]; a walk stops at the root (-1) or
   at a vertex already stamped in this check ([>= base]), and has closed a
   cycle iff that vertex carries its own stamp.  Callers advance [base] by
   [Array.length parent] between checks, so stamps never leak across them. *)
let closes_cycle parent mark base =
  let n = Array.length parent in
  let rec walk id v =
    if v < 0 then false
    else if mark.(v) >= base then mark.(v) = id
    else begin
      mark.(v) <- id;
      walk id parent.(v)
    end
  in
  let rec from s = s < n && (walk (base + s) s || from (s + 1)) in
  from 0

(* Solve r(u) - r(v) <= c over the constraints [iter] enumerates, on [n]
   vertices, by Bellman-Ford relaxation from r = 0.  Whatever the relaxation
   order, this converges to the greatest solution <= 0, returned shifted so
   that r(0) = 0.  A cycle in the predecessor graph is a negative cycle, so
   the first pass that closes one answers [None]; the [n + 2] pass cap is
   only a backstop. *)
let solve n iter =
  let r = Array.make n 0 in
  let parent = Array.make n (-1) in
  let mark = Array.make n (-1) in
  let rec pass k =
    let changed = ref false in
    iter (fun u v c ->
        if r.(u) > r.(v) + c then begin
          r.(u) <- r.(v) + c;
          parent.(u) <- v;
          changed := true
        end);
    if not !changed then
      let shift = r.(0) in
      Some (Array.map (fun x -> x - shift) r)
    else if k > n + 2 || closes_cycle parent mark (k * n) then None
    else pass (k + 1)
  in
  pass 0

let m_probes = Obs.Metrics.counter "retiming.min_period.probes"

(* A retiming meeting [period] (legal edge weights plus the W/D period
   constraints), or [None] when the period is infeasible. *)
let feasible g wd period =
  Obs.Metrics.incr m_probes;
  solve g.nv (fun f ->
      List.iter (fun (u, v, w) -> f u v w) g.edges;
      period_constraints wd period f)

(* The distinct finite D values, ascending; values within the 1e-9
   feasibility tolerance of a smaller one collapse onto it. *)
let candidate_periods (_, d) =
  let set = Hashtbl.create 64 in
  Array.iter
    (Array.iter (fun x -> if x > neg_infinity then Hashtbl.replace set x ()))
    d;
  let sorted = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) set []) in
  List.rev
    (List.fold_left
       (fun acc c ->
         match acc with
         | lowest :: _ when c <= lowest +. 1e-9 -> acc
         | _ -> c :: acc)
       [] sorted)

(* Binary search for the index of the first candidate [feasible] accepts
   (feasibility is monotone in the period); [None] if even the last fails. *)
let first_feasible candidates feasible =
  let n = Array.length candidates in
  if n = 0 || not (feasible candidates.(n - 1)) then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if feasible candidates.(mid) then hi := mid else lo := mid + 1
    done;
    Some !lo
  end

(* --- realization by atomic moves ------------------------------------------- *)

let realize net g r =
  (* remaining(v) > 0: v needs backward moves; < 0: forward moves *)
  let remaining = Hashtbl.create 64 in
  Array.iteri
    (fun vertex node_id ->
      if vertex > 0 && r.(vertex) <> 0 then
        Hashtbl.replace remaining node_id r.(vertex))
    g.node_of_vertex;
  (* lint-waive: nondet/hashtbl-order — scan order only schedules moves:
     every vertex performs exactly |r(v)| moves before the loop ends, so
     the final register placement is order-independent. *)
  let node_ids = Hashtbl.fold (fun id _ acc -> id :: acc) remaining [] in
  let total () = Hashtbl.fold (fun _ v acc -> acc + abs v) remaining 0 in (* lint-waive: nondet/hashtbl-order — commutative sum *)
  let budget = ref (4 * (total () + 1)) in
  let result = ref (Ok ()) in
  while total () > 0 && !result = Ok () && !budget > 0 do
    decr budget;
    let progress = ref false in
    List.iter
      (fun node_id ->
        let count =
          match Hashtbl.find_opt remaining node_id with Some c -> c | None -> 0
        in
        if !result = Ok () && count <> 0 then begin
          match N.node_opt net node_id with
          | None -> Hashtbl.replace remaining node_id 0
          | Some v ->
            if count < 0 && Moves.is_forward_retimable net v then begin
              match Moves.forward_across_node net v with
              | Ok _ ->
                Hashtbl.replace remaining node_id (count + 1);
                progress := true
              | Error e -> result := Error (Stuck (Moves.error_message e))
            end
            else if count > 0 && Moves.is_backward_retimable net v then begin
              match Moves.backward_across_node net v with
              | Ok _ ->
                Hashtbl.replace remaining node_id (count - 1);
                progress := true
              | Error (Moves.No_initial_state msg) ->
                result := Error (Init_state msg)
              | Error (Moves.Not_retimable msg) -> result := Error (Stuck msg)
            end
        end)
      node_ids;
    if (not !progress) && total () > 0 && !result = Ok () then
      result := Error (Stuck "no applicable atomic move")
  done;
  if !result = Ok () && total () > 0 then Error (Stuck "budget exhausted")
  else (match !result with Ok () -> Ok () | Error e -> Error e)

(* --- public entry points ---------------------------------------------------- *)

let vertex_cap = 1200

(* indexed by [failure] constructor, in declaration order *)
let m_failed =
  Array.map
    (fun kind -> Obs.Metrics.counter ("retiming.min_period.failed." ^ kind))
    [| "too_large"; "infeasible"; "init_state"; "stuck" |]

let count_failure f =
  let i =
    match f with
    | Too_large _ -> 0 | Infeasible -> 1 | Init_state _ -> 2 | Stuck _ -> 3
  in
  Obs.Metrics.incr m_failed.(i)

(* Build the retiming graph and its W/D matrices, unless the graph is over
   the vertex cap: W/D are dense |V|^2 matrices filled in O(|V|^3). *)
let with_graph net model k =
  let g = build_graph net model in
  if g.nv > vertex_cap then Error (Too_large g.nv) else k g (wd_matrices g)

let min_feasible_period net model =
  with_graph net model (fun g wd ->
      let candidates = Array.of_list (candidate_periods wd) in
      if Array.length candidates = 0 then Ok 0.0
      else
        match first_feasible candidates (fun c -> feasible g wd c <> None) with
        | Some i -> Ok candidates.(i)
        | None -> Error Infeasible)

let retime_min_period ?current_period net ~model =
  (* a search that runs out of candidates after realization failures
     reports [Infeasible], but the failure counters blame the last
     realization failure: that is why the retiming failed *)
  let realization_failure = ref None in
  let result =
    with_graph net model (fun g wd ->
        let current =
          match current_period with
          | Some p -> p
          | None -> Sta.clock_period net model
        in
        let candidates =
          Array.of_list
            (List.filter (fun c -> c < current -. 1e-9) (candidate_periods wd))
        in
        (* the smallest graph-feasible candidate, then upward until one is
           also realizable (initial states computable) *)
        let rec walk_up i =
          if i >= Array.length candidates then Error Infeasible
          else
            match feasible g wd candidates.(i) with
            | None -> walk_up (i + 1)
            | Some r ->
              (* the copy has identical node ids, so the graph tables remain
                 valid for it *)
              let copy = N.copy net in
              (match realize copy g r with
               | Ok () ->
                 N.sweep copy;
                 Ok (copy, candidates.(i))
               | Error e ->
                 realization_failure := Some e;
                 walk_up (i + 1))
        in
        match first_feasible candidates (fun c -> feasible g wd c <> None) with
        | Some lo -> walk_up lo
        | None -> Error Infeasible)
  in
  (match result with
   | Ok _ -> ()
   | Error f -> count_failure (Option.value !realization_failure ~default:f));
  result

module Internal = struct
  type nonrec graph = graph = {
    nv : int;
    delay : float array;
    edges : (int * int * int) list;
    node_of_vertex : int array;
  }

  let build_graph = build_graph
  let wd_matrices = wd_matrices
  let period_constraints = period_constraints
  let solve = solve
  let feasible = feasible
  let candidate_periods = candidate_periods
  let realize = realize
end
