(* Adjacency as arrays of arc records; every arc stores its reverse twin. *)
type arc = {
  dst : int;
  mutable cap : int;
  cost : int;
  twin : int;  (* index of the reverse arc in [arcs.(dst)] *)
}

type t = {
  n : int;
  arcs : arc array array;           (* grown copy-on-add; modest sizes *)
  mutable out_count : int array;
}

let create n =
  { n; arcs = Array.make n [||]; out_count = Array.make n 0 }

let push_arc t node arc =
  let old = t.arcs.(node) in
  let count = t.out_count.(node) in
  if count >= Array.length old then begin
    let grown = Array.make (max 4 (2 * Array.length old)) arc in
    Array.blit old 0 grown 0 count;
    t.arcs.(node) <- grown
  end;
  t.arcs.(node).(count) <- arc;
  t.out_count.(node) <- count + 1

let add_edge t ~src ~dst ~capacity ~cost =
  let fwd_index = t.out_count.(src) in
  let rev_index = t.out_count.(dst) in
  push_arc t src { dst; cap = capacity; cost; twin = rev_index };
  push_arc t dst { dst = src; cap = 0; cost = -cost; twin = fwd_index }

let big = max_int / 4

(* SPFA shortest path by cost over residual arcs from [source]; returns
   parent arcs. *)
let spfa t ~source =
  let dist = Array.make t.n big in
  let parent = Array.make t.n (-1, -1) in
  let in_queue = Array.make t.n false in
  let queue = Queue.create () in
  dist.(source) <- 0;
  Queue.push source queue;
  in_queue.(source) <- true;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    in_queue.(u) <- false;
    for i = 0 to t.out_count.(u) - 1 do
      let a = t.arcs.(u).(i) in
      if a.cap > 0 && dist.(u) + a.cost < dist.(a.dst) then begin
        dist.(a.dst) <- dist.(u) + a.cost;
        parent.(a.dst) <- (u, i);
        if not in_queue.(a.dst) then begin
          Queue.push a.dst queue;
          in_queue.(a.dst) <- true
        end
      end
    done
  done;
  (dist, parent)

let max_flow_min_cost t ~source ~sink =
  let flow = ref 0 and cost = ref 0 in
  let continue = ref true in
  while !continue do
    let dist, parent = spfa t ~source in
    if dist.(sink) >= big then continue := false
    else begin
      (* bottleneck along the path *)
      let rec bottleneck v acc =
        if v = source then acc
        else begin
          let u, i = parent.(v) in
          bottleneck u (min acc t.arcs.(u).(i).cap)
        end
      in
      let push = bottleneck sink big in
      let rec apply v =
        if v <> source then begin
          let u, i = parent.(v) in
          let a = t.arcs.(u).(i) in
          a.cap <- a.cap - push;
          let r = t.arcs.(a.dst).(a.twin) in
          r.cap <- r.cap + push;
          cost := !cost + (push * a.cost);
          apply u
        end
      in
      apply sink;
      flow := !flow + push
    end
  done;
  (!flow, !cost)

let residual_constraints t f =
  Array.iteri
    (fun u arcs ->
      for i = 0 to t.out_count.(u) - 1 do
        let a = arcs.(i) in
        if a.cap > 0 then f a.dst u a.cost
      done)
    t.arcs
