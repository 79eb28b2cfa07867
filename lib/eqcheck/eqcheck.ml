module N = Netlist.Network
module Sym = Sim.Symbolic

type options = {
  max_state_bits : int;
  max_product_bits : int;
  max_comb_leaves : int;
  max_bdd_nodes : int;
  sat_conflicts : int;
}

let default_options =
  { max_state_bits = 22;
    max_product_bits = 26;
    max_comb_leaves = 96;
    max_bdd_nodes = 200_000;
    sat_conflicts = 50_000 }

(* Verdict tallies and cap-trip reasons, published to the process-wide
   registry so a suite run can report where the checker gave up. *)
let m_verdicts_proved = Obs.Metrics.counter "eqcheck.verdicts.proved"
let m_verdicts_refuted = Obs.Metrics.counter "eqcheck.verdicts.refuted"
let m_verdicts_unknown = Obs.Metrics.counter "eqcheck.verdicts.unknown"
let m_cap_comb_leaves = Obs.Metrics.counter "eqcheck.cap.comb_leaves"
let m_cap_product_bits = Obs.Metrics.counter "eqcheck.cap.product_bits"
let m_cap_state_bits = Obs.Metrics.counter "eqcheck.cap.state_bits"
let m_cap_bdd_nodes = Obs.Metrics.counter "eqcheck.cap.bdd_nodes"
let m_cap_sat_conflicts = Obs.Metrics.counter "eqcheck.cap.sat_conflicts"
let m_cone_rescued = Obs.Metrics.counter "eqcheck.seq.cone_rescued"
let m_bdd_reuse = Obs.Metrics.counter "eqcheck.bdd.reuse"

(* cone-memo outcome split: [hit] = recorded build served the pre side;
   [miss] = memo consulted but empty or unusable; [evict] = a recorded
   build displaced without ever being reused (stale net/frame/table).
   [eqcheck.bdd.reuse] above stays as the historical alias of [hit]. *)
let m_memo_hit = Obs.Metrics.counter "eqcheck.memo.hit"
let m_memo_miss = Obs.Metrics.counter "eqcheck.memo.miss"
let m_memo_evict = Obs.Metrics.counter "eqcheck.memo.evict"

type cex = {
  endpoint : string;
  leaves : (string * bool) list;
  init_pre : (string * bool) list;
  init_post : (string * bool) list;
  trace : (string * bool) list list;
  sim_confirmed : bool;
}

type verdict =
  | Proved
  | Refuted of cex
  | Unknown of string

type record = {
  label : string;
  pass : string;
  rule : string;
  verdict : verdict;
  seconds : float;
}

let verdict_name = function
  | Proved -> "proved"
  | Refuted _ -> "refuted"
  | Unknown _ -> "unknown"

(* --- shared helpers ---------------------------------------------------------- *)

(* DC_ret classes arrive as latch node ids of the resynthesis working copy;
   both sides of a pass carry the same latch names (the mapper and the editing
   kernels preserve them), so the don't-care condition is expressed over
   names.  Dead ids are tolerated — merge-back legitimately consumes class
   members. *)
let class_name_pairs nets classes =
  let name_of id =
    List.find_map
      (fun net ->
        match N.node_opt net id with
        | Some n when N.is_latch n -> Some n.N.name
        | Some _ | None -> None)
      nets
  in
  List.concat_map
    (fun cls ->
      let names =
        List.filter_map name_of (List.sort_uniq compare cls)
        |> List.sort_uniq compare
      in
      match names with
      | [] | [ _ ] -> []
      | rep :: rest -> List.map (fun m -> (rep, m)) rest)
    classes

let endpoints net =
  List.map (fun (name, n) -> (name, n.N.id)) (N.outputs net)
  @ List.map
      (fun l -> ("next:" ^ l.N.name, (N.latch_data net l).N.id))
      (N.latches net)

let comb_interface_matches pre post =
  Sim.Equiv.leaf_names pre = Sim.Equiv.leaf_names post
  && Sim.Equiv.endpoint_names pre = Sim.Equiv.endpoint_names post

(* Memo of the last cone-function build, keyed by network identity, revision
   and leaf frame.  In an instrumented flow the [pre] side of check k+1 is a
   snapshot of the [post] side of check k, so its cone BDDs can be reused
   instead of rebuilt: the shared unique table never frees or renumbers
   nodes, so the handles stay valid across checks.  Budget parity is kept by
   [Bdd.adopt]-ing the recorded build charge into the new check's scope. *)
type cone_memo = {
  me_net : N.t;
  me_rev : int;
  me_frame : string list;  (** the leaf list the variable frame was built on *)
  me_values : (int, Bdd.t) Hashtbl.t;
  me_man : Bdd.man;  (** sub-scope charged with exactly this build's nodes *)
}

type memo = cone_memo option ref

let memo () : memo = ref None

(* --- combinational equivalence modulo DC_ret --------------------------------- *)

let make_comb_cex pre post leaves assign =
  let l = List.map (fun name -> (name, assign name)) leaves in
  let f name = List.assoc name l in
  let ea = Sim.Equiv.eval_endpoints pre f in
  let eb = Sim.Equiv.eval_endpoints post f in
  let diverging =
    List.find_opt
      (fun (name, va) ->
        match List.assoc_opt name eb with
        | Some vb -> vb <> va
        | None -> true)
      ea
  in
  let endpoint, confirmed =
    match diverging with
    | Some (name, _) -> (name, true)
    | None -> ("(none)", false)
  in
  { endpoint;
    leaves = l;
    init_pre = [];
    init_post = [];
    trace = [];
    sim_confirmed = confirmed }

let comb_check_bdd ~options ~pairs ?memo pre post leaves =
  let man = Bdd.create () in
  let var_idx = Hashtbl.create 64 in
  List.iteri (fun i name -> Hashtbl.add var_idx name i) leaves;
  let var_of_name name = Hashtbl.find var_idx name in
  let max_bdd_nodes = options.max_bdd_nodes in
  (* each side builds in a sub-scope so the memo can record exactly that
     side's node charge, while [man] keeps the cumulative count the budget
     tests against *)
  let build net =
    let scope = Bdd.sub_scope man in
    let leaf n = Bdd.var scope (var_of_name n.N.name) in
    (Sym.build ~budget:(man, max_bdd_nodes) scope net ~leaf, scope)
  in
  let values_pre =
    match memo with
    | Some r ->
      (match !r with
       | Some m
         when m.me_net == pre
              && m.me_rev = N.revision pre
              && m.me_frame = leaves
              (* in `Private mode each check owns a fresh table, so recorded
                 handles are meaningless here: fall through and rebuild *)
              && Bdd.same_table m.me_man man ->
         Obs.Metrics.incr m_bdd_reuse;
         Obs.Metrics.incr m_memo_hit;
         Bdd.adopt man m.me_man;
         m.me_values
       | Some _ ->
         (* recorded build can't serve this check and is displaced below
            without ever being reused *)
         Obs.Metrics.incr m_memo_miss;
         Obs.Metrics.incr m_memo_evict;
         fst (build pre)
       | None ->
         Obs.Metrics.incr m_memo_miss;
         fst (build pre))
    | None -> fst (build pre)
  in
  let values_post, post_scope = build post in
  (match memo with
   | Some r ->
     r :=
       Some
         { me_net = post;
           me_rev = N.revision post;
           me_frame = leaves;
           me_values = values_post;
           me_man = post_scope }
   | None -> ());
  (* care set: every pair of equivalent registers agrees *)
  let care =
    List.fold_left
      (fun acc (a, b) ->
        match (Hashtbl.find_opt var_idx a, Hashtbl.find_opt var_idx b) with
        | Some va, Some vb ->
          Bdd.band man acc (Bdd.bxnor man (Bdd.var man va) (Bdd.var man vb))
        | _, _ -> acc)
      Bdd.btrue pairs
  in
  let post_eps = endpoints post in
  let diff =
    List.find_map
      (fun (name, ida) ->
        match List.assoc_opt name post_eps with
        | None -> None (* interface already checked; defensive *)
        | Some idb ->
          let fa = Hashtbl.find values_pre ida in
          let fb = Hashtbl.find values_post idb in
          let d = Bdd.band man (Bdd.bxor man fa fb) care in
          if Bdd.node_count man > max_bdd_nodes then
            raise (Sym.Too_large "bdd node budget exhausted on the miter");
          if Bdd.is_false d then None else Some d)
      (endpoints pre)
  in
  match diff with
  | None -> `Proved
  | Some d ->
    let witness = Sym.assignment man d ~nvars:(List.length leaves) in
    `Diff (fun name -> witness.(var_of_name name))

let comb_check_sat ~options ~pairs pre post =
  let solver = Sat_lite.create () in
  let leaf_vars = Hashtbl.create 64 in
  let var_of_name name =
    match Hashtbl.find_opt leaf_vars name with
    | Some v -> v
    | None ->
      let v = Sat_lite.new_var solver in
      Hashtbl.add leaf_vars name v;
      v
  in
  (* one encoder per network, so shared cones are encoded once per check *)
  let leaf_var n = var_of_name n.N.name in
  let enc_pre = Sim.Equiv.node_cnf solver pre ~leaf_var in
  let enc_post = Sim.Equiv.node_cnf solver post ~leaf_var in
  (* DC_ret as satisfiability don't-cares: restrict the search to care states
     by asserting the class members equal *)
  List.iter
    (fun (a, b) ->
      let va = var_of_name a and vb = var_of_name b in
      Sat_lite.add_clause solver [ -(va + 1); vb + 1 ];
      Sat_lite.add_clause solver [ va + 1; -(vb + 1) ])
    pairs;
  let post_eps = endpoints post in
  let xor_vars =
    List.filter_map
      (fun (name, ida) ->
        match List.assoc_opt name post_eps with
        | None -> None
        | Some idb ->
          let va = enc_pre ida and vb = enc_post idb in
          let x = Sat_lite.new_var solver in
          Sat_lite.add_clause solver [ -(x + 1); va + 1; vb + 1 ];
          Sat_lite.add_clause solver [ -(x + 1); -(va + 1); -(vb + 1) ];
          Sat_lite.add_clause solver [ x + 1; -(va + 1); vb + 1 ];
          Sat_lite.add_clause solver [ x + 1; va + 1; -(vb + 1) ];
          Some x)
      (endpoints pre)
  in
  Sat_lite.add_clause solver (List.map (fun x -> x + 1) xor_vars);
  match Sat_lite.solve ~conflict_limit:options.sat_conflicts solver with
  | Sat_lite.Unsat -> `Proved
  | Sat_lite.Unknown ->
    Obs.Metrics.incr m_cap_sat_conflicts;
    `Unknown "sat_lite conflict budget exhausted"
  | Sat_lite.Sat model ->
    let assign name =
      match Hashtbl.find_opt leaf_vars name with
      | Some v when v < Array.length model -> model.(v)
      | Some _ | None -> false
    in
    `Diff assign

let comb_check ?(options = default_options) ?(classes = []) ?memo pre post =
  if not (comb_interface_matches pre post) then
    Unknown "interface mismatch (leaf or endpoint names differ)"
  else begin
    let leaves = Sim.Equiv.leaf_names pre in
    let pairs = class_name_pairs [ pre; post ] classes in
    if List.length leaves > options.max_comb_leaves then begin
      Obs.Metrics.incr m_cap_comb_leaves;
      Unknown
        (Printf.sprintf "leaf cap: %d leaves > %d" (List.length leaves)
           options.max_comb_leaves)
    end
    else begin
      let finish = function
        | `Proved -> Proved
        | `Unknown msg -> Unknown msg
        | `Diff assign -> Refuted (make_comb_cex pre post leaves assign)
      in
      match comb_check_bdd ~options ~pairs ?memo pre post leaves with
      | r -> finish r
      | exception Sym.Too_large _ ->
        Obs.Metrics.incr m_cap_bdd_nodes;
        finish (comb_check_sat ~options ~pairs pre post)
    end
  end

(* --- sequential equivalence with counterexample traces ------------------------ *)

(* The product machine keeps only output-observable registers
   ([Sim.Symbolic.product]); the state-bit cap applies to those, so latches
   outside every output cone cannot push a check past it. *)
let seq_check ?(options = default_options) pre post =
  match Sym.interface_mismatch pre post with
  | Some why -> Unknown why
  | None ->
    let bits =
      List.length (Sym.observable_latches pre)
      + List.length (Sym.observable_latches post)
    in
    if bits > options.max_product_bits then begin
      Obs.Metrics.incr m_cap_product_bits;
      Unknown
        (Printf.sprintf "state-bit cap: %d product bits > %d" bits
           options.max_product_bits)
    end
    else begin
      if N.num_latches pre + N.num_latches post > options.max_product_bits
      then Obs.Metrics.incr m_cone_rescued;
      try
        let machine, differ =
          Sym.product ~max_nodes:options.max_bdd_nodes pre post
        in
        match Sym.reach ~bad:differ machine with
        | Sym.Closed _ -> Proved
        | Sym.Hit { bad; rings } ->
          let tr = Sym.trace machine ~bad rings in
          let last_input = Sym.input_vector machine tr.Sym.witness in
          let trace = tr.Sym.inputs @ [ last_input ] in
          (* diverging endpoint at the witness cycle, from the product BDDs *)
          let differs (name, na) =
            let nb = List.assoc name (N.outputs post) in
            let eval part id =
              Bdd.eval (Sym.man machine) (Sym.value machine ~part id) (fun v ->
                  tr.Sym.witness.(v))
            in
            eval 0 na.N.id <> eval 1 nb.N.id
          in
          let endpoint =
            match List.find_opt differs (N.outputs pre) with
            | Some (name, _) -> name
            | None -> "(none)"
          in
          (* replay states are total over ALL latches: registers dropped from
             the product machine cannot influence outputs, so their declared
             initial value (Ix resolved to 0) is as good as any *)
          let init_value part l =
            match Sym.state_var machine ~part l with
            | Some v -> tr.Sym.start.(v)
            | None ->
              (match N.latch_init l with N.I1 -> true | N.I0 | N.Ix -> false)
          in
          let state_of part net =
            List.map (fun l -> (l.N.id, init_value part l)) (N.latches net)
          in
          let named_init part net =
            List.map (fun l -> (l.N.name, init_value part l)) (N.latches net)
          in
          (* simulation confirmation (the cex-quality contract): replay the
             trace on both netlists from the extracted initial states and
             demand an actual output divergence *)
          let sa = ref (state_of 0 pre) in
          let sb = ref (state_of 1 post) in
          let confirmed = ref None in
          List.iter
            (fun vector ->
              if !confirmed = None then begin
                let pi name = List.assoc name vector in
                let sa', oa = Sim.Simulate.step pre ~pi ~state:!sa in
                let sb', ob = Sim.Simulate.step post ~pi ~state:!sb in
                sa := sa';
                sb := sb';
                match
                  List.find_opt
                    (fun (name, va) -> List.assoc_opt name ob <> Some va)
                    oa
                with
                | Some (name, _) -> confirmed := Some name
                | None -> ()
              end)
            trace;
          (match !confirmed with
           | Some name ->
             Refuted
               { endpoint = name;
                 leaves = last_input;
                 init_pre = named_init 0 pre;
                 init_post = named_init 1 post;
                 trace;
                 sim_confirmed = true }
           | None ->
             (* never observed on a sound extraction; degrade rather than
                report a refutation simulation cannot reproduce *)
             Unknown
               (Printf.sprintf
                  "unconfirmed counterexample for %s (replay of %d cycle(s) \
                   did not diverge)"
                  endpoint (List.length trace)))
      with Sym.Too_large msg ->
        Obs.Metrics.incr m_cap_bdd_nodes;
        Unknown msg
    end

(* --- DC_ret invariant: bounded reachability ----------------------------------- *)

let dcret_check ?(options = default_options) net classes =
  let live_pairs =
    List.concat_map
      (fun cls ->
        let live =
          List.filter_map
            (fun id ->
              match N.node_opt net id with
              | Some n when N.is_latch n -> Some n
              | Some _ | None -> None)
            (List.sort_uniq compare cls)
        in
        match live with
        | [] | [ _ ] -> []
        | rep :: rest -> List.map (fun m -> (rep, m)) rest)
      classes
  in
  if live_pairs = [] then Proved
  else begin
    let latches = N.latches net in
    let nl = List.length latches in
    if nl > options.max_state_bits then begin
      Obs.Metrics.incr m_cap_state_bits;
      Unknown
        (Printf.sprintf "state-bit cap: %d latches > %d" nl
           options.max_state_bits)
    end
    else begin
      try
        let machine =
          Sym.create ~max_nodes:options.max_bdd_nodes [ (net, latches) ]
        in
        let man = Sym.man machine in
        let var l = Option.get (Sym.state_var machine ~part:0 l) in
        let pair_bdd op (a, b) = op man (Bdd.var man (var a)) (Bdd.var man (var b)) in
        (* initial states: declared values; replicated copies of one register
           share its (possibly unknown) initial value, so class members are
           constrained pairwise equal even when the declared init is Ix *)
        let from =
          List.fold_left
            (fun acc p -> Bdd.band man acc (pair_bdd Bdd.bxnor p))
            (Sym.init machine) live_pairs
        in
        let split =
          List.fold_left
            (fun acc p -> Bdd.bor man acc (pair_bdd Bdd.bxor p))
            Bdd.bfalse live_pairs
        in
        match Sym.reach ~bad:split ~from machine with
        | Sym.Closed _ -> Proved
        | Sym.Hit { bad; rings } ->
          let tr = Sym.trace machine ~bad rings in
          let s_0 = tr.Sym.start and s_k = tr.Sym.witness in
          let trace = tr.Sym.inputs in
          let endpoint =
            match
              List.find_opt (fun (a, b) -> s_k.(var a) <> s_k.(var b)) live_pairs
            with
            | Some (a, b) -> Printf.sprintf "dcret:%s<>%s" a.N.name b.N.name
            | None -> "dcret:(none)"
          in
          let named_state s = List.map (fun l -> (l.N.name, s.(var l))) latches in
          (* replay: drive the netlist through the trace and demand the two
             class members really disagree at the violation cycle *)
          let final_state =
            List.fold_left
              (fun state vector ->
                let pi name = List.assoc name vector in
                fst (Sim.Simulate.step net ~pi ~state))
              (List.map (fun l -> (l.N.id, s_0.(var l))) latches)
              trace
          in
          let confirmed =
            List.exists
              (fun (a, b) ->
                match
                  ( List.assoc_opt a.N.id final_state,
                    List.assoc_opt b.N.id final_state )
                with
                | Some va, Some vb -> va <> vb
                | _, _ -> false)
              live_pairs
          in
          if confirmed then
            Refuted
              { endpoint;
                leaves =
                  (match List.rev trace with [] -> [] | last :: _ -> last);
                init_pre = named_state s_0;
                init_post = named_state s_k;
                trace;
                sim_confirmed = true }
          else
            Unknown
              (Printf.sprintf
                 "unconfirmed class violation %s (replay of %d cycle(s) did \
                  not diverge)"
                 endpoint (List.length trace))
      with Sym.Too_large msg ->
        Obs.Metrics.incr m_cap_bdd_nodes;
        Unknown msg
    end
  end

(* --- per-pass driver ----------------------------------------------------------- *)

let timed f =
  let t0 = Unix.gettimeofday () in (* lint-waive: nondet/wall-clock — feeds only the record's seconds measurement field, never a verdict *)
  let v = f () in
  (v, Unix.gettimeofday () -. t0) (* lint-waive: nondet/wall-clock — measurement only, same as above *)

let check_pass ?(options = default_options) ?memo ~label ~pass ~classes pre post
    =
  (* the class-invariant certificate only reads [post] and owns its own BDD
     scope, so it runs as a sibling task of the comb/seq check.  [post]'s
     lazily cached topo order is computed before forking: both lanes read it
     concurrently afterwards. *)
  let dcret_fut =
    if classes = [] then None
    else begin
      ignore (N.topo_combinational post);
      Some
        (Sched.fork (fun () ->
             timed (fun () -> dcret_check ~options post classes)))
    end
  in
  let eq_record =
    if comb_interface_matches pre post then begin
      let v, secs =
        timed (fun () -> comb_check ~options ~classes ?memo pre post)
      in
      match v with
      | Proved ->
        { label; pass; rule = "eq-pass/comb"; verdict = Proved; seconds = secs }
      | Refuted _ | Unknown _ ->
        (* a combinational difference is not yet a refutation: passes such as
           unreachable-state simplification change cone functions only on
           unreachable states.  Escalate to the sequential product machine,
           which alone may refute. *)
        let v2, secs2 = timed (fun () -> seq_check ~options pre post) in
        { label;
          pass;
          rule = "eq-pass/seq";
          verdict = v2;
          seconds = secs +. secs2 }
    end
    else begin
      let v, secs = timed (fun () -> seq_check ~options pre post) in
      { label; pass; rule = "eq-pass/seq"; verdict = v; seconds = secs }
    end
  in
  let dcret_records =
    match dcret_fut with
    | None -> []
    | Some fut ->
      let v, secs = Sched.join fut in
      [ { label; pass; rule = "dcret-invariant"; verdict = v; seconds = secs } ]
  in
  let records = eq_record :: dcret_records in
  List.iter
    (fun r ->
      Obs.Metrics.incr
        (match r.verdict with
         | Proved -> m_verdicts_proved
         | Refuted _ -> m_verdicts_refuted
         | Unknown _ -> m_verdicts_unknown))
    records;
  records

(* --- flow instrumentation ------------------------------------------------------ *)

let instrument ?(options = default_options) ~label sink =
  let reference = ref None in
  let memo = memo () in
  (* Boundary checks run as scheduler tasks so a whole flow's checks overlap
     with the flow itself (and with each other's dcret lanes).  Both sides of
     every check are snapshots the flow never mutates again, so the tasks
     need no lock; they are *chained* — task k+1 first joins task k — because
     they share [memo] (check k's post cones are check k+1's pre cones).
     The chain also makes [eqcheck.bdd.reuse] and the memo hit sequence
     byte-identical at any [--jobs N].  [finish] joins the chain and fills
     [sink] in boundary order, exactly as the serial version appended. *)
  let chain = ref None in
  let pending = ref [] in
  let remember net =
    reference := Some (net, N.revision net, N.outputs_revision net, N.copy net)
  in
  let unchanged net =
    match !reference with
    | Some (src, rev, orev, _) ->
      src == net && N.revision net = rev && N.outputs_revision net = orev
    | None -> false
  in
  let boundary pass classes net =
    match !reference with
    | Some (_, _, _, pre_copy) when not (unchanged net) ->
      let post_copy = N.copy net in
      let prev = !chain in
      let fut =
        Sched.fork (fun () ->
            (match prev with
             | Some p -> ignore (Sched.join p)
             | None -> ());
            check_pass ~options ~memo ~label ~pass ~classes pre_copy post_copy)
      in
      chain := Some fut;
      pending := fut :: !pending;
      (* the snapshot (identical node ids, never mutated) is both the next
         boundary's [pre] side and the memo key under which [check_pass]
         records this check's post-side cone BDDs — so the next check reuses
         them instead of rebuilding *)
      reference :=
        Some (net, N.revision net, N.outputs_revision net, post_copy)
    | Some _ -> () (* unchanged: the existing snapshot still matches *)
    | None -> remember net
  in
  let finish () =
    let futs = List.rev !pending in
    pending := [];
    List.iter (fun fut -> sink := !sink @ Sched.join fut) futs
  in
  let ins =
    { Verify.checkpoint = boundary;
      audited =
        (fun pass classes net f ->
          (* an in-place pass: its input is the network as it stands now; a
             stale reference (another lineage) is replaced before running *)
          if not (unchanged net) then remember net;
          let result = f () in
          boundary pass classes net;
          result) }
  in
  (ins, remember, finish)

(* --- rendering ------------------------------------------------------------------ *)

let counts records =
  List.fold_left
    (fun (p, r, u) rec_ ->
      match rec_.verdict with
      | Proved -> (p + 1, r, u)
      | Refuted _ -> (p, r + 1, u)
      | Unknown _ -> (p, r, u + 1))
    (0, 0, 0) records

let render records =
  String.concat "\n"
    (List.map
       (fun r ->
         let detail =
           match r.verdict with
           | Proved -> ""
           | Refuted c ->
             Printf.sprintf " endpoint=%s trace=%d sim_confirmed=%b"
               c.endpoint (List.length c.trace) c.sim_confirmed
           | Unknown msg -> Printf.sprintf " (%s)" msg
         in
         Printf.sprintf "%-8s %s: %s [%s] %.3fs%s"
           (verdict_name r.verdict) r.label r.pass r.rule r.seconds detail)
       records)

let render_json records =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i r ->
      let extra =
        match r.verdict with
        | Proved -> ""
        | Refuted c ->
          Printf.sprintf
            ", \"endpoint\": %S, \"trace_length\": %d, \"sim_confirmed\": %b"
            c.endpoint (List.length c.trace) c.sim_confirmed
        | Unknown msg -> Printf.sprintf ", \"reason\": %S" msg
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  { \"label\": %S, \"pass\": %S, \"rule\": %S, \"verdict\": %S, \
            \"seconds\": %.6f%s }%s\n"
           r.label r.pass r.rule
           (verdict_name r.verdict)
           r.seconds extra
           (if i = List.length records - 1 then "" else ",")))
    records;
  Buffer.add_string buf "]";
  Buffer.contents buf
