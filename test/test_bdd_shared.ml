(* Shared-table BDD tests: differential agreement with private per-manager
   tables, scope accounting (sub_scope / adopt / node_count warmth
   independence), cross-domain determinism under concurrent inserts and
   stripe rehashes, and the eqcheck cone memo that rides on the shared
   table. *)

let all_points n =
  List.init (1 lsl n) (fun i -> Array.init n (fun v -> i land (1 lsl v) <> 0))

let gen_cover n =
  QCheck.Gen.(
    list_size (int_range 0 6)
      (array_repeat n (oneofl [ Logic.Cube.Zero; Logic.Cube.One; Logic.Cube.Both ])
       >|= Logic.Cube.of_lits)
    >|= fun cubes -> Logic.Cover.make n cubes)

let n_prop = 5

let arb_cover_pair =
  QCheck.make QCheck.Gen.(pair (gen_cover n_prop) (gen_cover n_prop))

let cover_string c = Format.asprintf "%a" Logic.Cover.pp c

(* The same op sequence through a scope on the (warm, process-wide) shared
   table and through a fresh private manager must agree on semantics
   (pointwise eval), on the extracted cover, and on node accounting —
   [node_count] of a shared scope is defined as what the fresh manager
   reports. *)
let prop_shared_matches_private =
  QCheck.Test.make ~count:150
    ~name:"shared scope = private manager (eval, cover, node_count)"
    arb_cover_pair
    (fun (f, g) ->
      let build man =
        let bf = Bdd.of_cover man f and bg = Bdd.of_cover man g in
        Bdd.bxor man (Bdd.band man bf bg)
          (Bdd.exists man [ 0; 2 ] (Bdd.bor man bf bg))
      in
      let sh = Bdd.create () in
      let pr = Bdd.create ~mode:`Private () in
      let hs = build sh and hp = build pr in
      List.for_all
        (fun p ->
          Bdd.eval sh hs (fun v -> p.(v)) = Bdd.eval pr hp (fun v -> p.(v)))
        (all_points n_prop)
      && String.equal
           (cover_string (Bdd.to_cover sh ~nvars:n_prop hs))
           (cover_string (Bdd.to_cover pr ~nvars:n_prop hp))
      && Bdd.node_count sh = Bdd.node_count pr)

(* Two scopes on the same table interning the same function get the same
   handle, and the second (warm) scope still reports the cold node count. *)
let test_warm_table_parity () =
  let build man =
    let v = Array.init 8 (Bdd.var man) in
    let f = ref v.(0) in
    for i = 1 to 7 do
      f := Bdd.bxor man !f (Bdd.band man v.(i) v.(i - 1))
    done;
    !f
  in
  let a = Bdd.create () in
  let ha = build a in
  let b = Bdd.create () in
  let hb = build b in
  Alcotest.(check bool) "same handle" true (Bdd.equal ha hb);
  Alcotest.(check int) "warm scope charges the cold count"
    (Bdd.node_count a) (Bdd.node_count b)

(* sub_scope charges the parent cumulatively; adopt replays one scope's
   charges into another. *)
let test_sub_scope_and_adopt () =
  let parent = Bdd.create () in
  let before = Bdd.node_count parent in
  let child = Bdd.sub_scope parent in
  let v = Array.init 6 (Bdd.var child) in
  let f = Array.fold_left (Bdd.band child) Bdd.btrue v in
  ignore f;
  let charged = Bdd.node_count child - 2 (* terminals *) in
  Alcotest.(check bool) "child consed something" true (charged > 0);
  Alcotest.(check int) "parent charged cumulatively"
    (before + charged) (Bdd.node_count parent);
  (* an unrelated scope adopting the child inherits exactly its charges *)
  let other = Bdd.create () in
  Bdd.adopt other child;
  Alcotest.(check int) "adopt replays the charge"
    (Bdd.node_count child) (Bdd.node_count other)

(* Two domains hammer the shared table concurrently with overlapping node
   families — enough distinct nodes to force stripe rehashes while both
   domains are inserting.  Hash-consing must stay canonical: both domains
   end up with identical handle arrays, and the run must have grown at
   least one stripe. *)
let test_two_domain_stress () =
  let build seed =
    let man = Bdd.create () in
    let nvars = 20 in
    let v = Array.init nvars (Bdd.var man) in
    let f = ref v.(seed mod nvars) in
    for i = 0 to 400 do
      let a = v.((i + seed) mod nvars)
      and b = v.((i * 7 + seed) mod nvars) in
      f := Bdd.bxor man !f (Bdd.band man a (Bdd.bor man b !f))
    done;
    (!f :> int)
  in
  let work () = Array.init 24 build in
  let d1 = Domain.spawn work and d2 = Domain.spawn work in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.(check (array int)) "identical handles across domains" r1 r2;
  let s = Bdd.stats () in
  Alcotest.(check bool) "stripes rehashed under load" true
    (s.Bdd.stripe_grows > 0);
  Alcotest.(check bool) "single shared table" true
    (s.Bdd.shared_nodes > 0)

(* The eqcheck cone memo keeps the previous boundary check's post-side BDDs
   alive on the shared table and reuses them as the next check's pre side.
   On a real flow it must fire at least once and must not change verdicts. *)
let test_eqcheck_memo_reuse () =
  Obs.Metrics.enable ();
  let reuse = Obs.Metrics.counter "eqcheck.bdd.reuse" in
  let before = Obs.Metrics.counter_value reuse in
  let rows =
    Report.Table.run_suite ~verify:false ~eqcheck_each:true ~names:[ "s27" ] ()
  in
  let proved, refuted, _unknown =
    Eqcheck.counts (Report.Table.eqcheck_records rows)
  in
  Alcotest.(check bool) "memo reused at least once" true
    (Obs.Metrics.counter_value reuse - before >= 1);
  Alcotest.(check bool) "verdicts proved" true (proved > 0);
  Alcotest.(check int) "no refuted verdicts" 0 refuted

(* Scope accounting makes the table invisible in the output: the
   --eqcheck-each table, summary and verdict tallies on real flows are
   byte-identical whether every scope shares the process-wide table (the
   default) or builds a private one. *)
let test_eqcheck_each_private_tables () =
  let output () =
    let rows =
      Report.Table.run_suite ~eqcheck_each:true ~names:[ "s27"; "s208" ] ()
    in
    Report.Table.render rows ^ Report.Table.summary rows
    ^ Report.Table.eqcheck_summary rows
  in
  let shared = output () in
  let saved = Bdd.default_mode () in
  let private_ =
    Fun.protect
      ~finally:(fun () -> Bdd.set_default_mode saved)
      (fun () ->
        Bdd.set_default_mode `Private;
        output ())
  in
  Alcotest.(check string) "private tables = shared table" shared private_

let () =
  Alcotest.run "bdd_shared"
    [ ("differential",
       [ QCheck_alcotest.to_alcotest prop_shared_matches_private ]);
      ("scopes",
       [ Alcotest.test_case "warm-table parity" `Quick test_warm_table_parity;
         Alcotest.test_case "sub_scope and adopt" `Quick
           test_sub_scope_and_adopt ]);
      ("parallel",
       [ Alcotest.test_case "two-domain stress" `Quick test_two_domain_stress ]);
      ("eqcheck-memo",
       [ Alcotest.test_case "memo reuse on s27" `Quick test_eqcheck_memo_reuse;
         Alcotest.test_case "private tables, same output" `Quick
           test_eqcheck_each_private_tables ])
    ]
