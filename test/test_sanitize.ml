(* Sanitizer (dynamic head) and lint (static head).

   The mutation tests seed one concurrency-protocol violation each — a
   dropped publication fence, an inverted lock order, an unstamped DLS
   cache entry, a double-claimed / foreign-completed future — and assert
   that exactly the intended rule id fires.  The qcheck property drives
   the checker with thousands of random *legal* event interleavings and
   asserts it never reports (no false positives).  The integration test
   runs real scheduler + shared-BDD work under the sanitizer.  The lint
   tests exercise the rule engine on synthetic sources, including the
   waiver contract (trailing, standalone, unjustified, unknown, stale). *)

module S = Sanitize
module P = Core.Parallel

(* Each test runs with the sanitizer armed and leaves it disarmed and
   clean, so test order never matters. *)
let sanitized f =
  S.reset ();
  S.enable ();
  Fun.protect
    ~finally:(fun () ->
      S.disable ();
      S.reset ())
    f

let rule_ids () = List.map (fun f -> f.S.rule_id) (S.findings ())

let check_rules msg expected =
  Alcotest.(check (list string)) msg expected (rule_ids ())

(* --- mutation: dropped publication fence -------------------------------------- *)

let test_dropped_fence () =
  sanitized (fun () ->
      (* legal protocol first: no findings *)
      S.Pub.wrote ~table:901 ~id:7;
      S.Pub.fenced ~table:901 ~id:7;
      S.Pub.published ~table:901 ~id:7;
      S.Pub.read ~table:901 ~id:7;
      check_rules "legal publication is clean" [];
      (* mutation: skip the fence *)
      S.Pub.wrote ~table:901 ~id:8;
      S.Pub.published ~table:901 ~id:8;
      check_rules "dropped fence at publish" [ "pub/unfenced-publish" ];
      (* a reader trusting that id is the observable damage *)
      S.Pub.read ~table:901 ~id:8;
      check_rules "dropped fence at read"
        [ "pub/unfenced-publish"; "pub/unfenced-read" ])

let test_double_write () =
  sanitized (fun () ->
      S.Pub.wrote ~table:902 ~id:3;
      S.Pub.wrote ~table:902 ~id:3;
      check_rules "second field write" [ "pub/double-write" ])

let test_pub_unseen_ids_exempt () =
  sanitized (fun () ->
      (* ids never seen by [wrote] model nodes consed before enabling:
         publishing or reading them must not report *)
      S.Pub.published ~table:903 ~id:11;
      S.Pub.read ~table:903 ~id:11;
      S.Pub.read ~table:903 ~id:4096 (* beyond any store growth *);
      check_rules "pre-enable ids are exempt" [])

(* --- mutation: inverted lock order --------------------------------------------- *)

let test_lock_cycle_single_domain () =
  sanitized (fun () ->
      let a = S.Lock.create ~order:1 ~name:"test.a" in
      let b = S.Lock.create ~order:2 ~name:"test.b" in
      (* consistent nesting a -> b: legal *)
      S.Lock.lock a;
      S.Lock.lock b;
      S.Lock.unlock b;
      S.Lock.unlock a;
      check_rules "consistent order is clean" [];
      (* mutation: nest b -> a, closing the cycle *)
      S.Lock.lock b;
      S.Lock.lock a;
      S.Lock.unlock a;
      S.Lock.unlock b;
      check_rules "inverted order" [ "lock/cycle" ];
      match S.findings () with
      | [ f ] ->
        Alcotest.(check (list string))
          "cycle names both locks" [ "test.a"; "test.b" ] f.S.sites;
        Alcotest.(check bool)
          "message carries acquisition backtraces" true
          (String.length f.S.message > 0)
      | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs))

let test_lock_cycle_across_domains () =
  sanitized (fun () ->
      let a = S.Lock.create ~order:1 ~name:"dom.a" in
      let b = S.Lock.create ~order:2 ~name:"dom.b" in
      (* domain 1 nests a -> b and fully releases before domain 0 runs, so
         the schedule itself cannot deadlock — only the *order* is bad *)
      Domain.join
        (Domain.spawn (fun () ->
             S.Lock.lock a;
             S.Lock.lock b;
             S.Lock.unlock b;
             S.Lock.unlock a));
      S.Lock.lock b;
      S.Lock.lock a;
      S.Lock.unlock a;
      S.Lock.unlock b;
      check_rules "cross-domain inverted order" [ "lock/cycle" ])

let test_try_lock_participates () =
  sanitized (fun () ->
      let a = S.Lock.create ~order:1 ~name:"try.a" in
      let b = S.Lock.create ~order:2 ~name:"try.b" in
      S.Lock.lock a;
      Alcotest.(check bool) "try_lock succeeds" true (S.Lock.try_lock b);
      S.Lock.unlock b;
      S.Lock.unlock a;
      Alcotest.(check bool) "try_lock succeeds" true (S.Lock.try_lock b);
      S.Lock.lock a;
      S.Lock.unlock a;
      S.Lock.unlock b;
      check_rules "try_lock edges close the cycle too" [ "lock/cycle" ])

(* --- mutation: future claim discipline ----------------------------------------- *)

let test_future_double_claim () =
  sanitized (fun () ->
      let f1 = S.Future.fresh () in
      S.Future.claimed_by ~fut:f1 ~domain:1;
      S.Future.completed_by ~fut:f1 ~domain:1;
      check_rules "single claim + own completion is clean" [];
      let f2 = S.Future.fresh () in
      S.Future.claimed_by ~fut:f2 ~domain:1;
      S.Future.claimed_by ~fut:f2 ~domain:2;
      check_rules "second Pending->Running claim" [ "future/double-claim" ])

let test_future_foreign_done () =
  sanitized (fun () ->
      let f1 = S.Future.fresh () in
      S.Future.claimed_by ~fut:f1 ~domain:1;
      S.Future.completed_by ~fut:f1 ~domain:2;
      check_rules "completion by non-claimant" [ "future/foreign-done" ];
      S.reset ();
      let f2 = S.Future.fresh () in
      S.Future.completed_by ~fut:f2 ~domain:1;
      check_rules "completion without any claim" [ "future/foreign-done" ])

(* --- mutation: unstamped DLS cache --------------------------------------------- *)

let test_dls_cross_scope () =
  sanitized (fun () ->
      S.Dls.cache_hit ~entry_uid:41 ~scope_uid:41;
      check_rules "matching stamp is clean" [];
      (* mutation: an entry stamped by scope 41 serving scope 42 models a
         cache that skipped the scope-stamp check *)
      S.Dls.cache_hit ~entry_uid:41 ~scope_uid:42;
      check_rules "unstamped cache hit" [ "dls/cross-scope-hit" ])

(* --- reporting ------------------------------------------------------------------ *)

let test_findings_deduped_and_rendered () =
  sanitized (fun () ->
      for _ = 1 to 100 do
        S.Dls.cache_hit ~entry_uid:1 ~scope_uid:2
      done;
      Alcotest.(check int)
        "hot loop reports once" 1
        (List.length (S.findings ()));
      let txt = S.render (S.findings ()) in
      Alcotest.(check bool)
        "text render carries rule id" true
        (String.length txt > 0
        &&
        let re = "error[dls/cross-scope-hit]" in
        String.length txt >= String.length re
        && String.sub txt 0 (String.length re) = re);
      let js = S.render_json (S.findings ()) in
      Alcotest.(check bool)
        "json render is an array" true
        (js.[0] = '[' && js.[String.length js - 1] = ']'))

let test_render_json_empty () =
  sanitized (fun () ->
      Alcotest.(check bool) "empty array" true
        (Obs.Json.parse (S.render_json []) = Ok (Obs.Json.List [])))

let test_disabled_is_silent () =
  S.reset ();
  S.disable ();
  S.Pub.wrote ~table:904 ~id:1;
  S.Pub.published ~table:904 ~id:1;
  S.Dls.cache_hit ~entry_uid:1 ~scope_uid:2;
  Alcotest.(check int) "no events recorded when disabled" 0
    (List.length (S.findings ()))

(* --- qcheck: random legal interleavings never report ---------------------------- *)

(* A legal history over [n] nodes, [k] locks and [m] futures:
   - per node, wrote -> fenced -> published -> read+ in order;
   - locks always nested in ascending creation order;
   - each future claimed then completed by one domain.
   Events of different objects interleave arbitrarily (driven by the
   qcheck-generated pick sequence): the checker must stay silent. *)
let run_legal_history ~table picks =
  let n_nodes = 6 and n_locks = 3 and n_futs = 4 in
  let locks =
    Array.init n_locks (fun i ->
        S.Lock.create ~order:i ~name:(Printf.sprintf "q.%d.%d" table i))
  in
  let futs = Array.init n_futs (fun _ -> S.Future.fresh ()) in
  (* remaining per-object scripts, each consumed front-first *)
  let node_script id =
    [ (fun () -> S.Pub.wrote ~table ~id);
      (fun () -> S.Pub.fenced ~table ~id);
      (fun () -> S.Pub.published ~table ~id);
      (fun () -> S.Pub.read ~table ~id);
      (fun () -> S.Pub.read ~table ~id) ]
  in
  let lock_script i =
    (* nest everything from i upward, in ascending order; acquire and
       release in one event so interleaved scripts never re-lock a mutex
       this same thread already holds *)
    let ups = Array.to_list (Array.sub locks i (n_locks - i)) in
    [ (fun () ->
        List.iter S.Lock.lock ups;
        List.iter S.Lock.unlock (List.rev ups)) ]
  in
  let fut_script i =
    [ (fun () -> S.Future.claimed_by ~fut:futs.(i) ~domain:(i mod 3));
      (fun () -> S.Future.completed_by ~fut:futs.(i) ~domain:(i mod 3)) ]
  in
  let scripts =
    Array.of_list
      (List.init n_nodes (fun i -> ref (node_script (i + 2)))
      @ List.init n_locks (fun i -> ref (lock_script i))
      @ List.init n_futs (fun i -> ref (fut_script i)))
  in
  let total = Array.fold_left (fun a s -> a + List.length !s) 0 scripts in
  let picks = ref picks in
  let next_pick () =
    match !picks with
    | [] -> 0
    | p :: rest ->
      picks := rest;
      p
  in
  for _ = 1 to total do
    (* pick the next non-empty script round-robin from a random start *)
    let start = abs (next_pick ()) mod Array.length scripts in
    let rec go k =
      if k < Array.length scripts then begin
        let s = scripts.((start + k) mod Array.length scripts) in
        match !s with
        | [] -> go (k + 1)
        | ev :: rest ->
          s := rest;
          ev ()
      end
    in
    go 0
  done

let qcheck_no_false_positives =
  QCheck.Test.make ~count:200 ~name:"legal interleavings are clean"
    QCheck.(list_of_size (Gen.int_range 20 60) small_int)
    (fun picks ->
      S.reset ();
      S.enable ();
      Fun.protect
        ~finally:(fun () ->
          S.disable ();
          S.reset ())
        (fun () ->
          (* distinct table uid per run so node protocol states from
             earlier iterations cannot bleed in *)
          run_legal_history ~table:(1000 + Hashtbl.hash picks mod 1000) picks;
          S.findings () = []))

(* --- integration: real scheduler + shared BDD work under the sanitizer ---------- *)

let test_real_flow_clean () =
  sanitized (fun () ->
      let results =
        P.map ~jobs:4
          (fun seed ->
            let man = Bdd.create ~mode:`Shared () in
            let x = Bdd.var man (seed mod 5)
            and y = Bdd.var man ((seed + 1) mod 5)
            and z = Bdd.var man ((seed + 2) mod 5) in
            let f = Bdd.bor man (Bdd.band man x y) (Bdd.bxor man y z) in
            let g = Bdd.exists man [ seed mod 5 ] f in
            let h = Bdd.ite man f g (Bdd.bnot man z) in
            (* re-run the same ops so ITE / exists caches actually hit *)
            let g' = Bdd.exists man [ seed mod 5 ] f in
            assert (Bdd.equal g g');
            Bdd.node_count man + if Bdd.is_false h then 1 else 0)
          (Array.init 32 (fun i -> i))
      in
      Alcotest.(check int) "all rows ran" 32 (Array.length results);
      check_rules "instrumented sched+bdd run is clean" [])

(* --- lint: rule engine ----------------------------------------------------------- *)

let scan ?waivers src = fst (Sanlint.scan_file ?waivers ~path:"synt/x.ml" src)

let scan_rules ?waivers src =
  List.map (fun f -> f.Sanitize.rule_id) (scan ?waivers src)

let test_lint_rules_fire () =
  let cases =
    [ ("let () = Hashtbl.iter f t\n", [ "nondet/hashtbl-order" ]);
      ("let t0 = Unix.gettimeofday () in\n", [ "nondet/wall-clock" ]);
      ("let x = Random.int 5\n", [ "nondet/ambient-random" ]);
      ("let d = (Domain.self () :> int)\n", [ "nondet/domain-id" ]);
      ("let k = Obj.repr v\n", [ "mm/physical-eq-key" ]);
      ( "let v = Atomic.get t.published in\n",
        [ "mm/naked-atomic-get" ] ) ]
  in
  List.iter
    (fun (src, expected) ->
      Alcotest.(check (list string)) src expected (scan_rules src))
    cases

let test_lint_exemptions () =
  let clean =
    [ (* sorted on the same line: normalized *)
      "let xs = List.sort compare (Hashtbl.fold f t [])\n";
      (* seeded random state is deterministic *)
      "let st = Random.State.make [| 7 |]\n";
      (* allocation alone is no longer a rule: the typed analyzer's
         typed/module-escape judges real reachability instead *)
      "let cache = Hashtbl.create 64\n";
      "let lock = Mutex.create ()\n";
      "let m_x = Obs.Metrics.counter \"x\"\n";
      "let _ = Hashtbl.length t\n" ]
  in
  List.iter
    (fun src -> Alcotest.(check (list string)) src [] (scan_rules src))
    clean

let test_lint_strip () =
  (* patterns inside comments, strings and chars never fire *)
  let clean =
    [ "(* Unix.gettimeofday is mentioned here *)\nlet x = 1\n";
      "let s = \"Hashtbl.iter inside a string\"\n";
      "let c = '\"' and y = Random.State.make_self_init\n";
      "(* outer (* Obj.magic nested *) still comment *)\nlet x = 1\n";
      "let q = {|Domain.self in a quoted string|}\n";
      (* regression: delimited quoted strings inside comments balance like
         the real lexer: a close-comment token inside the quoted part does
         not end the comment *)
      "(* {x| *) Obj.magic |x} still a comment *)\nlet x = 1\n";
      "(* {| *) Obj.magic |} still a comment *)\nlet x = 1\n";
      (* regression: delimited quoted strings in code *)
      "let q = {ext|Obj.magic \" unclosed|ext}\nlet y = 2\n";
      (* regression: escaped quotes keep the string open *)
      "let s = \"a \\\" Hashtbl.iter f t \\\" b\"\nlet y = 2\n" ]
  in
  List.iter
    (fun src -> Alcotest.(check (list string)) src [] (scan_rules src))
    clean;
  (* a comment opened on one line hides code-looking text on the next *)
  Alcotest.(check (list string))
    "multiline comment" []
    (scan_rules "(* comment spanning\n   Hashtbl.iter lines *)\nlet x = 1\n");
  (* after a comment-embedded quoted string closes, code fires again *)
  Alcotest.(check (list string))
    "resync after comment with quoted string"
    [ "nondet/hashtbl-order" ]
    (scan_rules "(* {| *) |} *)\nlet () = Hashtbl.iter f t\n");
  (* regression: a char-literal quote inside a comment must not open a
     string and swallow the code after the comment (the real lexer
     balances char literals in comments too) *)
  Alcotest.(check (list string))
    "char literal quote in comment"
    [ "nondet/hashtbl-order" ]
    (scan_rules "(* '\"' *)\nlet () = Hashtbl.iter f t\n");
  Alcotest.(check (list string))
    "escaped char literal quote in comment"
    [ "nondet/hashtbl-order" ]
    (scan_rules "(* '\\\"' *)\nlet () = Hashtbl.iter f t\n")

let test_lint_waivers_in_source () =
  let trailing =
    "let t = Hashtbl.iter f x (* lint-waive: nondet/hashtbl-order — \
     commutative accumulation, honest *)\n"
  in
  Alcotest.(check (list string)) "trailing waiver" [] (scan_rules trailing);
  let standalone =
    "(* lint-waive: nondet/hashtbl-order — the justification wraps over \
     this\n   second comment line before the site below. *)\nlet () = \
     Hashtbl.iter f x\n"
  in
  Alcotest.(check (list string))
    "standalone waiver reaches past its comment" [] (scan_rules standalone);
  let unjustified = "(* lint-waive: nondet/hashtbl-order *)\nlet () = Hashtbl.iter f x\n" in
  Alcotest.(check bool)
    "waiver without justification is a finding" true
    (List.mem "lint/waiver-unjustified" (scan_rules unjustified));
  let unknown =
    "(* lint-waive: nondet/no-such-rule — plausible words but a bogus id *)\n\
     let x = 1\n"
  in
  Alcotest.(check (list string))
    "unknown rule id" [ "lint/waiver-unknown-rule" ] (scan_rules unknown);
  let stale =
    "(* lint-waive: nondet/hashtbl-order — nothing below still needs this *)\n\
     let x = 1\n"
  in
  Alcotest.(check (list string))
    "stale in-source waiver" [ "lint/waiver-unused" ] (scan_rules stale)

let test_lint_file_waivers () =
  let waivers, probs =
    Sanlint.parse_waivers
      "# comment\n\
       nondet/hashtbl-order synt/ grouped results are order-canonical downstream\n\
       short x y\n"
  in
  Alcotest.(check int) "one parsed waiver" 1 (List.length waivers);
  Alcotest.(check int) "one malformed line reported" 1 (List.length probs);
  let src = "let () = Hashtbl.iter f x\n" in
  let findings, suppressed = Sanlint.scan_file ~waivers ~path:"synt/x.ml" src in
  Alcotest.(check int) "file waiver suppresses" 0 (List.length findings);
  Alcotest.(check int) "suppression recorded" 1 (List.length suppressed);
  Alcotest.(check int) "waiver counted as used" 1
    (List.length (Sanlint.used_waivers ~waivers suppressed));
  (* same waiver against a file it does not match: unused *)
  let _, untouched = Sanlint.scan_file ~waivers ~path:"other/y.ml" "let x = 1\n" in
  Alcotest.(check int) "no suppression elsewhere" 0 (List.length untouched)

(* --- waiver hygiene audit --------------------------------------------------------- *)

(* The repo's LINT_WAIVERS must parse clean and name only rules some lint
   head can still evaluate — an entry for a retired rule is dead weight.
   Staleness proper (an entry that suppresses nothing) is enforced by the
   two `dune runtest` lint gates, which scan the real tree. *)
let test_lint_waivers_audit () =
  let ic = open_in "../LINT_WAIVERS" in
  let n = in_channel_length ic in
  let body = really_input_string ic n in
  close_in ic;
  let waivers, probs = Sanlint.parse_waivers body in
  Alcotest.(check (list string))
    "LINT_WAIVERS parses without findings" []
    (List.map (fun f -> f.Sanitize.rule_id) probs);
  let known = Sanlint.rule_ids @ Typedlint.rule_ids in
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "rule %s is evaluable by a lint head" w.Sanlint.w_rule)
        true
        (List.mem w.Sanlint.w_rule known);
      Alcotest.(check bool)
        (Printf.sprintf "justification for %s is substantial" w.Sanlint.w_rule)
        true
        (String.length w.Sanlint.w_reason >= Lint_common.min_reason_len))
    waivers

let () =
  Alcotest.run "sanitize"
    [ ( "mutations",
        [ Alcotest.test_case "dropped fence" `Quick test_dropped_fence;
          Alcotest.test_case "double write" `Quick test_double_write;
          Alcotest.test_case "unseen ids exempt" `Quick
            test_pub_unseen_ids_exempt;
          Alcotest.test_case "lock cycle (one domain)" `Quick
            test_lock_cycle_single_domain;
          Alcotest.test_case "lock cycle (two domains)" `Quick
            test_lock_cycle_across_domains;
          Alcotest.test_case "try_lock edges" `Quick test_try_lock_participates;
          Alcotest.test_case "future double claim" `Quick
            test_future_double_claim;
          Alcotest.test_case "future foreign done" `Quick
            test_future_foreign_done;
          Alcotest.test_case "dls cross scope" `Quick test_dls_cross_scope ] );
      ( "reporting",
        [ Alcotest.test_case "dedup + render" `Quick
            test_findings_deduped_and_rendered;
          Alcotest.test_case "empty json" `Quick test_render_json_empty;
          Alcotest.test_case "disabled is silent" `Quick
            test_disabled_is_silent ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest qcheck_no_false_positives ] );
      ( "integration",
        [ Alcotest.test_case "sched+bdd under sanitizer" `Quick
            test_real_flow_clean ] );
      ( "lint",
        [ Alcotest.test_case "rules fire" `Quick test_lint_rules_fire;
          Alcotest.test_case "exemptions" `Quick test_lint_exemptions;
          Alcotest.test_case "stripping" `Quick test_lint_strip;
          Alcotest.test_case "in-source waivers" `Quick
            test_lint_waivers_in_source;
          Alcotest.test_case "file waivers" `Quick test_lint_file_waivers;
          Alcotest.test_case "repo waiver audit" `Quick
            test_lint_waivers_audit ] )
    ]
