(* Typed-AST analyzer (the lint).

   Each mutation test compiles a small self-contained source to a .cmt
   (ocamlc -bin-annot in a temp dir) with a stub [Core.Parallel] whose
   paths match the real scheduler re-export, seeds exactly one isolation
   violation — a forked thunk capturing a naked ref, a mutable field
   accessed under the wrong (or no) lock, a Condition.wait inside a task
   body, an entry-reachable module-level Hashtbl — and asserts the
   intended rule id fires.  Control twins route the same state through
   Atomic / Mutex.protect / a consistent lock and must scan clean.  The
   qcheck property generates random *pure* closures, forks them at jobs
   1/2/4, and asserts the analyzer never reports (no false positives).
   The path-rule tests compile one firing mutant per nondeterminism and
   memory-model rule, spellings only path resolution can see (opens, a
   module alias) and clean controls.  Waiver tests cover the whole
   justified-waiver discipline: trailing and standalone suppression,
   file-level LINT_WAIVERS entries, markers inside string literals,
   unjustified, unknown-rule and stale markers; the stripper's regression
   inputs are checked on its output and on what each marker covers. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* compile [src] as mutant.ml in a fresh temp dir; return (dir, cmt path) *)
let compile src =
  let dir = Filename.temp_dir "typedlint_test" "" in
  let ml = Filename.concat dir "mutant.ml" in
  let oc = open_out ml in
  output_string oc src;
  close_out oc;
  let rc =
    Sys.command
      (Printf.sprintf
         "cd %s && ocamlc -c -bin-annot -w -a -I +unix mutant.ml 2>mutant.err"
         (Filename.quote dir))
  in
  if rc <> 0 then
    Alcotest.failf "mutant failed to compile (rc %d):\n%s\n--- source ---\n%s"
      rc
      (read_file (Filename.concat dir "mutant.err"))
      src;
  (dir, Filename.concat dir "mutant.cmt")

let scan ?entry_points ?waivers src =
  let dir, cmt = compile src in
  let config =
    { Typedlint.default_config with
      source_root = dir;
      entry_points =
        (match entry_points with
         | Some eps -> eps
         | None -> Typedlint.default_config.entry_points) }
  in
  Typedlint.scan_cmt_files ~config ?waivers [ cmt ]

let rules r =
  List.sort_uniq compare
    (List.map (fun f -> f.Sanitize.rule_id) r.Typedlint.findings)

let check_rules msg expected r =
  Alcotest.(check (list string)) msg expected (rules r)

(* a fork/join stub whose dotted paths match the real Core.Parallel
   re-export, so mutants stay hermetic from the repo libraries *)
let stub =
  "module Core = struct\n\
  \  module Parallel = struct\n\
  \    let fork f = f\n\
  \    let join t = t ()\n\
  \    let map f a = Array.map f a\n\
  \    let map_list f l = List.map f l\n\
  \    let run ~jobs:_ f = f ()\n\
  \  end\n\
   end\n"

(* --- rule 1: capture / escape ------------------------------------------------------ *)

let test_capture_naked_ref () =
  let r =
    scan
      (stub
     ^ "let leak () =\n\
       \  let counter = ref 0 in\n\
       \  let t = Core.Parallel.fork (fun () -> incr counter) in\n\
       \  Core.Parallel.join t;\n\
       \  !counter\n")
  in
  check_rules "captured naked ref is caught" [ "typed/capture-escape" ] r;
  Alcotest.(check bool)
    "fired tally records the rule" true
    (List.mem_assoc "typed/capture-escape" r.Typedlint.rules_fired)

let test_capture_hashtbl_in_map () =
  let r =
    scan
      (stub
     ^ "let tally xs =\n\
       \  let seen = Hashtbl.create 16 in\n\
       \  Core.Parallel.map_list (fun x -> Hashtbl.replace seen x (); x) xs\n")
  in
  check_rules "captured Hashtbl in map_list thunk"
    [ "typed/capture-escape" ] r

let test_capture_field_write () =
  let r =
    scan
      (stub
     ^ "type cell = { mutable n : int }\n\
        let bump c =\n\
       \  let t = Core.Parallel.fork (fun () -> c.n <- c.n + 1) in\n\
       \  Core.Parallel.join t\n")
  in
  Alcotest.(check bool)
    "mutable field write of captured value is caught" true
    (List.mem "typed/capture-escape" (rules r))

let test_capture_controls_clean () =
  (* pure closure *)
  check_rules "pure closure" []
    (scan
       (stub
      ^ "let go () =\n\
        \  let t = Core.Parallel.fork (fun () -> 1 + 2) in\n\
        \  Core.Parallel.join t\n"));
  (* Atomic-routed counter *)
  check_rules "Atomic counter" []
    (scan
       (stub
      ^ "let go () =\n\
        \  let c = Atomic.make 0 in\n\
        \  let t = Core.Parallel.fork (fun () -> Atomic.incr c) in\n\
        \  Core.Parallel.join t;\n\
        \  Atomic.get c\n"));
  (* Mutex.protect-guarded section inside the thunk *)
  check_rules "Mutex.protect-guarded capture" []
    (scan
       (stub
      ^ "let go () =\n\
        \  let m = Mutex.create () in\n\
        \  let acc = ref 0 in\n\
        \  let t =\n\
        \    Core.Parallel.fork (fun () -> Mutex.protect m (fun () -> incr \
         acc))\n\
        \  in\n\
        \  Core.Parallel.join t\n"))

(* --- rule 2: lock discipline ------------------------------------------------------- *)

let test_lock_discipline_empty_set () =
  let r =
    scan
      (stub
     ^ "type s = { lock : Mutex.t; mutable v : int }\n\
        let bump s = Mutex.lock s.lock; s.v <- s.v + 1; Mutex.unlock s.lock\n\
        let sneak s = s.v <- s.v + 1\n")
  in
  check_rules "unlocked access to a guarded field"
    [ "typed/lock-discipline" ] r;
  Alcotest.(check bool)
    "the unlocked site is the primary site" true
    (match r.Typedlint.findings with
     | f :: _ ->
       List.exists
         (fun site -> site = "mutant.ml:12")
         f.Sanitize.sites
     | [] -> false)

let test_lock_discipline_wrong_lock () =
  let r =
    scan
      (stub
     ^ "type s = { l1 : Mutex.t; l2 : Mutex.t; mutable v : int }\n\
        let a s = Mutex.lock s.l1; s.v <- s.v + 1; Mutex.unlock s.l1\n\
        let b s = Mutex.lock s.l2; s.v <- s.v + 1; Mutex.unlock s.l2\n")
  in
  check_rules "disjoint lock sets on one field"
    [ "typed/lock-discipline" ] r

let test_lock_discipline_consistent_clean () =
  check_rules "consistently guarded field" []
    (scan
       (stub
      ^ "type s = { lock : Mutex.t; mutable v : int }\n\
         let bump s = Mutex.lock s.lock; s.v <- s.v + 1; Mutex.unlock s.lock\n\
         let read s = Mutex.protect s.lock (fun () -> s.v)\n"));
  (* never-locked fields are not the analyzer's business (no seed) *)
  check_rules "unseeded field stays quiet" []
    (scan
       (stub
      ^ "type s = { mutable v : int }\n\
         let bump s = s.v <- s.v + 1\n"))

(* --- rule 3: module-level escape --------------------------------------------------- *)

let test_module_escape_global_hashtbl () =
  let src =
    stub
    ^ "let cache : (int, int) Hashtbl.t = Hashtbl.create 16\n\
       let main () = Hashtbl.replace cache 1 2\n"
  in
  let r = scan ~entry_points:[ "Mutant.main" ] src in
  check_rules "entry-reachable global Hashtbl" [ "typed/module-escape" ] r;
  Alcotest.(check bool)
    "finding names the global" true
    (match r.Typedlint.findings with
     | f :: _ -> String.length f.Sanitize.message > 0
     | [] -> false);
  (* same unit, no entry point: unreachable state is not reported *)
  check_rules "unreachable unit stays quiet" [] (scan src)

let test_module_escape_guarded_clean () =
  check_rules "lock-guarded global is sanctioned" []
    (scan ~entry_points:[ "Mutant.main" ]
       (stub
      ^ "let gm = Mutex.create ()\n\
         let cache : (int, int) Hashtbl.t = Hashtbl.create 16\n\
         let main () =\n\
        \  Mutex.lock gm;\n\
        \  Hashtbl.replace cache 1 2;\n\
        \  Mutex.unlock gm\n"));
  check_rules "Atomic global is sanctioned" []
    (scan ~entry_points:[ "Mutant.main" ]
       (stub
      ^ "let total = Atomic.make 0\n\
         let main () = Atomic.incr total\n"));
  check_rules "DLS-keyed state is sanctioned" []
    (scan ~entry_points:[ "Mutant.main" ]
       (stub
      ^ "let buf = Domain.DLS.new_key (fun () -> Buffer.create 64)\n\
         let main () = Buffer.add_char (Domain.DLS.get buf) 'x'\n"))

(* --- rule 4: blocking call in a task body ------------------------------------------ *)

let test_blocking_condition_wait () =
  let r =
    scan
      (stub
     ^ "let m = Mutex.create ()\n\
        let cv = Condition.create ()\n\
        let go () =\n\
       \  let t =\n\
       \    Core.Parallel.fork (fun () ->\n\
       \        Mutex.lock m;\n\
       \        Condition.wait cv m;\n\
       \        Mutex.unlock m)\n\
       \  in\n\
       \  Core.Parallel.join t\n")
  in
  Alcotest.(check bool)
    "Condition.wait in a task is caught" true
    (List.mem "typed/blocking-in-task" (rules r));
  Alcotest.(check bool)
    "the message names the blocking call" true
    (List.exists
       (fun f ->
         f.Sanitize.rule_id = "typed/blocking-in-task"
         && String.length f.Sanitize.message > 0)
       r.Typedlint.findings)

let test_blocking_through_helper () =
  let r =
    scan
      (stub
     ^ "let helper () = ignore (read_line ())\n\
        let go () =\n\
       \  let t = Core.Parallel.fork (fun () -> helper ()) in\n\
       \  Core.Parallel.join t\n")
  in
  check_rules "blocking reached through a same-unit helper"
    [ "typed/blocking-in-task" ] r

let test_blocking_outside_task_clean () =
  (* blocking calls outside fork bodies are legitimate *)
  check_rules "blocking outside tasks is fine" []
    (scan
       (stub
      ^ "let m = Mutex.create ()\n\
         let go () = Mutex.lock m; Mutex.unlock m\n"))

(* --- waiver discipline -------------------------------------------------------------- *)

let capture_mutant_with mark =
  stub
  ^ "let leak () =\n\
    \  let counter = ref 0 in\n\
    \  let t = Core.Parallel.fork (fun () -> incr counter" ^ mark
  ^ ") in\n\
    \  Core.Parallel.join t\n"

let test_waiver_trailing_honored () =
  let r =
    scan
      (capture_mutant_with
         " (* lint-waive: typed/capture-escape -- test fixture: counter \
          is joined before any read *)")
  in
  check_rules "trailing waiver suppresses" [] r;
  Alcotest.(check bool) "honored tally counts it" true
    (r.Typedlint.waivers_honored > 0)

let test_waiver_stale () =
  let r =
    scan
      (stub
     ^ "(* lint-waive: typed/capture-escape -- leftover justification \
        kept after the fix landed *)\n\
        let pure () = 1 + 2\n")
  in
  check_rules "stale typed waiver is itself a finding"
    [ "lint/waiver-unused" ] r

let test_waiver_file_level () =
  let waivers =
    [ { Lint_common.w_rule = "typed/capture-escape";
        w_path = "mutant.ml";
        w_reason = "fixture: suppressed at file scope for the test" } ]
  in
  let r = scan ~waivers (capture_mutant_with "") in
  check_rules "file-level waiver suppresses, and counts as used" [] r;
  Alcotest.(check bool) "honored tally counts it" true
    (r.Typedlint.waivers_honored > 0)

(* --- path rules: nondeterminism and memory-model ----------------------------------- *)

let scan_rules ?waivers src = rules (scan ?waivers src)

let test_lint_rules_fire () =
  let cases =
    [ ( "let f t = Hashtbl.iter (fun _ _ -> ()) t\n",
        [ "nondet/hashtbl-order" ] );
      ("let ks t = Hashtbl.to_seq_keys t\n", [ "nondet/hashtbl-order" ]);
      ("let t0 () = Unix.gettimeofday ()\n", [ "nondet/wall-clock" ]);
      ("let t0 () = Unix.time ()\n", [ "nondet/wall-clock" ]);
      ("let t0 () = Sys.time ()\n", [ "nondet/wall-clock" ]);
      ("let x () = Random.int 5\n", [ "nondet/ambient-random" ]);
      ("let x () = Stdlib.Random.(int 5)\n", [ "nondet/ambient-random" ]);
      ("let d () = (Domain.self () :> int)\n", [ "nondet/domain-id" ]);
      ("let k v = Obj.repr v\n", [ "mm/physical-eq-key" ]);
      ("let k v : int = Obj.magic v\n", [ "mm/physical-eq-key" ]);
      ( "type t = { published : int Atomic.t }\n\
         let v t = Atomic.get t.published\n",
        [ "mm/naked-atomic-get" ] ) ]
  in
  List.iter
    (fun (src, expected) ->
      Alcotest.(check (list string)) src expected (scan_rules src))
    cases

(* spellings a one-line token match cannot see: local and whole-module
   opens, a module alias, and an identifier that merely contains "sort" *)
let test_lint_aliasing_probes () =
  let cases =
    [ ("let t () = Unix.(gettimeofday ())\n", "nondet/wall-clock");
      ("open Unix\nlet t () = gettimeofday ()\n", "nondet/wall-clock");
      ( "module H = Hashtbl\n\
         let ks t = H.fold (fun k _ acc -> k :: acc) t []\n",
        "nondet/hashtbl-order" );
      ("let d () = Domain.(self ())\n", "nondet/domain-id");
      ( "let first_unsorted t = Hashtbl.fold (fun k _ acc -> k :: acc) t []\n",
        "nondet/hashtbl-order" ) ]
  in
  List.iter
    (fun (src, rule) ->
      Alcotest.(check (list string)) src [ rule ] (scan_rules src))
    cases

let test_lint_exemptions () =
  let clean =
    [ (* a fold whose value goes straight into a sort *)
      "let ks t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])\n";
      "let ks t = Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort compare\n";
      (* seeded random state is deterministic *)
      "let st () = Random.State.make [| 7 |]\n";
      "let n st = Random.State.int st 5\n";
      (* allocation alone is not a finding: typed/module-escape judges
         real reachability instead *)
      "let cache : (int, int) Hashtbl.t = Hashtbl.create 64\n";
      "let lock = Mutex.create ()\n";
      "module Obs = struct\n\
      \  module Metrics = struct let counter _ = ref 0 end\n\
       end\n\
       let m_x = Obs.Metrics.counter \"x\"\n";
      "let n t = Hashtbl.length t\n";
      (* Atomic.get of a field that is not the publication fence *)
      "type t = { count : int Atomic.t }\nlet v t = Atomic.get t.count\n" ]
  in
  List.iter
    (fun src -> Alcotest.(check (list string)) src [] (scan_rules src))
    clean

(* --- source stripping and marker coverage ------------------------------------------ *)

(* the code-only text of [src], runs of blanks collapsed *)
let code_of src =
  List.map
    (fun l ->
      String.concat " "
        (List.filter (( <> ) "") (String.split_on_char ' ' l)))
    (Array.to_list (snd (Lint_common.strip_lines src)))

let covers_of src =
  let ws, _ =
    Lint_common.line_waivers ~known:Typedlint.rule_ids ~path:"x.ml" src
  in
  List.map (fun w -> w.Lint_common.lw_covers) ws

let test_lint_strip () =
  let cases =
    [ (* tokens inside comments, strings and chars never reach the code *)
      ("(* Unix.gettimeofday is mentioned here *)\nlet x = 1\n",
       [ ""; "let x = 1"; "" ]);
      ("let s = \"Hashtbl.iter inside a string\"\n", [ "let s ="; "" ]);
      ( "let c = '\"' and y = Random.State.make_self_init\n",
        [ "let c = and y = Random.State.make_self_init"; "" ] );
      ( "(* outer (* Obj.magic nested *) still comment *)\nlet x = 1\n",
        [ ""; "let x = 1"; "" ] );
      ("let q = {|Domain.self in a quoted string|}\n", [ "let q ="; "" ]);
      (* regression: delimited quoted strings inside comments balance like
         the real lexer: a close-comment token inside the quoted part does
         not end the comment *)
      ( "(* {x| *) Obj.magic |x} still a comment *)\nlet x = 1\n",
        [ ""; "let x = 1"; "" ] );
      ( "(* {| *) Obj.magic |} still a comment *)\nlet x = 1\n",
        [ ""; "let x = 1"; "" ] );
      (* regression: delimited quoted strings in code *)
      ( "let q = {ext|Obj.magic \" unclosed|ext}\nlet y = 2\n",
        [ "let q ="; "let y = 2"; "" ] );
      (* regression: escaped quotes keep the string open *)
      ( "let s = \"a \\\" Hashtbl.iter f t \\\" b\"\nlet y = 2\n",
        [ "let s ="; "let y = 2"; "" ] );
      (* a comment opened on one line hides code-looking text on the next *)
      ( "(* comment spanning\n   Hashtbl.iter lines *)\nlet x = 1\n",
        [ ""; ""; "let x = 1"; "" ] );
      (* after a comment-embedded quoted string closes, code resumes *)
      ( "(* {| *) |} *)\nlet () = Hashtbl.iter f t\n",
        [ ""; "let () = Hashtbl.iter f t"; "" ] );
      (* regression: a char-literal quote inside a comment must not open a
         string and swallow the code after the comment *)
      ( "(* '\"' *)\nlet () = Hashtbl.iter f t\n",
        [ ""; "let () = Hashtbl.iter f t"; "" ] );
      ( "(* '\\\"' *)\nlet () = Hashtbl.iter f t\n",
        [ ""; "let () = Hashtbl.iter f t"; "" ] ) ]
  in
  List.iter
    (fun (src, expected) ->
      Alcotest.(check (list string)) src expected (code_of src))
    cases;
  (* a marker counts only where the lexer is inside a comment *)
  let markers =
    [ ( "let t = f x (* lint-waive: nondet/hashtbl-order — commutative \
         accumulation, honest *)\n",
        [ [ 1 ] ] );
      ( "(* lint-waive: nondet/hashtbl-order — the justification wraps over \
         this\n   second comment line before the site below. *)\n\
         let () = f x\n",
        [ [ 1; 2; 3 ] ] );
      ( "let s = \"lint-waive: nondet/wall-clock — in a string, not a \
         marker\"\n",
        [] );
      ( "let q = {|lint-waive: nondet/wall-clock — in a quoted string|}\n",
        [] );
      ( "(* \"lint-waive: nondet/wall-clock — quoted inside prose\" *)\n\
         let x = 1\n",
        [] );
      ( "(* {| *) |} lint-waive: nondet/wall-clock — after a quoted string \
         closes *)\n\
         let x = 1\n",
        [ [ 1; 2 ] ] );
      ( "(* '\"' lint-waive: nondet/wall-clock — after a char literal quote \
         *)\n\
         let x = 1\n",
        [ [ 1; 2 ] ] );
      ( "let s = \"lint-waive: x\" (* lint-waive: nondet/wall-clock — the \
         real marker *)\n",
        [ [ 1 ] ] ) ]
  in
  List.iter
    (fun (src, expected) ->
      Alcotest.(check (list (list int))) src expected (covers_of src))
    markers

(* --- waivers of the path rules ----------------------------------------------------- *)

let hashtbl_site = "let f t = Hashtbl.iter (fun _ _ -> ()) t"

let test_lint_waivers_in_source () =
  check_rules "trailing waiver" []
    (scan
       (hashtbl_site
      ^ " (* lint-waive: nondet/hashtbl-order — commutative accumulation, \
         honest *)\n"));
  check_rules "standalone waiver reaches past its comment" []
    (scan
       ("(* lint-waive: nondet/hashtbl-order — the justification wraps over \
         this\n   second comment line before the site below. *)\n"
      ^ hashtbl_site ^ "\n"));
  check_rules "waiver without justification is a finding"
    [ "lint/waiver-unjustified"; "nondet/hashtbl-order" ]
    (scan
       ("(* lint-waive: nondet/hashtbl-order *)\n" ^ hashtbl_site ^ "\n"));
  check_rules "unknown rule id" [ "lint/waiver-unknown-rule" ]
    (scan
       "(* lint-waive: nondet/no-such-rule — plausible words but a bogus id \
        *)\n\
        let x = 1\n");
  check_rules "stale in-source waiver" [ "lint/waiver-unused" ]
    (scan
       "(* lint-waive: nondet/hashtbl-order — nothing below still needs \
        this *)\n\
        let x = 1\n")

(* a marker spelled inside a string literal is text, not a waiver *)
let test_lint_string_literal_marker () =
  check_rules "wall-clock finding survives" [ "nondet/wall-clock" ]
    (scan
       "let t () = ignore \"lint-waive: nondet/wall-clock — timing only\"; \
        Unix.gettimeofday ()\n")

(* the typed head runs the whole discipline: unjustified, unknown-rule and
   stale markers, each at its own line *)
let test_lint_waiver_discipline () =
  let r =
    scan
      "(* lint-waive: nondet/wall-clock *)\n\
       let a () = 1\n\
       (* lint-waive: nondet/no-such-rule — plausible words but a bogus id *)\n\
       let b () = 2\n\
       (* lint-waive: nondet/wall-clock — leftover after the clock read \
       moved *)\n\
       let c () = 3\n"
  in
  Alcotest.(check (list (pair string (list string))))
    "one finding per marker"
    [ ("lint/waiver-unjustified", [ "mutant.ml:1" ]);
      ("lint/waiver-unknown-rule", [ "mutant.ml:3" ]);
      ("lint/waiver-unused", [ "mutant.ml:5" ]) ]
    (List.map
       (fun f -> (f.Sanitize.rule_id, f.Sanitize.sites))
       r.Typedlint.findings)

let test_lint_file_waivers () =
  let waivers, probs =
    Lint_common.parse_waivers
      "# comment\n\
       nondet/hashtbl-order mutant grouped results are order-canonical \
       downstream\n\
       short x y\n"
  in
  Alcotest.(check int) "one parsed waiver" 1 (List.length waivers);
  Alcotest.(check int) "one malformed line reported" 1 (List.length probs);
  (* suppressing, the waiver counts as used: no lint/waiver-unused *)
  let r = scan ~waivers (hashtbl_site ^ "\n") in
  check_rules "file waiver suppresses" [] r;
  Alcotest.(check int) "suppression counted" 1 r.Typedlint.waivers_honored;
  (* a waiver for another file suppresses nothing here, and is stale *)
  let elsewhere =
    List.map (fun w -> { w with Lint_common.w_path = "other/y.ml" }) waivers
  in
  check_rules "no suppression elsewhere"
    [ "lint/waiver-unused"; "nondet/hashtbl-order" ]
    (scan ~waivers:elsewhere (hashtbl_site ^ "\n"))

(* The repo's LINT_WAIVERS must parse clean and name only rules the lint
   can still evaluate — an entry for a retired rule is dead weight.
   Staleness proper (an entry that suppresses nothing) is enforced by the
   `dune runtest` lint gate, which scans the real tree. *)
let test_lint_waivers_audit () =
  let waivers, probs = Lint_common.parse_waivers (read_file "../LINT_WAIVERS") in
  Alcotest.(check (list string))
    "LINT_WAIVERS parses without findings" []
    (List.map (fun f -> f.Sanitize.rule_id) probs);
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "rule %s is a lint rule" w.Lint_common.w_rule)
        true
        (List.mem w.Lint_common.w_rule Typedlint.rule_ids);
      Alcotest.(check bool)
        (Printf.sprintf "justification for %s is substantial"
           w.Lint_common.w_rule)
        true
        (String.length w.Lint_common.w_reason >= Lint_common.min_reason_len))
    waivers

(* --- property: no false positives on pure closures --------------------------------- *)

(* random pure expressions: ints, + and *, let-bound locals, list folds *)
let gen_pure_expr =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then map string_of_int (int_range 0 99)
           else
             frequency
               [ (1, map string_of_int (int_range 0 99));
                 ( 2,
                   map2
                     (fun a b -> Printf.sprintf "(%s + %s)" a b)
                     (self (n / 2)) (self (n / 2)) );
                 ( 2,
                   map2
                     (fun a b -> Printf.sprintf "(%s * %s)" a b)
                     (self (n / 2)) (self (n / 2)) );
                 ( 1,
                   map2
                     (fun a b ->
                       Printf.sprintf "(let x = %s in x + %s)" a b)
                     (self (n / 2)) (self (n / 2)) );
                 ( 1,
                   map
                     (fun a ->
                       Printf.sprintf
                         "(List.fold_left ( + ) 0 [ %s; 1; 2 ])" a)
                     (self (n / 2)) ) ]))

let arb_pure_expr =
  QCheck.make ~print:(fun s -> s) (QCheck.Gen.map (fun s -> s) gen_pure_expr)

let qcheck_pure_closures_clean =
  QCheck.Test.make ~count:12 ~name:"typedlint: pure forked closures scan clean"
    arb_pure_expr (fun body ->
      List.for_all
        (fun jobs ->
          let src =
            stub
            ^ Printf.sprintf
                "let main () =\n\
                \  Core.Parallel.run ~jobs:%d (fun () ->\n\
                \      let t = Core.Parallel.fork (fun () -> %s) in\n\
                \      let a = Core.Parallel.map (fun i -> i + %s) [| 1; 2 \
                 |] in\n\
                \      Core.Parallel.join t + a.(0))\n"
                jobs body body
          in
          rules (scan ~entry_points:[ "Mutant.main" ] src) = [])
        [ 1; 2; 4 ])

(* --- plumbing ----------------------------------------------------------------------- *)

let test_rule_ids_and_stats () =
  Alcotest.(check (list string))
    "rule inventory"
    [ "mm/naked-atomic-get"; "mm/physical-eq-key"; "nondet/ambient-random";
      "nondet/domain-id"; "nondet/hashtbl-order"; "nondet/wall-clock";
      "typed/blocking-in-task"; "typed/capture-escape";
      "typed/lock-discipline"; "typed/module-escape" ]
    Typedlint.rule_ids;
  let r = scan (capture_mutant_with "") in
  Alcotest.(check int) "one unit scanned" 1 r.Typedlint.files_scanned;
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Typedlint.publish_stats r;
  Alcotest.(check (float 0.0))
    "files_scanned gauge" 1.0
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge "typedlint.files_scanned"));
  Alcotest.(check bool) "findings gauge set" true
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge "typedlint.findings") >= 1.0);
  Obs.Metrics.disable ()

let () =
  Alcotest.run "typedlint"
    [ ( "capture-escape",
        [ Alcotest.test_case "naked ref" `Quick test_capture_naked_ref;
          Alcotest.test_case "hashtbl in map_list" `Quick
            test_capture_hashtbl_in_map;
          Alcotest.test_case "field write" `Quick test_capture_field_write;
          Alcotest.test_case "controls clean" `Quick
            test_capture_controls_clean ] );
      ( "lock-discipline",
        [ Alcotest.test_case "empty lock set" `Quick
            test_lock_discipline_empty_set;
          Alcotest.test_case "wrong lock" `Quick
            test_lock_discipline_wrong_lock;
          Alcotest.test_case "consistent clean" `Quick
            test_lock_discipline_consistent_clean ] );
      ( "module-escape",
        [ Alcotest.test_case "global hashtbl" `Quick
            test_module_escape_global_hashtbl;
          Alcotest.test_case "guarded clean" `Quick
            test_module_escape_guarded_clean ] );
      ( "blocking-in-task",
        [ Alcotest.test_case "condition wait" `Quick
            test_blocking_condition_wait;
          Alcotest.test_case "through helper" `Quick
            test_blocking_through_helper;
          Alcotest.test_case "outside task clean" `Quick
            test_blocking_outside_task_clean ] );
      ( "waivers",
        [ Alcotest.test_case "trailing honored" `Quick
            test_waiver_trailing_honored;
          Alcotest.test_case "stale" `Quick test_waiver_stale;
          Alcotest.test_case "file level" `Quick test_waiver_file_level ] );
      ( "lint",
        [ Alcotest.test_case "rules fire" `Quick test_lint_rules_fire;
          Alcotest.test_case "aliasing probes" `Quick
            test_lint_aliasing_probes;
          Alcotest.test_case "exemptions" `Quick test_lint_exemptions;
          Alcotest.test_case "stripping" `Quick test_lint_strip;
          Alcotest.test_case "in-source waivers" `Quick
            test_lint_waivers_in_source;
          Alcotest.test_case "string-literal marker" `Quick
            test_lint_string_literal_marker;
          Alcotest.test_case "waiver discipline" `Quick
            test_lint_waiver_discipline;
          Alcotest.test_case "file waivers" `Quick test_lint_file_waivers;
          Alcotest.test_case "repo waiver audit" `Quick
            test_lint_waivers_audit ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest qcheck_pure_closures_clean ] );
      ( "plumbing",
        [ Alcotest.test_case "rule ids + metrics" `Quick
            test_rule_ids_and_stats ] )
    ]
