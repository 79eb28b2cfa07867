(* lib/obs tests: span nesting (qcheck), the zero-allocation disabled path,
   deterministic exporter goldens via the fake clock, exporter output that
   parses back exactly on hostile strings, metrics registry semantics, and
   flow determinism with tracing on vs off. *)

let reset_all () =
  Obs.Trace.disable ();
  Obs.Trace.reset ();
  Obs.Trace.set_clock None;
  Obs.Metrics.disable ();
  Obs.Metrics.reset ()

(* --- span nesting property ---------------------------------------------------- *)

type tree = Node of tree list

let gen_tree =
  QCheck.Gen.(
    sized_size (int_bound 3) (fix (fun self depth ->
        if depth = 0 then return (Node [])
        else
          list_size (int_bound 3) (self (depth - 1)) >|= fun kids -> Node kids)))

let rec tree_size (Node kids) =
  1 + List.fold_left (fun acc k -> acc + tree_size k) 0 kids

let rec print_tree (Node kids) =
  "(" ^ String.concat " " (List.map print_tree kids) ^ ")"

let arb_tree = QCheck.make ~print:print_tree gen_tree

let rec play (Node kids) =
  Obs.Trace.span "node" (fun () -> List.iter play kids)

let prop_nesting =
  QCheck.Test.make ~count:100 ~name:"span nesting is balanced and enclosed"
    arb_tree (fun tree ->
      reset_all ();
      Obs.Trace.enable ();
      play tree;
      let spans = Obs.Trace.spans () in
      let balanced = Obs.Trace.depth () = 0 in
      let counted = List.length spans = tree_size tree in
      let span_end (s : Obs.Trace.span) =
        Int64.add s.Obs.Trace.start_ns s.Obs.Trace.dur_ns
      in
      (* every nested span lies inside some span one level shallower *)
      let enclosed =
        List.for_all
          (fun (c : Obs.Trace.span) ->
            c.Obs.Trace.depth = 0
            || List.exists
                 (fun (p : Obs.Trace.span) ->
                   p.Obs.Trace.depth = c.Obs.Trace.depth - 1
                   && p.Obs.Trace.start_ns <= c.Obs.Trace.start_ns
                   && span_end c <= span_end p)
                 spans)
          spans
      in
      reset_all ();
      balanced && counted && enclosed)

(* --- disabled fast path -------------------------------------------------------- *)

let test_disabled_zero_alloc () =
  reset_all ();
  let body = fun () -> () in
  for _ = 1 to 1_000 do
    Obs.Trace.span "hot" body
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 50_000 do
    Obs.Trace.span "hot" body
  done;
  let delta = Gc.minor_words () -. w0 in
  (* 50k disabled spans: any per-span allocation would cost >= 100k words;
     the slack covers the Gc.minor_words float boxing itself *)
  Alcotest.(check bool)
    (Printf.sprintf "no allocation on the disabled path (%.0f words)" delta)
    true (delta < 100.0);
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.Trace.spans ()))

let test_span_exception () =
  reset_all ();
  Obs.Trace.enable ();
  (try Obs.Trace.span "boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "depth restored after raise" 0 (Obs.Trace.depth ());
  Alcotest.(check int) "raising span still recorded" 1
    (List.length (Obs.Trace.spans ()));
  reset_all ()

(* --- exporter goldens ------------------------------------------------------------ *)

module J = Obs.Json

let parse_or_fail what text =
  match J.parse text with
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s is not JSON (%s): %s" what msg text

let list_of = function J.List xs -> xs | _ -> Alcotest.fail "expected an array"
let field k v = Option.get (J.member k v)

(* Fake clock ticking 1 ns per read makes timestamps deterministic: outer
   starts at 1, inner spans 2..3, outer ends at 4. *)
let test_chrome_golden () =
  reset_all ();
  let t = ref 0L in
  Obs.Trace.set_clock
    (Some
       (fun () ->
         t := Int64.add !t 1L;
         !t));
  Obs.Trace.enable ();
  Obs.Trace.span ~cat:"flow" "outer" (fun () ->
      Obs.Trace.span ~args:[ ("k", Obs.Trace.Str "v") ] "inner" (fun () -> ()));
  let out = Obs.Export.chrome_json () in
  reset_all ();
  let events = list_of (field "traceEvents" (parse_or_fail "chrome_json" out)) in
  let find name =
    match List.find_opt (fun e -> J.mem_str "name" e = Some name) events with
    | Some e -> e
    | None -> Alcotest.failf "no %s event" name
  in
  let meta = find "process_name" in
  Alcotest.(check (list (option string))) "process metadata"
    [ Some "M"; Some "retiming-resynthesis" ]
    [ J.mem_str "ph" meta; J.mem_str "name" (field "args" meta) ];
  Alcotest.(check (list (option int))) "process metadata ids" [ Some 1; Some 0 ]
    [ J.mem_int "pid" meta; J.mem_int "tid" meta ];
  Alcotest.(check (option string)) "track 0 named" (Some "domain 0")
    (J.mem_str "name" (field "args" (find "thread_name")));
  let complete name ~cat ~ts ~dur =
    let e = find name in
    Alcotest.(check (list (option string))) (name ^ " cat, ph")
      [ Some cat; Some "X" ] [ J.mem_str "cat" e; J.mem_str "ph" e ];
    Alcotest.(check (list (option int))) (name ^ " pid, tid")
      [ Some 1; Some 0 ] [ J.mem_int "pid" e; J.mem_int "tid" e ];
    Alcotest.(check (list (option (float 0.0)))) (name ^ " ts, dur")
      [ Some ts; Some dur ] [ J.mem_float "ts" e; J.mem_float "dur" e ]
  in
  complete "outer" ~cat:"flow" ~ts:0.001 ~dur:0.003;
  complete "inner" ~cat:"span" ~ts:0.002 ~dur:0.001;
  let inner_args = field "args" (find "inner") in
  Alcotest.(check (option string)) "inner span arg" (Some "v")
    (J.mem_str "k" inner_args);
  Alcotest.(check bool) "GC words ride along in args" true
    (J.member "gc_minor_words" inner_args <> None)

let test_spans_json_golden () =
  reset_all ();
  let t = ref 0L in
  Obs.Trace.set_clock
    (Some
       (fun () ->
         t := Int64.add !t 10L;
         !t));
  Obs.Trace.enable ();
  Obs.Trace.span "only" (fun () -> ());
  let out = Obs.Export.spans_json () in
  reset_all ();
  match list_of (parse_or_fail "spans_json" out) with
  | [ s ] ->
    Alcotest.(check (list (option string))) "name, cat"
      [ Some "only"; Some "span" ] [ J.mem_str "name" s; J.mem_str "cat" s ];
    Alcotest.(check (list (option int))) "track, depth, start_ns, dur_ns"
      [ Some 0; Some 0; Some 10; Some 10 ]
      (List.map (fun k -> J.mem_int k s) [ "track"; "depth"; "start_ns"; "dur_ns" ])
  | spans -> Alcotest.failf "expected one span, got %d" (List.length spans)

(* Names, args and messages come from outside the program (daemon request
   ids, BLIF .model names): every exporter must emit JSON that parses back
   to the same bytes, and floats must survive bit-exact. *)
let hostile = "q\"b\\s\001del\127 \xc3\xa4"

let test_json_hostile_strings () =
  reset_all ();
  Obs.Metrics.enable ();
  let t = ref 5_000_000_000_122L in
  Obs.Trace.set_clock
    (Some
       (fun () ->
         t := Int64.add !t 1L;
         !t));
  Obs.Trace.enable ();
  Obs.Trace.span ~cat:hostile ~args:[ (hostile, Obs.Trace.Str hostile) ] hostile
    (fun () -> ());
  Obs.Metrics.set_gauge (Obs.Metrics.gauge "test.obs.sum") (0.1 +. 0.2);
  Obs.Metrics.set_info ("test.obs." ^ hostile) hostile;
  let span = List.hd (Obs.Trace.spans ()) in
  let one = parse_or_fail "span_json" (Obs.Export.span_json span) in
  let many = list_of (parse_or_fail "spans_json" (Obs.Export.spans_json ())) in
  let chrome =
    list_of (field "traceEvents" (parse_or_fail "chrome_json" (Obs.Export.chrome_json ())))
  in
  let metrics = field "metrics" (parse_or_fail "metrics_json" (Obs.Export.metrics_json ())) in
  reset_all ();
  let same what got = Alcotest.(check (option string)) what (Some hostile) got in
  List.iter
    (fun (what, s) ->
      same (what ^ " name") (J.mem_str "name" s);
      same (what ^ " cat") (J.mem_str "cat" s);
      same (what ^ " arg") (J.mem_str hostile (field "args" s)))
    [ ("span_json", one); ("spans_json", List.hd many) ];
  let event =
    List.find (fun e -> J.mem_str "ph" e = Some "X") chrome
  in
  same "chrome name" (J.mem_str "name" event);
  same "chrome cat" (J.mem_str "cat" event);
  same "chrome arg" (J.mem_str hostile (field "args" event));
  Alcotest.(check (option (float 0.0))) "chrome ts keeps every digit"
    (Some 5000000000.123) (J.mem_float "ts" event);
  same "metrics info" (J.mem_str ("test.obs." ^ hostile) metrics);
  Alcotest.(check bool) "gauge reads back bit-exact" true
    (J.mem_float "test.obs.sum" metrics = Some (0.1 +. 0.2));
  let verify =
    Verify.render_json
      [ { Verify.rule_id = hostile; severity = Verify.Error; node_ids = [ 1 ];
          message = hostile } ]
  in
  let eqcheck =
    Eqcheck.render_json
      [ { Eqcheck.label = hostile; pass = hostile; rule = hostile;
          verdict = Eqcheck.Unknown hostile; seconds = 0.1 +. 0.2 } ]
  in
  let sanitize =
    Sanitize.render_json
      [ { Sanitize.rule_id = hostile; severity = Sanitize.Warning;
          sites = [ hostile ]; message = hostile } ]
  in
  (match list_of (parse_or_fail "Verify.render_json" verify) with
   | [ d ] ->
     same "verify rule_id" (J.mem_str "rule_id" d);
     same "verify message" (J.mem_str "message" d)
   | _ -> Alcotest.fail "one verify diagnostic expected");
  (match list_of (parse_or_fail "Eqcheck.render_json" eqcheck) with
   | [ r ] ->
     List.iter (fun k -> same ("eqcheck " ^ k) (J.mem_str k r))
       [ "label"; "pass"; "rule"; "reason" ];
     Alcotest.(check bool) "eqcheck seconds bit-exact" true
       (J.mem_float "seconds" r = Some (0.1 +. 0.2))
   | _ -> Alcotest.fail "one eqcheck record expected");
  match list_of (parse_or_fail "Sanitize.render_json" sanitize) with
  | [ f ] ->
    same "sanitize message" (J.mem_str "message" f);
    Alcotest.(check (list (option string))) "sanitize sites" [ Some hostile ]
      (List.map J.to_str (list_of (field "sites" f)))
  | _ -> Alcotest.fail "one sanitize finding expected"

(* --- metrics registry ---------------------------------------------------------- *)

let test_metrics_counters () =
  reset_all ();
  let c = Obs.Metrics.counter "test.obs.counter" in
  Obs.Metrics.incr c;
  Alcotest.(check int) "disabled incr is a no-op" 0
    (Obs.Metrics.counter_value c);
  Obs.Metrics.enable ();
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  Alcotest.(check int) "incr + add" 5 (Obs.Metrics.counter_value c);
  let c' = Obs.Metrics.counter "test.obs.counter" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "registration is idempotent" 6
    (Obs.Metrics.counter_value c);
  (match Obs.Metrics.gauge "test.obs.counter" with
   | _ -> Alcotest.fail "kind mismatch accepted"
   | exception Invalid_argument _ -> ());
  reset_all ()

let test_metrics_histogram () =
  reset_all ();
  Obs.Metrics.enable ();
  let h = Obs.Metrics.histogram "test.obs.hist" in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 2; 3; 7; 1024 ];
  let s = Obs.Metrics.histogram_stats h in
  Alcotest.(check int) "count" 6 s.Obs.Metrics.count;
  Alcotest.(check int) "sum" 1037 s.Obs.Metrics.sum;
  Alcotest.(check int) "max" 1024 s.Obs.Metrics.max_value;
  Alcotest.(check (list (pair int int)))
    "power-of-two buckets: 0..1, [2,4), [4,8), [1024,2048)"
    [ (0, 2); (2, 2); (4, 1); (1024, 1) ]
    s.Obs.Metrics.buckets;
  reset_all ()

(* --- flow determinism under tracing -------------------------------------------- *)

(* The acceptance bar for the whole subsystem: enabling the tracer and the
   registry must not change a single byte of the flow results, serial or
   parallel. *)
let test_flow_determinism () =
  reset_all ();
  let render jobs =
    let rows =
      Report.Table.run_suite ~verify:false ~names:[ "s27" ] ~jobs ()
    in
    Report.Table.render rows ^ Report.Table.summary rows
  in
  let off = render 1 in
  Obs.Trace.enable ();
  Obs.Metrics.enable ();
  let on1 = render 1 in
  let on4 = render 4 in
  let traced = List.length (Obs.Trace.spans ()) in
  reset_all ();
  Alcotest.(check string) "tracing off vs on (jobs 1)" off on1;
  Alcotest.(check string) "tracing off vs on (jobs 4)" off on4;
  Alcotest.(check bool) "spans were actually recorded" true (traced > 0)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [ ("trace", q [ prop_nesting ]);
      ("trace-unit",
       [ Alcotest.test_case "disabled-zero-alloc" `Quick
           test_disabled_zero_alloc;
         Alcotest.test_case "span-exception" `Quick test_span_exception ]);
      ("export",
       [ Alcotest.test_case "chrome-golden" `Quick test_chrome_golden;
         Alcotest.test_case "spans-json-golden" `Quick test_spans_json_golden;
         Alcotest.test_case "hostile-strings-roundtrip" `Quick
           test_json_hostile_strings ]);
      ("metrics",
       [ Alcotest.test_case "counters" `Quick test_metrics_counters;
         Alcotest.test_case "histogram" `Quick test_metrics_histogram ]);
      ("determinism",
       [ Alcotest.test_case "table-rows-traced-vs-not" `Quick
           test_flow_determinism ]) ]
