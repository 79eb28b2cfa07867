(* Standalone Table I regeneration.

   Usage: table1 [--jobs N] [--names a,b,c] [--no-verify] [--verify-each]
                 [--verify-json FILE] [--eqcheck-each] [--eqcheck-json FILE]
                 [--trace FILE] [--trace-format chrome|json] [--metrics]
                 [--metrics-json FILE] [--sanitize] [--sanitize-json FILE]

   --jobs N        size of the fork-join worker pool (default 1; 0 = one
                   worker per recommended core).  Rows run in parallel, and
                   workers left idle by the row split steal intra-row tasks
                   (eqcheck boundary checks, verify rule groups, the two
                   verification lanes), so N above the row count still
                   helps.  Output is byte-identical for every N.
   --names         comma-separated subset of suite circuits
   --no-verify     skip the sequential-equivalence check on each flow result
   --verify-each   run the netlist verifier (structural rules + journal
                   audit) after every named pass of every flow; the first
                   diagnostic aborts the run naming the circuit and the pass
   --verify-json   write the final-network static-rule diagnostics (JSON
                   array; requires --verify-each) to FILE
   --eqcheck-each  run the semantic equivalence analyzer at every pass
                   boundary; per-pass Proved / Refuted / Unknown verdicts are
                   reported, and any Refuted verdict exits non-zero
   --eqcheck-json  write the eqcheck verdicts (JSON array) to FILE
   --trace FILE    record per-pass spans and write them to FILE after the run
   --trace-format  chrome (default; Perfetto/chrome://tracing-loadable
                   trace_event JSON, one track per worker domain) or json
                   (the native span array)
   --metrics       enable the metrics registry and print a text summary of
                   counters, gauges and histograms after the table
   --metrics-json  enable the metrics registry and write the full registry
                   (including bdd.* shared-table gauges) as JSON to FILE
   --sanitize      enable the concurrency sanitizer (lock-order, BDD
                   publication protocol, future single-claim, DLS scope
                   stamps; also via SANITIZE=1).  Findings go to stderr and
                   the run exits 3; table output stays byte-identical
   --sanitize-json write the sanitizer findings (JSON array, empty on a
                   clean run) to FILE; implies --sanitize *)

let () =
  let jobs = ref 1 in
  let names = ref None in
  let verify = ref true in
  let verify_each = ref false in
  let eqcheck_each = ref false in
  let eqcheck_json = ref None in
  let verify_json = ref None in
  let trace = ref None in
  let trace_format = ref `Chrome in
  let metrics = ref false in
  let metrics_json = ref None in
  let sanitize = ref false in
  let sanitize_json = ref None in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
       | Some j when j >= 0 -> jobs := j
       | Some _ | None ->
         prerr_endline "table1: --jobs expects a non-negative integer";
         exit 2);
      parse rest
    | "--names" :: csv :: rest ->
      names := Some (String.split_on_char ',' csv);
      parse rest
    | "--no-verify" :: rest ->
      verify := false;
      parse rest
    | "--verify-each" :: rest ->
      verify_each := true;
      parse rest
    | "--verify-json" :: file :: rest ->
      verify_json := Some file;
      parse rest
    | "--eqcheck-each" :: rest ->
      eqcheck_each := true;
      parse rest
    | "--eqcheck-json" :: file :: rest ->
      eqcheck_json := Some file;
      parse rest
    | "--trace" :: file :: rest ->
      trace := Some file;
      parse rest
    | "--trace-format" :: fmt :: rest ->
      (match fmt with
       | "chrome" -> trace_format := `Chrome
       | "json" -> trace_format := `Json
       | _ ->
         prerr_endline "table1: --trace-format expects chrome or json";
         exit 2);
      parse rest
    | "--metrics" :: rest ->
      metrics := true;
      parse rest
    | "--metrics-json" :: file :: rest ->
      metrics_json := Some file;
      parse rest
    | "--sanitize" :: rest ->
      sanitize := true;
      parse rest
    | "--sanitize-json" :: file :: rest ->
      sanitize := true;
      sanitize_json := Some file;
      parse rest
    | arg :: _ ->
      Printf.eprintf
        "table1: unknown argument %s\n\
         usage: table1 [--jobs N] [--names a,b,c] [--no-verify] \
         [--verify-each] [--verify-json FILE] [--eqcheck-each] \
         [--eqcheck-json FILE] [--trace FILE] [--trace-format chrome|json] \
         [--metrics] [--metrics-json FILE] [--sanitize] [--sanitize-json \
         FILE]\n"
        arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match !names with
   | Some ns ->
     (match Circuits.Suite.unknown_names ns with
      | [] -> ()
      | bad ->
        Printf.eprintf "table1: unknown benchmark%s %s\nvalid names: %s\n"
          (if List.length bad > 1 then "s" else "")
          (String.concat ", " bad)
          (String.concat ", " Circuits.Suite.names);
        exit 2)
   | None -> ());
  let jobs = if !jobs = 0 then Core.Parallel.default_jobs () else !jobs in
  if !sanitize then Sanitize.enable ();
  if !trace <> None then Obs.Trace.enable ();
  if !metrics || !metrics_json <> None || !trace <> None then
    Obs.Metrics.enable ();
  (* lint-waive: nondet/wall-clock — feeds only the elapsed-time banner. *)
  let t0 = Unix.gettimeofday () in
  let rows =
    try
      Report.Table.run_suite ~verify:!verify ~verify_each:!verify_each
        ~eqcheck_each:!eqcheck_each ?names:!names ~jobs ()
    with Verify.Verification_failed msg ->
      prerr_endline ("table1: " ^ msg);
      exit 1
  in
  print_string (Report.Table.render rows);
  print_newline ();
  print_string (Report.Table.summary rows);
  if !verify_each then
    print_string "verify-each: all pass boundaries clean\n";
  (match !verify_json with
   | Some file ->
     let diags = List.concat_map (fun r -> r.Core.Flow.verify_diags) rows in
     Obs.Export.write_file file (Verify.render_json diags)
   | None -> ());
  let eq_refuted = ref 0 in
  if !eqcheck_each then begin
    let records = Report.Table.eqcheck_records rows in
    print_string (Report.Table.eqcheck_summary rows);
    let _, refuted, _ = Eqcheck.counts records in
    eq_refuted := refuted;
    if refuted > 0 then begin
      print_string "eqcheck REFUTED passes:\n";
      List.iter
        (fun r ->
          match r.Eqcheck.verdict with
          | Eqcheck.Refuted _ ->
            print_string (Eqcheck.render [ r ]);
            print_newline ()
          | Eqcheck.Proved | Eqcheck.Unknown _ -> ())
        records
    end;
    match !eqcheck_json with
    | Some file -> Obs.Export.write_file file (Eqcheck.render_json records)
    | None -> ()
  end;
  (match !trace with
   | Some file ->
     let contents =
       match !trace_format with
       | `Chrome -> Obs.Export.chrome_json ()
       | `Json -> Obs.Export.spans_json ()
     in
     Obs.Export.write_file file contents;
     Printf.printf "trace: %d spans written to %s\n"
       (List.length (Obs.Trace.spans ()))
       file
   | None -> ());
  (match !metrics_json with
   | Some file ->
     Bdd.publish_stats ();
     Techmap.publish_stats ();
     Sanitize.publish_stats ();
     Obs.Export.write_file file (Obs.Export.metrics_json ());
     Printf.printf "metrics: written to %s\n" file
   | None -> ());
  if !metrics then begin
    Bdd.publish_stats ();
    Techmap.publish_stats ();
    Sanitize.publish_stats ();
    print_string (Obs.Export.text_summary ())
  end;
  (* sanitizer findings go to stderr only, so a sanitized run's stdout can
     be compared byte-for-byte against an uninstrumented one *)
  let san_findings = if !sanitize then Sanitize.findings () else [] in
  (match !sanitize_json with
   | Some file -> Obs.Export.write_file file (Sanitize.render_json san_findings)
   | None -> ());
  if san_findings <> [] then begin
    prerr_string (Sanitize.render san_findings);
    prerr_newline ();
    Printf.eprintf "table1: sanitizer reported %d finding(s)\n"
      (List.length san_findings)
  end;
  Printf.printf "regenerated in %.1fs (%d jobs)\n"
    (Unix.gettimeofday () -. t0) (* lint-waive: nondet/wall-clock — elapsed-time banner only *)
    jobs;
  if san_findings <> [] then exit 3;
  if !eq_refuted > 0 then exit 1
