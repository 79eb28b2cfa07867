(* Repo-wide static sanitizer driver: two lint heads, one waiver
   discipline.

   Usage: lint [--typed] [--waivers FILE] [--json FILE] [--typed-json FILE]
               [--metrics-json FILE] [--source-root DIR] PATH...

   Default mode walks every PATH (directories recurse) collecting .ml
   files and runs the substring rule engine (Sanlint).  With --typed it
   instead collects .cmt files under the PATHs (the repo builds with
   -bin-annot; run from the build root so the .objs directories are in
   reach) and runs the typed-AST analyzer (Typedlint): capture/escape,
   lock-discipline, module-escape and blocking-in-task.

   Either way the driver exits non-zero if any unwaivered finding
   survives — including unjustified or stale waivers, so the waiver set
   can only shrink.  A LINT_WAIVERS entry is judged for staleness only by
   the head that owns its rule: typed/* entries by the typed head,
   everything else by the substring head.  Run by CI and by `dune
   runtest` (see the root dune file); rules are documented in DESIGN.md
   §14 (substring) and §15 (typed). *)

let usage =
  "usage: lint [--typed] [--waivers FILE] [--json FILE] [--typed-json \
   FILE]\n            [--metrics-json FILE] [--source-root DIR] PATH...\n"

let () =
  let typed = ref false in
  let waivers_file = ref None in
  let json_out = ref None in
  let typed_json_out = ref None in
  let metrics_out = ref None in
  let source_root = ref "." in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--typed" :: rest ->
      typed := true;
      parse rest
    | "--waivers" :: f :: rest ->
      waivers_file := Some f;
      parse rest
    | "--json" :: f :: rest ->
      json_out := Some f;
      parse rest
    | "--typed-json" :: f :: rest ->
      typed_json_out := Some f;
      parse rest
    | "--metrics-json" :: f :: rest ->
      metrics_out := Some f;
      parse rest
    | "--source-root" :: d :: rest ->
      source_root := d;
      parse rest
    | arg :: rest when String.length arg > 0 && arg.[0] <> '-' ->
      paths := arg :: !paths;
      parse rest
    | arg :: _ ->
      Printf.eprintf "lint: unknown argument %s\n%s" arg usage;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let paths = List.rev !paths in
  if paths = [] then begin
    prerr_endline "lint: no paths given";
    exit 2
  end;
  if (!typed_json_out <> None || !metrics_out <> None) && not !typed then begin
    prerr_endline "lint: --typed-json/--metrics-json require --typed";
    exit 2
  end;
  let read_file path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let waivers, waiver_probs =
    match !waivers_file with
    | None -> ([], [])
    | Some f -> Sanlint.parse_waivers (read_file f)
  in
  (* gather files by suffix, sorted for a deterministic report *)
  let rec gather suffix acc path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc entry -> gather suffix acc (Filename.concat path entry))
        acc
        (let es = Sys.readdir path in
         Array.sort compare es;
         es)
    else if Filename.check_suffix path suffix then path :: acc
    else acc
  in
  (* which rule families does this invocation evaluate?  Only their file
     waivers can be judged stale here. *)
  let evaluable rule =
    if !typed then List.mem rule Typedlint.rule_ids
    else List.mem rule Sanlint.rule_ids
  in
  let findings, suppressed, files_scanned, line_waived =
    if !typed then begin
      let cmts = List.rev (List.fold_left (gather ".cmt") [] paths) in
      let config =
        { Typedlint.default_config with source_root = !source_root }
      in
      let r = Typedlint.scan_cmt_files ~config ~waivers cmts in
      if r.Typedlint.files_scanned = 0 then begin
        Printf.eprintf
          "lint: no .cmt implementation units under %s — build with \
           -bin-annot first (dune emits them; run from the build root)\n"
          (String.concat " " paths);
        exit 2
      end;
      (match !metrics_out with
       | Some f ->
         Obs.Metrics.enable ();
         Typedlint.publish_stats r;
         Obs.Export.write_file f (Obs.Export.metrics_json ~prefix:"typedlint" ())
       | None -> ());
      (match !typed_json_out with
       | Some f -> Obs.Export.write_file f (Sanitize.render_json r.Typedlint.findings)
       | None -> ());
      ( r.Typedlint.findings @ waiver_probs,
        r.Typedlint.suppressed,
        r.Typedlint.files_scanned,
        r.Typedlint.waivers_honored )
    end
    else begin
      let files = List.rev (List.fold_left (gather ".ml") [] paths) in
      let findings, suppressed =
        List.fold_left
          (fun (facc, sacc) path ->
            let fs, sup =
              Sanlint.scan_file ~foreign_rules:Typedlint.rule_ids ~waivers
                ~path (read_file path)
            in
            (facc @ fs, sacc @ sup))
          (waiver_probs, [])
          files
      in
      (findings, suppressed, List.length files, 0)
    end
  in
  (* a LINT_WAIVERS entry that suppresses nothing is stale: report it —
     but only for rules this invocation actually evaluated *)
  let used = Sanlint.used_waivers ~waivers suppressed in
  let stale =
    List.filter_map
      (fun w ->
        if (not (evaluable w.Sanlint.w_rule)) || List.memq w used then None
        else
          Some
            Sanitize.
              { rule_id = "lint/waiver-unused";
                severity = Error;
                sites = [ Printf.sprintf "LINT_WAIVERS(%s)" w.Sanlint.w_path ];
                message =
                  Printf.sprintf
                    "file waiver for %s on %S suppresses nothing — remove \
                     it"
                    w.Sanlint.w_rule w.Sanlint.w_path })
      waivers
  in
  let findings = findings @ stale in
  (match !json_out with
   | Some f -> Obs.Export.write_file f (Sanitize.render_json findings)
   | None -> ());
  let head = if !typed then "lint --typed" else "lint" in
  if findings <> [] then begin
    print_endline (Sanitize.render findings);
    Printf.printf "%s: %d finding(s) in %d file(s) scanned\n" head
      (List.length findings) files_scanned;
    exit 1
  end
  else
    Printf.printf "%s: clean — %d file(s), %d rule(s), %d waived site(s)\n"
      head files_scanned
      (List.length
         (if !typed then Typedlint.rule_ids else Sanlint.rule_ids))
      (List.length suppressed + line_waived)
