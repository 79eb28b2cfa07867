(* Repo-wide static sanitizer driver.

   Usage: lint [--typed] [--waivers FILE] [--json FILE]
               [--metrics-json FILE] [--source-root DIR] PATH...

   With --typed it collects the .cmt files under the PATHs (the repo
   builds with -bin-annot; run from the build root so the .objs
   directories are in reach) and runs the typed-AST analyzer
   (Typedlint), the one rule engine: the nondeterminism and memory-model
   path rules plus capture/escape, lock-discipline, module-escape and
   blocking-in-task.  It exits non-zero if any unwaived finding survives
   — including unjustified, unknown-rule or stale waivers, in source or
   in the waivers file, so the waiver set can only shrink.

   Without --typed it runs no rules: it audits the waiver markers of the
   .ml files under the PATHs (each must be justified and name a known
   rule id), which works before any .cmt exists.  Run by CI and by `dune
   runtest` (see the root dune file); rules are documented in DESIGN.md
   §15. *)

let usage =
  "usage: lint [--typed] [--waivers FILE] [--json FILE]\n\
  \            [--metrics-json FILE] [--source-root DIR] PATH...\n"

let () =
  let typed = ref false in
  let waivers_file = ref None in
  let json_out = ref None in
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
  if !metrics_out <> None && not !typed then begin
    prerr_endline "lint: --metrics-json requires --typed";
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
    | Some f -> Lint_common.parse_waivers (read_file f)
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
  let findings, files_scanned, summary =
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
      ( waiver_probs @ r.Typedlint.findings,
        r.Typedlint.files_scanned,
        Printf.sprintf ", %d rule(s), %d waived site(s)"
          (List.length Typedlint.rule_ids) r.Typedlint.waivers_honored )
    end
    else begin
      let files = List.rev (List.fold_left (gather ".ml") [] paths) in
      let marker_probs =
        List.concat_map
          (fun path ->
            snd
              (Lint_common.line_waivers ~known:Typedlint.rule_ids ~path
                 (read_file path)))
          files
      in
      (waiver_probs @ marker_probs, List.length files, "")
    end
  in
  (match !json_out with
   | Some f -> Obs.Export.write_file f (Sanitize.render_json findings)
   | None -> ());
  let head = if !typed then "lint --typed" else "lint (waiver audit)" in
  if findings <> [] then begin
    print_endline (Sanitize.render findings);
    Printf.printf "%s: %d finding(s) in %d file(s) scanned\n" head
      (List.length findings) files_scanned;
    exit 1
  end
  else Printf.printf "%s: clean — %d file(s)%s\n" head files_scanned summary
