(* Typed-AST analyzer over compiler-libs typedtrees: the repo's one lint
   head.  The rules, the waiver discipline and the soundness posture are
   documented in typedlint.mli; every deliberate gap is listed in
   DESIGN.md §15.

   Two kinds of rule share one pass over each unit's [.cmt]: the path
   rules ([path_rules], one table over resolved value paths) and the
   dataflow rules (capture/escape and blocking-in-task per fork site,
   lock-discipline and module-escape across units). *)

type finding = Sanitize.finding = {
  rule_id : string;
  severity : Sanitize.severity;
  sites : string list;
  message : string;
}

type config = {
  source_root : string;
  entry_points : string list;
  entry_path_prefixes : string list;
  sanctioned_path_fragments : string list;
}

let default_config =
  { source_root = ".";
    entry_points =
      [ "Flow.run_all"; "Table.run_suite"; "Table.run_suite_timed" ];
    entry_path_prefixes = [ "bin/" ];
    sanctioned_path_fragments = [ "lib/obs"; "lib/sanitize" ] }

(* --- name plumbing ---------------------------------------------------------------- *)

(* "Core__Flow" (wrapped-library mangling) -> "Core.Flow" *)
let norm_name s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let ends_with ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

let starts_with ~prefix s =
  let ls = String.length s and lx = String.length prefix in
  ls >= lx && String.sub s 0 lx = prefix

(* dotted-path suffix: "Core.Parallel.fork" matches "Parallel.fork" and
   "fork" only at component boundaries *)
let dotted_suffix name cand =
  name = cand || ends_with ~suffix:("." ^ cand) name

let loc_site (loc : Location.t) fallback_file =
  let p = loc.loc_start in
  let f = if p.pos_fname = "" then fallback_file else p.pos_fname in
  Printf.sprintf "%s:%d" f p.pos_lnum

(* --- type classification ---------------------------------------------------------- *)

let head_tycon (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (norm_name (Path.name p))
  | _ -> None

(* mutable containers whose capture by a forked thunk is a finding *)
let capture_mutable_tycons = [ "Stdlib.ref"; "ref"; "Hashtbl.t"; "Buffer.t" ]

(* additionally hazardous as module-level shared state *)
let global_mutable_tycons =
  capture_mutable_tycons @ [ "Queue.t"; "Stack.t"; "bytes" ]

(* synchronization wrappers: state routed through these is sanctioned *)
let sync_tycons =
  [ "Atomic.t"; "Mutex.t"; "Condition.t"; "Semaphore.Counting.t";
    "Semaphore.Binary.t"; "Lock.t"; "DLS.key" ]

let tycon_in ty cands =
  match ty with
  | None -> false
  | Some t -> List.exists (fun c -> dotted_suffix t c) cands

(* --- call-site classification ----------------------------------------------------- *)

(* fork sites: the scheduler entry points that move a closure to another
   domain.  [Sched] is the engine; [Parallel] its [Core] re-export (and
   the stub modules tests compile mutants against). *)
let fork_fns =
  [ "Sched.fork"; "Parallel.fork"; "Sched.map"; "Parallel.map";
    "Sched.map_list"; "Parallel.map_list" ]

let lock_fns = [ "Mutex.lock"; "Lock.lock" ]
let unlock_fns = [ "Mutex.unlock"; "Lock.unlock" ]
let trylock_fns = [ "Mutex.try_lock"; "Lock.try_lock" ]
let protect_fns = [ "Mutex.protect" ]

(* calls that park the calling worker: taking a contended mutex, waiting a
   condition, or any OS-blocking Unix/Thread primitive *)
let blocking_fns =
  [ "Mutex.lock"; "Lock.lock"; "Condition.wait"; "Lock.wait";
    "Thread.delay"; "Thread.join"; "Unix.sleep"; "Unix.sleepf";
    "Unix.select"; "Unix.wait"; "Unix.waitpid"; "Unix.system";
    "Unix.read"; "Unix.write"; "Unix.accept"; "Unix.connect";
    "Unix.recv"; "Unix.send"; "Stdlib.input_line"; "Stdlib.really_input";
    "Stdlib.read_line" ]

(* accesses to shared mutable containers: (dotted suffix, is_write) *)
let container_access_fns =
  [ ("Stdlib.!", false); ("Stdlib.:=", true); ("Stdlib.incr", true);
    ("Stdlib.decr", true);
    ("Hashtbl.find", false); ("Hashtbl.find_opt", false);
    ("Hashtbl.find_all", false); ("Hashtbl.mem", false);
    ("Hashtbl.length", false); ("Hashtbl.iter", false);
    ("Hashtbl.fold", false); ("Hashtbl.to_seq", false);
    ("Hashtbl.add", true); ("Hashtbl.replace", true);
    ("Hashtbl.remove", true); ("Hashtbl.clear", true);
    ("Hashtbl.reset", true); ("Hashtbl.filter_map_inplace", true);
    ("Buffer.contents", false); ("Buffer.length", false);
    ("Buffer.nth", false); ("Buffer.to_bytes", false);
    ("Buffer.add_string", true); ("Buffer.add_char", true);
    ("Buffer.add_bytes", true); ("Buffer.add_buffer", true);
    ("Buffer.add_substring", true); ("Buffer.clear", true);
    ("Buffer.reset", true);
    ("Queue.push", true); ("Queue.add", true); ("Queue.pop", true);
    ("Queue.take", true); ("Queue.clear", true); ("Queue.peek", false);
    ("Queue.length", false); ("Queue.is_empty", false);
    ("Stack.push", true); ("Stack.pop", true); ("Stack.clear", true);
    ("Stack.top", false); ("Stack.length", false) ]

(* registry modules: mutable state reached through them is the sanctioned
   synchronized-and-commutative kind *)
let registry_path_prefixes = [ "Obs."; "Sanitize." ]

(* --- per-unit scan state ---------------------------------------------------------- *)

type access = {
  a_key : string;           (* abstract location *)
  a_locks : string list;    (* lock names held (sorted, deduped) *)
  a_site : string;          (* "file:line" *)
  a_write : bool;
}

type global = {
  g_key : string;           (* qualified "Mod.name" *)
  g_kind : string;          (* e.g. "Hashtbl.t" *)
  g_site : string;
}

type raw_finding = {
  rf_rule : string;
  rf_sites : string list;   (* primary first *)
  rf_message : string;
}

type unit_info = {
  u_modname : string;       (* normalized *)
  u_source : string;        (* as recorded in the cmt, e.g. "lib/x/y.ml" *)
  u_imports : string list;  (* normalized unit names *)
  mutable u_entry : bool;
  u_sanctioned : bool;
  mutable u_accesses : access list;
  mutable u_globals : global list;
  mutable u_raw : raw_finding list;
}

type scan_ctx = {
  cfg : config;
  unit_ : unit_info;
  toplevel : (string, Typedtree.expression) Hashtbl.t;
      (* toplevel value name -> bound expression *)
  top_order : string list ref;  (* declaration order, for determinism *)
  blocking : (string, (string * string) list ref) Hashtbl.t;
      (* toplevel fn -> direct blocking calls (name, site) *)
  calls : (string, (string * string) list ref) Hashtbl.t;
      (* toplevel fn -> same-unit toplevel references (name, site) *)
  forks : (string * string * Typedtree.expression) list ref;
      (* fork fn name, fork site, thunk expression *)
}

open Typedtree

(* the identifier a [let] pattern binds — a type-constrained binding
   ([let x : t = e]) elaborates to [Tpat_alias], not [Tpat_var] *)
let pat_ident (p : pattern) =
  match p.pat_desc with
  | Tpat_var (id, _) -> Some id
  | Tpat_alias (_, id, _) -> Some id
  | _ -> None

let qualify ctx (p : Path.t) =
  match p with
  | Path.Pident i ->
    let n = Ident.name i in
    if Hashtbl.mem ctx.toplevel n then ctx.unit_.u_modname ^ "." ^ n else n
  | _ -> norm_name (Path.name p)

(* the abstract name of a lock expression: per-global or per-field (access
   path), deliberately not per-instance — two functions locking a [lock]
   field of the same record type count as the same discipline *)
let rec lock_expr_name ctx (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident i, _, _) ->
    if Hashtbl.mem ctx.toplevel (Ident.name i) then
      ctx.unit_.u_modname ^ "." ^ Ident.name i
    else Ident.name i
  | Texp_ident (p, _, _) -> norm_name (Path.name p)
  | Texp_field (b, _, lbl) -> (
    match head_tycon b.exp_type with
    | Some t -> t ^ "." ^ lbl.Types.lbl_name
    | None -> "<field>." ^ lbl.Types.lbl_name)
  | Texp_open (_, b) -> lock_expr_name ctx b
  | _ -> "<lock>"

(* shared-location key for the first argument of a container access:
   module-level values only (unit toplevel or an external dotted path) *)
let shared_arg_key ctx (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident i, _, _)
    when Hashtbl.mem ctx.toplevel (Ident.name i) ->
    Some (ctx.unit_.u_modname ^ "." ^ Ident.name i)
  | Texp_ident ((Path.Pdot _ as p), _, _) -> Some (norm_name (Path.name p))
  | _ -> None

let field_key (base : expression) (lbl : Types.label_description) =
  match head_tycon base.exp_type with
  | Some t -> Some (t ^ "." ^ lbl.Types.lbl_name)
  | None -> None

let callee_name ctx (f : expression) =
  match f.exp_desc with
  | Texp_ident (p, _, _) -> Some (qualify ctx p)
  | _ -> None

let first_nolabel_arg args =
  List.find_map
    (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
    args

let record_access ctx ~key ~locks ~site ~write =
  let locks = List.sort_uniq compare locks in
  ctx.unit_.u_accesses <-
    { a_key = key; a_locks = locks; a_site = site; a_write = write }
    :: ctx.unit_.u_accesses

(* --- main per-unit walk ------------------------------------------------------------ *)

(* Walk one toplevel binding's expression, threading a mutable lock set
   through the control flow the typedtree exposes (sequences and lets run
   left to right under the default iterator, which is exactly source
   order), recording shared-location accesses, fork sites, blocking calls
   and same-unit call edges. *)
let walk_toplevel ctx ~fn_name (root : expression) =
  let src = ctx.unit_.u_source in
  let ls = ref [] in
  let owned = Hashtbl.create 8 in  (* idents bound to fresh record literals *)
  let blocking =
    match Hashtbl.find_opt ctx.blocking fn_name with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace ctx.blocking fn_name r;
      r
  in
  let calls =
    match Hashtbl.find_opt ctx.calls fn_name with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace ctx.calls fn_name r;
      r
  in
  let saved f =
    let s = !ls in
    f ();
    ls := s
  in
  let rec base_ident (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Some p
    | Texp_field (b, _, _) -> base_ident b
    | Texp_open (_, b) -> base_ident b
    | _ -> None
  in
  let it =
    let open Tast_iterator in
    let expr sub (e : expression) =
      match e.exp_desc with
      | Texp_function _ ->
        (* a lambda body runs when (and where) the closure is called, not
           here: locks held at the definition site do not apply *)
        saved (fun () ->
            ls := [];
            default_iterator.expr sub e)
      | Texp_ifthenelse (c, t, eo) ->
        sub.expr sub c;
        (* [if Lock.try_lock m then ...]: the then-branch holds m *)
        let extra =
          match c.exp_desc with
          | Texp_apply (f, args) -> (
            match callee_name ctx f with
            | Some n when List.exists (dotted_suffix n) trylock_fns -> (
              match first_nolabel_arg args with
              | Some m -> [ lock_expr_name ctx m ]
              | None -> [])
            | _ -> [])
          | _ -> []
        in
        saved (fun () ->
            ls := extra @ !ls;
            sub.expr sub t);
        (match eo with
         | Some e2 -> saved (fun () -> sub.expr sub e2)
         | None -> ())
      | Texp_match (scrut, cases, _) ->
        sub.expr sub scrut;
        List.iter (fun c -> saved (fun () -> sub.case sub c)) cases
      | Texp_try (b, cases) ->
        saved (fun () -> sub.expr sub b);
        List.iter (fun c -> saved (fun () -> sub.case sub c)) cases
      | Texp_while (c, b) ->
        sub.expr sub c;
        saved (fun () -> sub.expr sub b)
      | Texp_for (_, _, lo, hi, _, b) ->
        sub.expr sub lo;
        sub.expr sub hi;
        saved (fun () -> sub.expr sub b)
      | Texp_let (_, vbs, body) ->
        List.iter
          (fun vb ->
            (match (pat_ident vb.vb_pat, vb.vb_expr.exp_desc) with
             | Some id, Texp_record _ ->
               Hashtbl.replace owned (Ident.unique_name id) ()
             | _ -> ());
            sub.value_binding sub vb)
          vbs;
        sub.expr sub body
      | Texp_setfield (b, _, lbl, v) ->
        (match base_ident b with
         | Some (Path.Pident i)
           when Hashtbl.mem owned (Ident.unique_name i) ->
           () (* freshly built in this function: owned, not yet shared *)
         | _ -> (
           match field_key b lbl with
           | Some key ->
             record_access ctx ~key ~locks:!ls
               ~site:(loc_site e.exp_loc src) ~write:true
           | None -> ()));
        sub.expr sub b;
        sub.expr sub v
      | Texp_field (b, _, lbl) ->
        (if lbl.Types.lbl_mut = Asttypes.Mutable then
           match base_ident b with
           | Some (Path.Pident i)
             when Hashtbl.mem owned (Ident.unique_name i) ->
             ()
           | _ -> (
             match field_key b lbl with
             | Some key ->
               record_access ctx ~key ~locks:!ls
                 ~site:(loc_site e.exp_loc src) ~write:false
             | None -> ()));
        sub.expr sub b
      | Texp_ident (Path.Pident i, _, _)
        when Hashtbl.mem ctx.toplevel (Ident.name i) ->
        calls :=
          (Ident.name i, loc_site e.exp_loc src) :: !calls
      | Texp_apply (f, args) ->
        (match callee_name ctx f with
         | Some name ->
           let is set = List.exists (dotted_suffix name) set in
           (* lock-set transitions *)
           (if is lock_fns then
              match first_nolabel_arg args with
              | Some m -> ls := lock_expr_name ctx m :: !ls
              | None -> ()
            else if is unlock_fns then
              match first_nolabel_arg args with
              | Some m ->
                let n = lock_expr_name ctx m in
                ls := List.filter (fun x -> x <> n) !ls
              | None -> ());
           (* blocking-call inventory for rule 4 *)
           if is blocking_fns then
             blocking := (name, loc_site e.exp_loc src) :: !blocking;
           (* fork-site inventory for rules 1 and 4 *)
           if is fork_fns then (
             match first_nolabel_arg args with
             | Some thunk ->
               ctx.forks :=
                 (name, loc_site e.exp_loc src, thunk) :: !(ctx.forks)
             | None -> ());
           (* container accesses on shared values *)
           List.iter
             (fun (fn, write) ->
               if dotted_suffix name fn then
                 match first_nolabel_arg args with
                 | Some a -> (
                   match shared_arg_key ctx a with
                   | Some key ->
                     record_access ctx ~key ~locks:!ls
                       ~site:(loc_site e.exp_loc src) ~write
                   | None -> ())
                 | None -> ())
             container_access_fns;
           (* [Mutex.protect m (fun () -> body)]: body holds m.  Visit the
              protected lambda's cases directly so the function-resets-
              lockset rule above does not erase the guard. *)
           if is protect_fns then (
             match args with
             | (_, Some m) :: rest -> (
               let fn_arg = first_nolabel_arg rest in
               sub.expr sub f;
               sub.expr sub m;
               match fn_arg with
               | Some { exp_desc = Texp_function { cases; _ }; _ } ->
                 saved (fun () ->
                     ls := lock_expr_name ctx m :: !ls;
                     List.iter (sub.case sub) cases)
               | Some other -> sub.expr sub other
               | None -> ())
             | _ -> default_iterator.expr sub e)
           else default_iterator.expr sub e
         | None -> default_iterator.expr sub e)
      | _ -> default_iterator.expr sub e
    in
    { default_iterator with expr }
  in
  it.expr it root

(* --- capture / blocking analysis of forked thunks ---------------------------------- *)

(* Free-variable walk of a thunk: every ident bound inside the thunk
   (params, lets, match cases) is recorded before its scope is visited, so
   an unbound occurrence is a capture from an enclosing scope (or a
   module-level value). *)
let analyze_thunk ctx ~fork_name ~fork_site (thunk : expression) =
  let src = ctx.unit_.u_source in
  let bound = Hashtbl.create 32 in
  let ls = ref [] in
  let found = ref [] in
  let add_finding rf =
    if
      not
        (List.exists
           (fun f -> f.rf_rule = rf.rf_rule && f.rf_sites = rf.rf_sites)
           !found)
    then found := rf :: !found
  in
  let exempt_registry name =
    List.exists (fun p -> starts_with ~prefix:p name) registry_path_prefixes
  in
  let rec base_ident (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Some p
    | Texp_field (b, _, _) -> base_ident b
    | Texp_open (_, b) -> base_ident b
    | _ -> None
  in
  let is_bound = function
    | Path.Pident i -> Hashtbl.mem bound (Ident.unique_name i)
    | _ -> false
  in
  let it =
    let open Tast_iterator in
    let pat : type k. iterator -> k general_pattern -> unit =
     fun sub p ->
      (match p.pat_desc with
       | Tpat_var (id, _) -> Hashtbl.replace bound (Ident.unique_name id) ()
       | Tpat_alias (_, id, _) ->
         Hashtbl.replace bound (Ident.unique_name id) ()
       | _ -> ());
      default_iterator.pat sub p
    in
    let expr sub (e : expression) =
      match e.exp_desc with
      | Texp_ident (p, _, _) ->
        if not (is_bound p) then begin
          let name = qualify ctx p in
          let ty = head_tycon e.exp_type in
          if
            tycon_in ty capture_mutable_tycons
            && (not (exempt_registry name))
            && !ls = []
          then
            add_finding
              { rf_rule = "typed/capture-escape";
                rf_sites = [ loc_site e.exp_loc src; fork_site ];
                rf_message =
                  Printf.sprintf
                    "thunk forked via %s at %s captures `%s` : %s from an \
                     enclosing scope; a forked task may only reach mutable \
                     state through Atomic, a Mutex-guarded section, \
                     Domain.DLS or the obs/sanitize registries"
                    fork_name fork_site name
                    (match ty with Some t -> t | None -> "?") }
        end
      | Texp_setfield (b, _, lbl, v) ->
        (match base_ident b with
         | Some p when (not (is_bound p)) && !ls = [] ->
           let name = qualify ctx p in
           if not (exempt_registry name) then
             add_finding
               { rf_rule = "typed/capture-escape";
                 rf_sites = [ loc_site e.exp_loc src; fork_site ];
                 rf_message =
                   Printf.sprintf
                     "thunk forked via %s at %s writes mutable field `%s` \
                      of captured `%s`; racing writes from tasks need an \
                      Atomic or a lock-guarded accessor"
                     fork_name fork_site lbl.Types.lbl_name name }
         | _ -> ());
        sub.expr sub b;
        sub.expr sub v
      | Texp_apply (f, args) -> (
        match
          match f.exp_desc with
          | Texp_ident (p, _, _) -> Some (qualify ctx p)
          | _ -> None
        with
        | Some name ->
          let is set = List.exists (dotted_suffix name) set in
          if is blocking_fns then
            add_finding
              { rf_rule = "typed/blocking-in-task";
                rf_sites = [ loc_site e.exp_loc src; fork_site ];
                rf_message =
                  Printf.sprintf
                    "thunk forked via %s at %s calls blocking `%s`: the \
                     no-help scheduler parks the whole worker, stalling \
                     the pool"
                    fork_name fork_site name };
          if is protect_fns then (
            match args with
            | (_, Some m) :: rest -> (
              sub.expr sub f;
              sub.expr sub m;
              match first_nolabel_arg rest with
              | Some { exp_desc = Texp_function { cases; _ }; _ } ->
                let s = !ls in
                ls := "m" :: !ls;
                List.iter (sub.case sub) cases;
                ls := s
              | Some other -> sub.expr sub other
              | None -> ())
            | _ -> default_iterator.expr sub e)
          else begin
            (if is lock_fns then ls := "m" :: !ls
             else if is unlock_fns then
               ls := (match !ls with _ :: t -> t | [] -> []));
            default_iterator.expr sub e
          end
        | None -> default_iterator.expr sub e)
      | _ -> default_iterator.expr sub e
    in
    { default_iterator with expr; pat }
  in
  (* resolve an ident thunk to its same-unit definition (one hop) *)
  let target =
    match thunk.exp_desc with
    | Texp_ident (Path.Pident i, _, _) -> (
      match Hashtbl.find_opt ctx.toplevel (Ident.name i) with
      | Some def -> Some def
      | None -> None)
    | Texp_function _ -> Some thunk
    | _ -> None
  in
  (match target with Some e -> it.expr it e | None -> ());
  (* blocking calls reachable through same-unit helpers the thunk names *)
  let summaries = Hashtbl.create 16 in
  let rec summary seen fn =
    if List.mem fn seen then None
    else
      match Hashtbl.find_opt summaries fn with
      | Some s -> s
      | None ->
        let s =
          match Hashtbl.find_opt ctx.blocking fn with
          | Some { contents = (bname, bsite) :: _ } ->
            Some [ (bname, bsite) ]
          | _ -> (
            match Hashtbl.find_opt ctx.calls fn with
            | Some { contents = cs } ->
              List.find_map
                (fun (callee, csite) ->
                  match summary (fn :: seen) callee with
                  | Some chain ->
                    Some (("call " ^ callee, csite) :: chain)
                  | None -> None)
                (List.sort_uniq compare cs)
            | None -> None)
        in
        Hashtbl.replace summaries fn s;
        s
  in
  (match target with
   | Some e ->
     let callees = ref [] in
     let it2 =
       let open Tast_iterator in
       let expr sub (x : expression) =
         (match x.exp_desc with
          | Texp_ident (Path.Pident i, _, _)
            when Hashtbl.mem ctx.toplevel (Ident.name i) ->
            callees := (Ident.name i, loc_site x.exp_loc src) :: !callees
          | _ -> ());
         default_iterator.expr sub x
       in
       { default_iterator with expr }
     in
     it2.expr it2 e;
     List.iter
       (fun (callee, csite) ->
         match summary [] callee with
         | Some chain ->
           let steps =
             List.map (fun (n, s) -> Printf.sprintf "%s at %s" n s) chain
           in
           add_finding
             { rf_rule = "typed/blocking-in-task";
               rf_sites = [ csite; fork_site ];
               rf_message =
                 Printf.sprintf
                   "thunk forked via %s at %s reaches a blocking call \
                    through %s: %s"
                   fork_name fork_site callee
                   (String.concat " -> " steps) }
         | None -> ())
       (List.sort_uniq compare !callees)
   | None -> ());
  List.rev !found

(* --- path rules: nondeterminism and memory-model hazards ----------------------------- *)

(* When a path rule fires on a reference to a matching value. *)
type path_guard =
  | Anywhere
  | Unless_sorted
      (* silent when the call's value goes straight into a List/Array sort:
         as its argument, or through [|>] or [@@] *)
  | On_field of string
      (* only when applied to a record field of this name *)

type path_rule = {
  pr_id : string;
  pr_hit : string -> bool;  (* on the resolved value path *)
  pr_guard : path_guard;
  pr_message : string;
}

let path_rules =
  [ { pr_id = "nondet/hashtbl-order";
      pr_hit =
        (fun p ->
          p = "Stdlib.Hashtbl.iter" || p = "Stdlib.Hashtbl.fold"
          || starts_with ~prefix:"Stdlib.Hashtbl.to_seq" p);
      pr_guard = Unless_sorted;
      pr_message =
        "unordered Hashtbl iteration: hash order is an implementation \
         detail (and changes under OCAMLRUNPARAM=R); sort the result or \
         waive with the downstream normalization argument" };
    { pr_id = "nondet/wall-clock";
      pr_hit =
        (fun p ->
          List.mem p [ "Unix.gettimeofday"; "Unix.time"; "Stdlib.Sys.time" ]);
      pr_guard = Anywhere;
      pr_message =
        "wall-clock read: results must not depend on when they were \
         computed; timing that feeds only measurement output must be \
         waived as such" };
    { pr_id = "nondet/ambient-random";
      pr_hit =
        (fun p ->
          starts_with ~prefix:"Stdlib.Random." p
          && not (starts_with ~prefix:"Stdlib.Random.State." p));
      pr_guard = Anywhere;
      pr_message =
        "ambient Random.* generator: global RNG state makes results \
         depend on call interleaving; use an explicitly seeded \
         Random.State" };
    { pr_id = "nondet/domain-id";
      pr_hit = (fun p -> p = "Stdlib.Domain.self");
      pr_guard = Anywhere;
      pr_message =
        "Domain.self in code: domain identity varies with scheduling and \
         must never reach a result path" };
    { pr_id = "mm/physical-eq-key";
      pr_hit = (fun p -> p = "Stdlib.Obj.repr" || p = "Stdlib.Obj.magic");
      pr_guard = Anywhere;
      pr_message =
        "physical-equality / address-dependent key: object identity is \
         not a stable program input (moving GC, re-parsing) and poisons \
         memo tables" };
    { pr_id = "mm/naked-atomic-get";
      pr_hit = (fun p -> p = "Stdlib.Atomic.get");
      pr_guard = On_field "published";
      pr_message =
        "naked Atomic.get of a fence-protected field: .published is the \
         publication fence and may only be read as part of the documented \
         sync-retry protocol" } ]

let rule_ids =
  List.sort compare
    ([ "typed/blocking-in-task"; "typed/capture-escape";
       "typed/lock-discipline"; "typed/module-escape" ]
    @ List.map (fun r -> r.pr_id) path_rules)

let sort_fns =
  [ "Stdlib.List.sort"; "Stdlib.List.stable_sort"; "Stdlib.List.fast_sort";
    "Stdlib.List.sort_uniq"; "Stdlib.Array.sort"; "Stdlib.Array.stable_sort";
    "Stdlib.Array.fast_sort" ]

(* the path a module alias names: [module H = Hashtbl], possibly under a
   signature constraint *)
let rec alias_target (me : module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> alias_target me
  | _ -> None

(* Run the path-rule table over a whole unit.  A value path resolves
   through the module aliases the unit binds ([module H = Hashtbl],
   [let module H = ... in]); [open] and [M.(e)] need no help, since the
   typer already records the qualified path. *)
let path_rule_findings ~src (str : structure) =
  let aliases = Hashtbl.create 8 in
  let rec resolve = function
    | Path.Pident id -> (
      match Hashtbl.find_opt aliases (Ident.unique_name id) with
      | Some target -> target
      | None -> norm_name (Ident.name id))
    | Path.Pdot (q, s) -> resolve q ^ "." ^ s
    | p -> norm_name (Path.name p)
  in
  let bind id me =
    match (id, alias_target me) with
    | Some id, Some p ->
      Hashtbl.replace aliases (Ident.unique_name id) (resolve p)
    | _ -> ()
  in
  let name (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Some (resolve p)
    | _ -> None
  in
  (* the function an application chain finally calls: the typer turns
     [x |> List.sort cmp] and [List.sort cmp @@ x] into
     [(List.sort cmp) x] *)
  let rec head (e : expression) =
    match e.exp_desc with Texp_apply (f, _) -> head f | _ -> e
  in
  let is_sort (e : expression) =
    match name (head e) with Some n -> List.mem n sort_fns | None -> false
  in
  (* the callee of an argument that is itself a call *)
  let callee (a : expression) =
    match a.exp_desc with Texp_apply (f, _) -> Some (head f) | _ -> None
  in
  let sorted = ref [] in
  let found = ref [] in
  let fire r (at : expression) =
    found :=
      { rf_rule = r.pr_id;
        rf_sites = [ loc_site at.exp_loc src ];
        rf_message = r.pr_message }
      :: !found
  in
  let it =
    let open Tast_iterator in
    let module_binding sub mb =
      bind mb.mb_id mb.mb_expr;
      default_iterator.module_binding sub mb
    in
    let expr sub (e : expression) =
      (match e.exp_desc with
       | Texp_letmodule (id, _, _, me, _) -> bind id me
       | Texp_ident _ ->
         Option.iter
           (fun n ->
             List.iter
               (fun r ->
                 let fires =
                   match r.pr_guard with
                   | Anywhere -> true
                   | Unless_sorted -> not (List.memq e !sorted)
                   | On_field _ -> false
                 in
                 if fires && r.pr_hit n then fire r e)
               path_rules)
           (name e)
       | Texp_apply (f, args) ->
         (* calls whose value goes straight into a sort *)
         if is_sort f then
           List.iter
             (fun (_, a) ->
               Option.iter (fun c -> sorted := c :: !sorted)
                 (Option.bind a callee))
             args;
         Option.iter
           (fun n ->
             List.iter
               (fun r ->
                 match (r.pr_guard, first_nolabel_arg args) with
                 | On_field lbl, Some { exp_desc = Texp_field (_, _, l); _ }
                   when l.Types.lbl_name = lbl && r.pr_hit n ->
                   fire r f
                 | _ -> ())
               path_rules)
           (name f)
       | _ -> ());
      default_iterator.expr sub e
    in
    { default_iterator with expr; module_binding }
  in
  it.structure it str;
  !found

(* --- toplevel mutable-state classification ----------------------------------------- *)

let classify_global ctx (vb : value_binding) =
  match pat_ident vb.vb_pat with
  | Some id -> (
    let name = Ident.name id in
    let key = ctx.unit_.u_modname ^ "." ^ name in
    let ty = head_tycon vb.vb_expr.exp_type in
    if tycon_in ty sync_tycons then None
    else if tycon_in ty global_mutable_tycons then
      Some
        { g_key = key;
          g_kind = (match ty with Some t -> t | None -> "?");
          g_site = loc_site vb.vb_pat.pat_loc ctx.unit_.u_source }
    else
      match vb.vb_expr.exp_desc with
      | Texp_record { fields; _ }
        when Array.exists
               (fun (l, _) -> l.Types.lbl_mut = Asttypes.Mutable)
               fields ->
        Some
          { g_key = key;
            g_kind = "record with mutable fields";
            g_site = loc_site vb.vb_pat.pat_loc ctx.unit_.u_source }
      | _ -> None)
  | _ -> None

(* --- unit scan --------------------------------------------------------------------- *)

let scan_unit cfg (cmt : Cmt_format.cmt_infos) =
  match cmt.cmt_annots with
  | Cmt_format.Implementation str ->
    let source =
      match cmt.cmt_sourcefile with
      | Some s -> s
      | None -> cmt.cmt_modname ^ ".ml"
    in
    let modname = norm_name cmt.cmt_modname in
    let sanctioned =
      List.exists
        (fun frag -> Lint_common.contains source frag)
        cfg.sanctioned_path_fragments
    in
    let unit_ =
      { u_modname = modname;
        u_source = source;
        u_imports =
          List.sort_uniq compare
            (List.map (fun (n, _) -> norm_name n) cmt.cmt_imports);
        u_entry =
          List.exists
            (fun p -> starts_with ~prefix:p source)
            cfg.entry_path_prefixes;
        u_sanctioned = sanctioned;
        u_accesses = [];
        u_globals = [];
        u_raw = [] }
    in
    let ctx =
      { cfg;
        unit_;
        toplevel = Hashtbl.create 64;
        top_order = ref [];
        blocking = Hashtbl.create 16;
        calls = Hashtbl.create 16;
        forks = ref [] }
    in
    (* pass 0: toplevel bindings (so [qualify] resolves unit-local names) *)
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match pat_ident vb.vb_pat with
              | Some id ->
                let n = Ident.name id in
                if not (Hashtbl.mem ctx.toplevel n) then
                  ctx.top_order := n :: !(ctx.top_order);
                Hashtbl.replace ctx.toplevel n vb.vb_expr
              | None -> ())
            vbs
        | _ -> ())
      str.str_items;
    (* entry points by qualified value name *)
    let entry_by_name =
      List.exists
        (fun n ->
          List.exists
            (fun ep -> dotted_suffix (modname ^ "." ^ n) ep)
            cfg.entry_points)
        !(ctx.top_order)
    in
    unit_.u_entry <- unit_.u_entry || entry_by_name;
    (* pass 1: walk every toplevel binding *)
    let anon = ref 0 in
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let fn_name =
                match pat_ident vb.vb_pat with
                | Some id -> Ident.name id
                | None ->
                  incr anon;
                  Printf.sprintf "<init:%d>" !anon
              in
              (match classify_global ctx vb with
               | Some g -> unit_.u_globals <- g :: unit_.u_globals
               | None -> ());
              walk_toplevel ctx ~fn_name vb.vb_expr)
            vbs
        | Tstr_eval (e, _) ->
          incr anon;
          walk_toplevel ctx
            ~fn_name:(Printf.sprintf "<init:%d>" !anon)
            e
        | _ -> ())
      str.str_items;
    (* pass 2: capture/escape + blocking analysis of every fork site *)
    List.iter
      (fun (fork_name, fork_site, thunk) ->
        let fs = analyze_thunk ctx ~fork_name ~fork_site thunk in
        unit_.u_raw <- fs @ unit_.u_raw)
      (List.rev !(ctx.forks));
    (* pass 3: the path rules, over every expression of the unit *)
    unit_.u_raw <- path_rule_findings ~src:source str @ unit_.u_raw;
    Some unit_
  | _ -> None

(* --- cross-unit analysis ----------------------------------------------------------- *)

let intersect a b = List.filter (fun x -> List.mem x b) a

(* lock-discipline verdicts over the merged access lists *)
let lock_discipline_findings units =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun u ->
      if not u.u_sanctioned then
        List.iter
          (fun a ->
            let cur =
              match Hashtbl.find_opt by_key a.a_key with
              | Some l -> l
              | None -> []
            in
            Hashtbl.replace by_key a.a_key (a :: cur))
          u.u_accesses)
    units;
  let keys =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_key [])
  in
  List.filter_map
    (fun key ->
      let accs = Hashtbl.find by_key key in
      let seeded = List.exists (fun a -> a.a_locks <> []) accs in
      if not seeded then None
      else
        let inter =
          List.fold_left
            (fun acc a ->
              match acc with
              | None -> Some a.a_locks
              | Some l -> Some (intersect l a.a_locks))
            None accs
        in
        match inter with
        | Some [] ->
          let offending =
            List.sort compare
              (List.filter_map
                 (fun a ->
                   if a.a_locks = [] then Some a.a_site else None)
                 accs)
          in
          let locked_example =
            match List.find_opt (fun a -> a.a_locks <> []) accs with
            | Some a ->
              Printf.sprintf "{%s} at %s" (String.concat "," a.a_locks)
                a.a_site
            | None -> "?"
          in
          let sites =
            match offending with
            | [] ->
              (* no unlocked access: disjoint nonempty lock sets *)
              List.sort_uniq compare (List.map (fun a -> a.a_site) accs)
            | o -> o
          in
          Some
            { rf_rule = "typed/lock-discipline";
              rf_sites = sites;
              rf_message =
                Printf.sprintf
                  "shared mutable location `%s` is lock-guarded (%s) but \
                   accessed under %s lock set elsewhere: every access \
                   must share a common lock"
                  key locked_example
                  (if offending = [] then "a disjoint" else "an empty") }
        | _ -> None)
    keys

let module_escape_findings cfg units rule2_keys =
  let by_name = Hashtbl.create 64 in
  List.iter (fun u -> Hashtbl.replace by_name u.u_modname u) units;
  (* unit-level reachability from the entry units over cmt imports *)
  let reachable = Hashtbl.create 64 in
  let rec visit via name =
    match Hashtbl.find_opt by_name name with
    | Some u ->
      if not (Hashtbl.mem reachable name) then begin
        Hashtbl.replace reachable name via;
        List.iter (visit via) u.u_imports
      end
    | None -> ()
  in
  List.iter (fun u -> if u.u_entry then visit u.u_modname u.u_modname) units;
  (* locksets observed per global key, merged across units *)
  let guard = Hashtbl.create 64 in
  List.iter
    (fun u ->
      List.iter
        (fun a ->
          let cur =
            match Hashtbl.find_opt guard a.a_key with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace guard a.a_key (a.a_locks :: cur))
        u.u_accesses)
    units;
  let consistently_guarded key =
    match Hashtbl.find_opt guard key with
    | Some (l0 :: rest) ->
      List.fold_left intersect l0 rest <> []
    | _ -> false
  in
  List.concat_map
    (fun u ->
      if u.u_sanctioned then []
      else
        match Hashtbl.find_opt reachable u.u_modname with
        | None -> []
        | Some via ->
          List.filter_map
            (fun g ->
              if List.mem g.g_key rule2_keys then
                None (* rule 2 already diagnosed the inconsistency *)
              else if consistently_guarded g.g_key then None
              else
                Some
                  { rf_rule = "typed/module-escape";
                    rf_sites = [ g.g_site ];
                    rf_message =
                      Printf.sprintf
                        "module-level mutable state `%s` (%s) is reachable \
                         from flow entry point%s without a synchronization \
                         wrapper: route it through Atomic, a consistently \
                         held lock, Domain.DLS, or the obs/sanitize \
                         registries"
                        g.g_key g.g_kind
                        (if via = u.u_modname then ""
                         else " via " ^ via) })
            (List.sort compare u.u_globals))
    (List.sort (fun a b -> compare a.u_modname b.u_modname) units)
  |> fun fs ->
  ignore cfg;
  fs

(* --- waiver application ------------------------------------------------------------ *)

type result = {
  findings : finding list;
  files_scanned : int;
  rules_fired : (string * int) list;
  waivers_honored : int;
}

let finding_of_raw rf =
  { rule_id = rf.rf_rule;
    severity = Sanitize.Error;
    sites = rf.rf_sites;
    message = rf.rf_message }

(* in-source waivers of the scanned units' sources, with the findings for
   unjustified and unknown-rule markers, cached per file *)
let source_waivers cfg =
  let cache = Hashtbl.create 16 in
  fun path ->
    match Hashtbl.find_opt cache path with
    | Some r -> r
    | None ->
      let full = Filename.concat cfg.source_root path in
      let r =
        if Sys.file_exists full then begin
          let ic = open_in_bin full in
          let content = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Lint_common.line_waivers ~known:rule_ids ~path content
        end
        else ([], [])
      in
      Hashtbl.replace cache path r;
      r

let site_file_line site =
  match String.rindex_opt site ':' with
  | Some i -> (
    let f = String.sub site 0 i in
    match
      int_of_string_opt
        (String.sub site (i + 1) (String.length site - i - 1))
    with
    | Some l -> Some (f, l)
    | None -> None)
  | None -> None

let scan_cmt_files ?(config = default_config) ?(waivers = []) paths =
  let cfg = config in
  let units =
    List.filter_map
      (fun path ->
        match
          try Some (Cmt_format.read_cmt path) with _ -> None
        with
        | Some cmt -> scan_unit cfg cmt
        | None -> None)
      (List.sort compare paths)
  in
  (* dedupe by source (an exe and a lib can compile the same module) *)
  let units =
    let seen = Hashtbl.create 32 in
    List.filter
      (fun u ->
        if Hashtbl.mem seen u.u_source then false
        else begin
          Hashtbl.replace seen u.u_source ();
          true
        end)
      units
  in
  let raw_rule2 = lock_discipline_findings units in
  let rule2_keys =
    List.filter_map
      (fun rf ->
        (* the key is rendered inside backquotes in the message *)
        match String.index_opt rf.rf_message '`' with
        | Some i -> (
          match String.index_from_opt rf.rf_message (i + 1) '`' with
          | Some j ->
            Some (String.sub rf.rf_message (i + 1) (j - i - 1))
          | None -> None)
        | None -> None)
      raw_rule2
  in
  let raw =
    List.concat_map (fun u -> List.rev u.u_raw) units
    @ raw_rule2
    @ module_escape_findings cfg units rule2_keys
  in
  let fired = Hashtbl.create 8 in
  List.iter
    (fun rf ->
      let c =
        match Hashtbl.find_opt fired rf.rf_rule with
        | Some c -> c
        | None -> 0
      in
      Hashtbl.replace fired rf.rf_rule (c + 1))
    raw;
  (* waiver application: a finding is suppressed when any of its sites is
     covered by a justified in-source waiver for the rule, or when a
     file-level waiver's path fragment matches a site's file *)
  let lookup = source_waivers cfg in
  let used = ref [] in  (* line waivers that suppressed something *)
  let used_files = ref [] in  (* likewise, LINT_WAIVERS entries *)
  let honored = ref 0 in
  let survives rf =
    (* evaluate every site against every waiver (no short-circuit): a
       waiver covering any site of a suppressed finding counts as used *)
    let line_waived = ref false in
    List.iter
      (fun site ->
        match site_file_line site with
        | Some (f, l) ->
          List.iter
            (fun w ->
              if
                w.Lint_common.lw_rule = rf.rf_rule
                && List.mem l w.Lint_common.lw_covers
              then begin
                used := w :: !used;
                incr honored;
                line_waived := true
              end)
            (fst (lookup f))
        | None -> ())
      rf.rf_sites;
    let line_waived = !line_waived in
    if line_waived then false
    else
      let file_waived =
        List.exists
          (fun w ->
            w.Lint_common.w_rule = rf.rf_rule
            && List.exists
                 (fun site ->
                   match site_file_line site with
                   | Some (f, _) ->
                     if Lint_common.contains f w.Lint_common.w_path then begin
                       used_files := w :: !used_files;
                       incr honored;
                       true
                     end
                     else false
                   | None -> false)
                 rf.rf_sites)
          waivers
      in
      not file_waived
  in
  let surviving = List.filter survives raw in
  (* the waiver discipline: unjustified and unknown-rule markers, and any
     marker or LINT_WAIVERS entry that suppressed nothing *)
  let stale_entries =
    List.filter_map
      (fun w ->
        if List.memq w !used_files then None
        else
          Some
            { rule_id = "lint/waiver-unused";
              severity = Sanitize.Error;
              sites = [ Printf.sprintf "LINT_WAIVERS(%s)" w.Lint_common.w_path ];
              message =
                Printf.sprintf
                  "file waiver for %s on %S suppresses nothing — remove it"
                  w.Lint_common.w_rule w.Lint_common.w_path })
      waivers
  in
  let marker_findings =
    List.concat_map
      (fun u ->
        let ws, probs = lookup u.u_source in
        probs
        @ List.filter_map
            (fun w ->
              if List.memq w !used then None
              else
                Some
                  { rule_id = "lint/waiver-unused";
                    severity = Sanitize.Error;
                    sites =
                      [ Printf.sprintf "%s:%d" u.u_source
                          w.Lint_common.lw_line ];
                    message =
                      Printf.sprintf
                        "waiver for %s suppresses nothing — remove it"
                        w.Lint_common.lw_rule })
            ws)
      units
  in
  let findings =
    List.sort_uniq compare
      (List.map finding_of_raw surviving @ marker_findings @ stale_entries)
  in
  { findings;
    files_scanned = List.length units;
    rules_fired =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) fired []);
    waivers_honored = !honored }

(* --- metrics ----------------------------------------------------------------------- *)

let publish_stats r =
  let set name v =
    Obs.Metrics.set_gauge (Obs.Metrics.gauge name) (float_of_int v)
  in
  set "typedlint.files_scanned" r.files_scanned;
  set "typedlint.findings" (List.length r.findings);
  set "typedlint.waivers_honored" r.waivers_honored;
  set "typedlint.rules_fired"
    (List.fold_left (fun a (_, c) -> a + c) 0 r.rules_fired);
  List.iter
    (fun (rule, c) -> set ("typedlint.fired." ^ rule) c)
    r.rules_fired
