(** Source-level plumbing of the typed lint ({!Typedlint}): the OCaml
    lexer-subset comment/string stripper and the justified-waiver
    machinery (in-source [lint-waive] markers plus the [LINT_WAIVERS]
    file).  Findings use the {!Sanitize.finding} shape.  The waiver
    discipline: every suppression carries a justification, names a known
    rule, and a suppression that stops matching anything is itself a
    finding, so the waiver set can only shrink. *)

type finding = Sanitize.finding = {
  rule_id : string;
  severity : Sanitize.severity;
  sites : string list;
  message : string;
}

val contains : string -> string -> bool
(** [contains hay needle] — substring test ([false] for the empty
    needle). *)

(** {1 Comment / string stripping}

    A faithful-enough OCaml lexer subset: nested [(* *)] comments
    (including strings, [{| |}] / [{id| |id}] quoted strings and char
    literals {e inside} comments, which the real lexer also balances),
    double-quoted strings with escapes, quoted strings with identifier
    delimiters, and char literals (so ['"'] opens no string, in code or
    in a comment). *)

val strip_lines : string -> string list * string array
(** Strip a whole file: returns the raw lines and the code-only lines. *)

(** {1 Waivers} *)

val min_reason_len : int
(** Minimum justification length for any waiver. *)

type line_waiver = {
  lw_line : int;       (** the marker's own line *)
  lw_rule : string;
  lw_covers : int list;  (** lines the waiver suppresses *)
}

val line_waivers :
  known:string list -> path:string -> string -> line_waiver list * finding list
(** [line_waivers ~known ~path content] finds every in-source
    [(* lint-waive: <rule> — <justification> *)] marker.  Only a marker
    the stripper places inside a comment counts; one inside a string
    literal is text.  A marker sharing its line with code covers exactly
    that line; a standalone comment covers every line down to (and
    including) the first following code line.  Unjustified markers come
    back as [lint/waiver-unjustified] findings and markers naming a rule
    outside [known] as [lint/waiver-unknown-rule]; neither is returned as
    a waiver. *)

type waiver = {
  w_rule : string;
  w_path : string;  (** substring matched against the scanned path *)
  w_reason : string;
}

val parse_waivers : string -> waiver list * finding list
(** Parse a [LINT_WAIVERS] file body (one waiver per line, [#]-comments
    and blank lines ignored).  Malformed or unjustified lines come back
    as findings. *)
