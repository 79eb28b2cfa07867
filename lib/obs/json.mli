(** The one JSON codec of the tree: every JSON document the programs write
    is built as a {!t} and printed by {!to_string}, and the daemon protocol
    reads requests with {!parse}.

    Zero dependencies, by the same policy as the rest of the tree.  The
    printer has one layout: compact single-line documents with object
    fields in the order given, so documents built from the same data are
    byte-identical — the daemon protocol's determinism contract rests on
    that.  Strings are escaped per RFC 8259: quote, backslash, newline,
    carriage return and tab take their two-character escapes, the other
    bytes below 0x20 take [\u00XX], and every other byte, UTF-8
    included, passes through.  Floats print as the shortest
    [%g] digits that [float_of_string] reads back exactly; integral floats
    below 2{^53} print as [x.0]; non-finite floats print as [null], so the
    printer never emits a token {!parse} rejects.

    The parser is a plain recursive-descent over the byte string with a
    nesting-depth cap, so adversarial input fails with a structured error
    instead of a stack overflow.  Unicode escapes decode to UTF-8;
    numbers without [.], [e] or [E] parse as [Int], everything else as
    [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** [Error msg] carries a byte-offset-annotated reason.  Trailing
    whitespace is accepted; trailing garbage is an error. *)

val to_string : t -> string
(** Compact single-line rendering; no trailing newline.  Object field
    order is preserved. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on missing field or non-object. *)

val to_str : t -> string option
val to_int : t -> int option
(** [Int] directly; integral [Float]s convert. *)

val to_bool : t -> bool option
val to_float : t -> float option
(** [Float] or [Int]. *)

val mem_str : string -> t -> string option
val mem_int : string -> t -> int option
val mem_bool : string -> t -> bool option
val mem_float : string -> t -> float option
(** [mem_* f j] = accessor composed with {!member}. *)
