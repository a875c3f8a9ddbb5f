(** Minimal JSON values: rendering with correct escaping, and a strict
    parser.

    The observability layer emits (traces, metrics, benchmark baselines)
    and validates (tests, CI smoke) JSON without any external dependency —
    this module is that common currency.  It is deliberately small: one
    value type, one renderer with its string escaper, one parser, one
    accessor. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Raw of string
      (** Verbatim, already-rendered compact JSON: exactly one value,
          written with this module's rendering rules, every string in it
          through {!add_escaped}, so it is valid JSON.  Only a renderer
          that writes such text itself builds one: the
          {!Minup_core.Wire} solution writer does, to hand a reply it
          filled into one buffer to [to_string (Wire.to_json _)] without
          building a tree.  {!parse} never returns it, and {!member} sees
          no fields in it. *)

(** Render to a compact (or, with [~pretty:true], indented) JSON string.
    Integral [Num]s of magnitude below 1e15 print without a decimal point;
    non-finite numbers render as [null] to keep the output valid JSON.
    Compact output copies a [Raw] as it is (a top-level one {e is} the
    result, not a copy of it); [~pretty:true] parses a [Raw] and indents
    it like any other value, so pretty output does not depend on whether
    a value arrived as a tree or as [Raw].  Raises [Invalid_argument] on a
    [Raw] that is not JSON, which only a broken contract produces. *)
val to_string : ?pretty:bool -> t -> string

(** [add_escaped buf s] writes the body of the JSON string literal for
    [s], without its quotes: ['"'], ['\\'] and the control bytes below
    0x20 as escapes ([\n], [\r], [\t], else [\u00XX]), every other byte,
    DEL and UTF-8 sequences included, as it is.  Each run of bytes that
    needs no escape is copied whole.  Every [Str] and object key that
    {!to_string} writes goes through it. *)
val add_escaped : Buffer.t -> string -> unit

(** Strict parse of a complete JSON document (trailing garbage is an
    error).  Handles the full string escape set including [\uXXXX]
    (exactly four hex digits) and surrogate pairs (decoded to UTF-8); a
    raw control byte (below 0x20) inside a string is an error, as JSON
    requires.  Never returns [Raw]. *)
val parse : string -> (t, string) result

(** [member k j] is the value of field [k] if [j] is an object that has
    one. *)
val member : string -> t -> t option
