(** Text format for classification-constraint files.

    Line-based; [#] starts a comment.  Syntax:

    {v
    attrs name, salary, rank          # optional attribute declarations
    salary >= Confidential            # basic constraint
    {name, salary} >= Secret          # association constraint
    lub{rank, department} >= salary   # inference constraint ("lub" optional)
    name <= Secret                    # upper-bound constraint (§6)
    v}

    The right-hand side of a [>=] line is kept as a raw string and resolved
    against a lattice afterwards ({!parse_resolve}): declared or
    left-hand-side attributes win, then lattice level names, then fresh
    attributes.  This lets level syntaxes as rich as compartmented classes
    ([TS:{Army,Nuclear}]) appear on the right-hand side.

    Cost: {!parse_resolve} and {!rows} share one scan of the
    text: one pass over each line's bytes, which classifies each byte
    through a table, follows the grammar, and hashes and interns each
    name as it reads it, into a {!Problem.Names} table that copies each
    distinct name once.  Only a bad line is read a second time, to name
    its error.  Lines are recorded as name ids in flat int arrays: the
    [>=] lines' lhs members one line after another, each line's end
    among them, and its right-hand side.  {!parse_resolve} and {!rows}
    share one resolution of those arrays, which resolves each distinct
    right-hand side once, and differ only in what they emit:
    {!parse_resolve} builds [Cst.t] lists of names (an lhs the scan found
    repeating is its error; every other is built unchecked), and {!rows}
    hands the scan's arrays on as the {!Problem.lines}, renumbered in
    place — each member id to its attribute id, each right-hand side id
    to its code — so it allocates no array per line, only the lines'
    [kept] flags and one level entry per distinct level name; the scan's
    table, renumbered in place too, becomes its name index.  No name is
    hashed after the scan, and {!rows} builds no [Cst.t] and no
    constraint store: {!Problem.of_lines} does that.  The arrays start
    at a size read off the text's length, so a one-line policy allocates
    a few hundred words and an [n]-line one O(n): on the 8k-attribute
    acyclic policy {!rows} allocates about 12 words per constraint. *)

type error = { line : int; message : string }

(** [is_ident name] — [name] is an attribute name the syntax can express:
    non-empty, of letters, digits, [_], [.] and [-] only. *)
val is_ident : string -> bool

(** The scanner's byte classes: [is_ident_char c] — [c] may appear in a
    name; [is_space c] — [c] is white space between tokens (space, tab,
    form feed, carriage return, newline). *)
val is_ident_char : char -> bool

val is_space : char -> bool

val pp_error : Format.formatter -> error -> unit

type 'lvl resolved = {
  attrs : string list;  (** the attribute universe, declaration order *)
  csts : 'lvl Cst.t list;
  upper_bounds : (string * 'lvl) list;
}

(** Parse and resolve against a lattice's level names.  The first syntax
    error in the file wins; otherwise the first [>=] line whose lhs
    repeats a member, then the first [<=] line whose bound is not a
    level. *)
val parse_resolve :
  level_of_string:(string -> 'lvl option) ->
  string ->
  ('lvl resolved, error) result

(** A policy resolved straight to lines over attribute ids: what
    [Problem.compile ~attrs csts] reads of [parse_resolve]'s
    [{attrs; csts; _}], without building the [Cst.t] list. *)
type 'lvl rows = {
  attr_index : Problem.Names.t;
      (** name ↔ id, every attribute: the scan's own table, renumbered in
          place into {!parse_resolve}'s [attrs] order, so id [i] is name
          [i] of its {!Problem.Names.names} and it has exactly the
          universe's names *)
  lines : 'lvl Problem.lines;
      (** one line per [>=] line, in file order: its lhs ids as written,
          its right-hand side code, and [kept] false iff it is trivially
          satisfied (rhs ∈ lhs); [kept] is exact, the other arrays are
          the scan's and may be longer *)
  upper_bounds : (string * 'lvl) list;
}

(** [rows ~level_of_string text] — {!parse_resolve} without its lists:
    the same resolution, the same first error (line and message), and
    lines from which {!Problem.of_lines} builds the problem
    [Problem.compile ~attrs csts] builds from {!parse_resolve}'s result,
    with the same names.  Linear in the text.  Traced as [parse.rows]
    (category [constraints]). *)
val rows :
  level_of_string:(string -> 'lvl option) -> string -> ('lvl rows, error) result

(** Render a resolved policy back to the file format; [parse_resolve] of
    the result reproduces it (attribute order, constraints, bounds). *)
val render : level_to_string:('lvl -> string) -> 'lvl resolved -> string
