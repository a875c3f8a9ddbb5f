(** Compiled constraint problems.

    A problem is a set of constraints over an interned attribute universe,
    indexed the way Algorithm 3.1 needs: for every attribute [A], the
    constraints whose left-hand side contains [A] ([Constr[A]] in the
    paper) and the constraints whose right-hand side is [A] (used by the
    backward DFS of the priority computation and by upper-bound
    propagation). *)

(** A right-hand side, decoded ({!rhs}). *)
type 'lvl rhs = Rlevel of 'lvl | Rattr of int

(** A policy's [>=] lines over attribute ids, as {!Parse.rows} reads them
    and a session keeps them, flat: line [i] has the lhs ids
    [tgt.(off.(i)) .. tgt.(off.(i+1) - 1)], in written order and
    duplicate-free (compressed rows like {!csr}'s, but unsorted), and the
    right-hand side code [rhs.(i)] ({!rhs_is_attr}, or {!level_code}[ j]
    for [levels.(j)]).  It is a constraint of the problem built from them
    iff [kept.(i)]: not for a trivially satisfied line (rhs ∈ lhs, §3),
    nor for a line a session removed; a line that is not kept is never
    read.  There are [Array.length kept] lines unless {!of_lines} is told
    a [count]: [off], [tgt] and [rhs] may be longer than they need (the
    scanner's own arrays, or a session's room to grow).  Lines may share
    a level entry, and [levels] may hold entries no kept line reads. *)
type 'lvl lines = {
  off : int array;
  tgt : int array;
  rhs : int array;
  levels : 'lvl array;
  kept : bool array;
}

(** A compressed-sparse-row array of int rows: row [r] is
    [tgt.(off.(r)) .. tgt.(off.(r+1) - 1)], with [off.(0) = 0].  Every
    row is in ascending order.  Over [k] rows, [off] has at least [k + 1]
    entries and [tgt] at least [off.(k)]: a session's problems keep room
    to spare there ({!room}); anything past the last row is not part of
    the index.  A {!compile}d problem's arrays are exact. *)
type csr = { off : int array; tgt : int array }

(** The constraints themselves, flat: no record or box per constraint.
    There are [rows] of them; constraint [ci < rows] is
    - its left-hand side, row [ci] of [lhs]: attribute ids, ascending and
      duplicate-free;
    - its right-hand side [rhs.(ci)], a code: an attribute id
      ({!rhs_is_attr}), or {!level_code}[ j] for the level [levels.(j)].
      Level right-hand sides are numbered in constraint order: the [j]-th
      constraint with a level right-hand side is [level_code j].
    Constraints are in source order: {!compile} keeps the input's order
    (less the dropped ones), and every reader — the solver's Bigloop,
    [Try], the priority DFS — visits them in ascending index, so every
    level and [Instr] counter depends on that order.  The arrays may be
    longer than [rows] needs (see {!csr}); a store built with [Exact]
    room has none to spare. *)
type 'lvl store = { rows : int; lhs : csr; rhs : int array; levels : 'lvl array }

(** [rhs_is_attr r]: the right-hand side code [r] is an attribute id;
    otherwise it is [level_code j] for [levels.(rhs_level_index r)].
    An attribute code is [>= 0], a level code negative: the solver's
    inner loops test that themselves, since a call here from another
    module is not inlined. *)
val rhs_is_attr : int -> bool

val rhs_level_index : int -> int
val level_code : int -> int

(** The one name table: names numbered [0, 1, …] in the order they are
    added, in a flat open-addressing table keyed by their FNV-1a hash
    ([h := (h lxor byte) * 0x100000001b3] from [0x811c9dc5], in OCaml's
    63-bit ints).  A lookup hashes the name once and compares it with [==]
    before its bytes, so a string handed back by the table it came from
    is found without a byte compare.  {!Parse}'s scanner interns each
    name of a policy here, {!compile} and a session index their
    attributes with it, and {!Parse.rows} hands its scan's table on as
    the attribute index. *)
module Names : sig
  type t

  (** [create n] — an empty table with room for [n] names before it
      grows. *)
  val create : int -> t

  (** [add t name] — [name]'s id, numbered [length t] first if it is
      new. *)
  val add : t -> string -> int

  (** [add_slice t text s e h] — [add t (String.sub text s (e - s))],
      given that slice's hash [h]; the slice is copied only if it is
      new. *)
  val add_slice : t -> string -> int -> int -> int -> int

  val find : t -> string -> int  (** @raise Not_found *)

  val find_opt : t -> string -> int option
  val length : t -> int

  (** [names t] — the table's own array of names by id: entry [i] is
      name [i] for [i < length t], and entries past that are not names.
      It is not a copy, but once full it is never written again. *)
  val names : t -> string array

  (** [renumber t ids names] — name [x] of [t] takes the id [ids.(x)],
      or leaves [t] if that is negative; [names] lists the names kept by
      their new ids, and becomes [t]'s own.  One pass over the table: no
      name is hashed or compared. *)
  val renumber : t -> int array -> string array -> unit
end

type 'lvl t = private {
  attr_index : Names.t;
      (** name ↔ id; attribute [i < n_attrs] is named by entry [i] of
          its {!Names.names}, the one copy of the names *)
  n_attrs : int;  (** the universe: ids [0 .. n_attrs - 1] *)
  store : 'lvl store;  (** the kept constraints *)
  complex_idx : int array;
      (** dense numbering of the complex constraints (lhs of two or more
          attributes): [complex_idx.(ci)] is a dense id in
          [0 .. n_complex-1], or [-1] if [ci] is simple.  The solver's
          incremental lhs-lub aggregates walk [constr_of] and skip the
          (typically dominant) simple rows by it *)
  n_complex : int;  (** number of complex constraints *)
  constr_of : csr;
      (** row [a] — indices of constraints with [a] in their lhs
          ([Constr[A]] in the paper): the transpose of [store.lhs] *)
  incoming : csr;  (** row [a] — indices of constraints whose rhs is [a] *)
}
(** The two indexes are flat int arrays, built together in two linear
    sweeps over the store — one counts every index row, one fills them
    both — in ascending constraint index, so each of their rows is
    ascending too.  Building a problem allocates a constant number of
    words per constraint and per attribute, all of it in a fixed number
    of arrays: no block per constraint, and no copy of the names. *)

(** [compile] cannot fail: every [Cst.t] compiles. *)
type error = |

val pp_error : Format.formatter -> error -> unit

(** [compile ?attrs csts] interns attributes and indexes constraints,
    dropping each trivially satisfied one (rhs ∈ lhs, §3) but interning
    its attributes: one pass over [csts] counts the kept rows, their lhs
    ids and their level right-hand sides, and one writes them into the
    store.  Attribute ids follow [attrs] order first, then first mention
    among the constraints. *)
val compile : ?attrs:string list -> 'lvl Cst.t list -> ('lvl t, error) result

val compile_exn : ?attrs:string list -> 'lvl Cst.t list -> 'lvl t

(** Where a build puts its arrays.  [Exact]: fresh arrays of exactly the
    needed length.  [Spare]: fresh arrays with an eighth more room, so
    that a later build of about the same size can [Reuse] them.
    [Reuse p]: [p]'s own arrays (store and indexes) wherever they are
    long enough, else fresh ones with room.  [Reuse p] overwrites [p]:
    [p] must not be read afterwards. *)
type 'lvl room = Exact | Spare | Reuse of 'lvl t

(** [of_lines ?room ~attr_index ?count ?bounds lines] — the problem over
    the universe of [attr_index]'s [Names.length attr_index] names (id
    [i] is its name [i]) whose constraints are the kept lines among the
    first [count] (default: [Array.length kept]) in line order, each lhs
    range copied and sorted, then one row [{a} >= l] per call [f a l]
    that [bounds f] makes (default none; it is called twice and must make
    the same calls both times).  It is what {!compile} builds from those
    lines' constraints, and from bound constraints after them, over the
    same [attrs]: the same store and indexes, its levels numbered in row
    order.  Every id must be below [Names.length attr_index].  The store
    and indexes go where [room] says (default [Exact]).  Linear in the
    attributes, the lines and the kept lines' size; nothing is looked up
    by name, and no name is copied.  [attr_index] is shared, not copied:
    a name interned into it later has an id past the problem's universe,
    which {!attr_id} does not report.  Traced as [problem.of_rows]
    (category [constraints]). *)
val of_lines :
  ?room:'lvl room ->
  attr_index:Names.t ->
  ?count:int ->
  ?bounds:((int -> 'lvl -> unit) -> unit) ->
  'lvl lines ->
  'lvl t

(** One row edit of {!edit}.  A problem a session builds holds user
    rows, then [bounds] bound rows [{a} >= l] at the end. *)
type 'lvl edit =
  | Insert of { src : int array; lo : int; hi : int; rhs : 'lvl rhs }
      (** a user row, lhs ids [src.(lo) .. src.(hi - 1)] (any order,
          duplicate-free, rhs not among them), inserted just before the
          bound rows *)
  | Bound of int * 'lvl  (** a bound row [{a} >= l], appended after the last row *)
  | Delete of int  (** row [r], a user or a bound row *)

(** [fits p edits] — [p]'s arrays have room for the rows, lhs ids, index
    entries and level entries [edits] insert (deletions are not netted
    against them) and for a row in each index for every attribute of
    [p]'s name table.  O(the edits), plus, when one inserts a level right-hand
    side, a walk back from the last row to the last level row. *)
val fits : 'lvl t -> 'lvl edit list -> bool

(** [edit p ~bounds edits] — [p], its last [bounds] rows bound rows, with
    [edits] applied in list order (each row index names a row of the
    problem the edits before it left) over the universe of [p]'s name
    table, new attributes with no row: field for field (counts, the used
    part of each array, levels up to their count) what {!of_lines} builds
    from the lines so edited, user rows in order, then the bound rows,
    level right-hand sides numbered in row order.  Each edit writes in
    place what lies at or after its row — store rows, level codes and
    entries, complex ids, and every index entry that names a later row,
    each found by binary search in its index row — and inserts or
    deletes the row's own entries in its lhs attributes' [constr_of] rows
    and its rhs's [incoming] row, moving the entries and offsets after
    them (one move per index and edit).  [p] must not be read afterwards:
    the result shares and rewrites its arrays.  Cost per edit: the rows
    after it (O(lhs · log degree) each), plus one move of each index's
    entries and offsets past its first touched row; nothing is
    allocated but the result's two records.  Raises [Invalid_argument]
    unless [fits p edits], or for a [Delete] past the last row.  Traced
    as [problem.edit] (category [constraints]). *)
val edit : 'lvl t -> bounds:int -> 'lvl edit list -> 'lvl t

val n_attrs : 'lvl t -> int
val n_csts : 'lvl t -> int

(** [iter_constr_of p a f] calls [f ci] for each constraint with [a] in
    its lhs, ascending; [iter_incoming p a f] for each constraint whose
    rhs is [a], ascending.  For callers off the solver's hot loops, which
    index the {!csr} arrays directly. *)
val iter_constr_of : 'lvl t -> int -> (int -> unit) -> unit

val iter_incoming : 'lvl t -> int -> (int -> unit) -> unit

(** Constraint [ci] read off the store, for callers off the hot loops:
    [lhs_size] is its lhs size, [iter_lhs] and [fold_lhs] visit its lhs
    ids ascending, [lhs] copies them into a fresh array, and [rhs]
    decodes its right-hand side (one allocation). *)
val lhs_size : 'lvl t -> int -> int

val iter_lhs : 'lvl t -> int -> (int -> unit) -> unit
val fold_lhs : 'lvl t -> int -> ('a -> int -> 'a) -> 'a -> 'a
val lhs : 'lvl t -> int -> int array
val rhs : 'lvl t -> int -> 'lvl rhs

(** Total constraint size [S = Σ (|lhs| + 1)] from the complexity analysis. *)
val total_size : 'lvl t -> int

(** [attr_name p a] — [a]'s name, read from [p.attr_index]'s own array.
    Raises [Invalid_argument] if [a] is not below [n_attrs p]. *)
val attr_name : 'lvl t -> int -> string

val attr_id : 'lvl t -> string -> int option
val attr_id_exn : 'lvl t -> string -> int

(** [cst_to_source p ci] — constraint [ci] in source form, its lhs
    ascending by attribute id. *)
val cst_to_source : 'lvl t -> int -> 'lvl Cst.t

(** [set_rlevel p ci l] replaces constraint [ci]'s level right-hand side
    with [l], in place: one write into [store.levels].  The constraint
    graph is untouched (a level rhs contributes no edge), so every index
    structure — and any priority assignment computed from [p] — stays
    valid.  O(1): no copy, no interning, no DFS.  Everything holding [p]
    (or its store) sees the new level.  Raises [Invalid_argument] if
    [ci] is out of range or its rhs is an attribute. *)
val set_rlevel : 'lvl t -> int -> 'lvl -> unit

(** [is_acyclic p] — no constraint cycle (every edge from each lhs attribute
    to the rhs attribute; constraints with level rhs contribute no edge). *)
val is_acyclic : 'lvl t -> bool

(** [holds ~leq ~lub ~bottom p assignment ci] — constraint [ci] holds
    under the given lattice operations: the lub of its lhs levels
    dominates its right-hand side.  [assignment] maps attribute ids to
    levels. *)
val holds :
  leq:('lvl -> 'lvl -> bool) ->
  lub:('lvl -> 'lvl -> 'lvl) ->
  bottom:'lvl ->
  'lvl t ->
  (int -> 'lvl) ->
  int ->
  bool

(** [satisfies ~leq ~lub ~bottom p assignment] — every constraint
    {!holds}. *)
val satisfies :
  leq:('lvl -> 'lvl -> bool) ->
  lub:('lvl -> 'lvl -> 'lvl) ->
  bottom:'lvl ->
  'lvl t ->
  (int -> 'lvl) ->
  bool

val pp :
  (Format.formatter -> 'lvl -> unit) -> Format.formatter -> 'lvl t -> unit
