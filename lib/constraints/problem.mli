(** Compiled constraint problems.

    A problem is a set of constraints over an interned attribute universe,
    indexed the way Algorithm 3.1 needs: for every attribute [A], the
    constraints whose left-hand side contains [A] ([Constr[A]] in the
    paper) and the constraints whose right-hand side is [A] (used by the
    backward DFS of the priority computation and by upper-bound
    propagation). *)

type 'lvl rhs = Rlevel of 'lvl | Rattr of int

type 'lvl cst = { lhs : int array; rhs : 'lvl rhs }
(** A compiled constraint; [lhs] is sorted and duplicate-free. *)

(** A compressed-sparse-row index over attribute ids: row [a] is
    [tgt.(off.(a)) .. tgt.(off.(a+1) - 1)], so [off] has [n_attrs + 1]
    entries and [off.(n_attrs) = Array.length tgt].  Every row is in
    ascending order. *)
type csr = { off : int array; tgt : int array }

(** Hash tables keyed by attribute name, with string equality and hash
    (cheaper per lookup than the polymorphic [Hashtbl]). *)
module Names : Hashtbl.S with type key = string

type 'lvl t = private {
  attr_names : string array;
  attr_index : int Names.t;
  csts : 'lvl cst array;
  complex_idx : int array;
      (** dense numbering of the complex constraints (lhs of two or more
          attributes): [complex_idx.(ci)] is a dense id in
          [0 .. n_complex-1], or [-1] if [ci] is simple *)
  n_complex : int;  (** number of complex constraints *)
  constr_of : csr;
      (** row [a] — indices of constraints with [a] in their lhs
          ([Constr[A]] in the paper) *)
  complex_constr_of : csr;
      (** row [a] — dense ids ([complex_idx]) of the complex constraints
          with [a] in their lhs; the solver's incremental lhs-lub
          aggregates walk this, skipping the (typically dominant) simple
          constraints *)
  incoming : csr;  (** row [a] — indices of constraints whose rhs is [a] *)
  dropped : 'lvl Cst.t list;
      (** trivially satisfied constraints (rhs ∈ lhs) removed at compile
          time, §3 *)
}
(** The three indexes are flat int arrays, built in two linear sweeps over
    the constraints (count, then fill) in ascending constraint index
    ({!of_rows}).
    That ascending order is an invariant the solver relies on: its
    Bigloop, [Try] and the priority DFS visit constraints row by row, so
    the visit order — and with it every level and every [Instr] counter —
    is fixed by it.  Compiling allocates a constant number of words per
    constraint and per attribute. *)

type error = Cst_error of Cst.error | Undeclared_attr of string

val pp_error : Format.formatter -> error -> unit

(** [compile ?attrs csts] interns attributes and indexes constraints.
    Attribute ids follow [attrs] order first, then first mention among the
    constraints.  When [strict] is set (default [false]), constraints may
    only mention attributes listed in [attrs]. *)
val compile :
  ?attrs:string list -> ?strict:bool -> 'lvl Cst.t list -> ('lvl t, error) result

val compile_exn : ?attrs:string list -> ?strict:bool -> 'lvl Cst.t list -> 'lvl t

(** [sorted_lhs written] — the row lhs of the member ids [written]:
    [written] itself when it is strictly ascending, otherwise a sorted
    copy (in which a repeated id sits next to its twin). *)
val sorted_lhs : int array -> int array

(** [of_rows ~attr_names ~attr_index csts] — the indexing half of
    {!compile}: the problem over the universe [attr_names] (id [i] is
    [attr_names.(i)]) with the kept constraints [csts] in that order
    (every id they mention below [Array.length attr_names]), and
    [dropped = []].  Linear in the attributes plus the constraint size;
    nothing is looked up by name.  [attr_index] maps
    every name of [attr_names] to its id and is shared, not copied: it
    may also hold names interned later, with larger ids, which
    {!attr_id} does not report.  Traced as [problem.of_rows] (category
    [constraints]); {!compile} indexes through the same code without
    that span. *)
val of_rows :
  attr_names:string array -> attr_index:int Names.t -> 'lvl cst array -> 'lvl t

val n_attrs : 'lvl t -> int
val n_csts : 'lvl t -> int

(** [iter_constr_of p a f] calls [f ci] for each constraint with [a] in
    its lhs, ascending; [iter_incoming p a f] for each constraint whose
    rhs is [a], ascending.  For callers off the solver's hot loops, which
    index the {!csr} arrays directly. *)
val iter_constr_of : 'lvl t -> int -> (int -> unit) -> unit

val iter_incoming : 'lvl t -> int -> (int -> unit) -> unit

(** Total constraint size [S = Σ (|lhs| + 1)] from the complexity analysis. *)
val total_size : 'lvl t -> int

val attr_name : 'lvl t -> int -> string
val attr_id : 'lvl t -> string -> int option
val attr_id_exn : 'lvl t -> string -> int

(** Reconstruct the source-form constraint. *)
val cst_to_source : 'lvl t -> 'lvl cst -> 'lvl Cst.t

(** [set_rlevel p ci l] replaces constraint [ci]'s level right-hand side
    with [l], in place.  The constraint graph is untouched (a level rhs
    contributes no edge), so every index structure — and any priority
    assignment computed from [p] — stays valid.  O(1): one record write,
    no copy, no interning, no DFS.  Everything holding [p] sees the new
    level.  Raises [Invalid_argument] if [ci] is out of range or its rhs
    is an attribute. *)
val set_rlevel : 'lvl t -> int -> 'lvl -> unit

(** [is_acyclic p] — no constraint cycle (every edge from each lhs attribute
    to the rhs attribute; constraints with level rhs contribute no edge). *)
val is_acyclic : 'lvl t -> bool

(** [satisfies ~leq ~lub ~bottom p assignment] checks every constraint under
    the given lattice operations; [assignment] maps attribute ids to
    levels. *)
val satisfies :
  leq:('lvl -> 'lvl -> bool) ->
  lub:('lvl -> 'lvl -> 'lvl) ->
  bottom:'lvl ->
  'lvl t ->
  (int -> 'lvl) ->
  bool

val pp :
  (Format.formatter -> 'lvl -> unit) -> Format.formatter -> 'lvl t -> unit
