(** Arbitrary finite partial orders (not necessarily lattices).

    §6 of the paper shows that over arbitrary posets the minimal
    classification problem ({e min-poset}) is NP-complete; this module is
    the substrate for that result: the Fig. 4 reduction poset, the
    4-element "butterfly" poset, and the backtracking solver in
    {!Minup_poset.Minposet} all live on top of it.

    Creation only validates that the order pairs are acyclic; lubs/glbs
    need not exist.  {!Explicit} builds every explicit lattice on this
    module: a lattice is a poset plus its lub/glb tables.  This module is
    the one place an order is sorted, closed and reduced to its covers. *)

type elt = int

(** Read-only: {!Explicit} reads the fields on its hot paths, where a call
    per lookup would cost more than the lookup. *)
type t = private {
  names : string array;  (** indexed by element *)
  index : (string, elt) Hashtbl.t;
  up : Bitset.t array;  (** [up.(e)]: the elements above [e], [e] included *)
  down : Bitset.t array;  (** [down.(e)]: the elements below [e], [e] included *)
  covers_lo : elt list array;  (** immediate predecessors, ascending *)
  covers_hi : elt list array;  (** immediate successors, ascending *)
  height : int;
  depth : int array;  (** [depth.(e)]: the longest chain of covers below [e] *)
  topological : elt array;
      (** a linear extension: Kahn's order, the smallest declared position
          first among the elements whose predecessors are all placed *)
}

type error = Empty | Duplicate_name of string | Unknown_name of string | Cyclic_order

val pp_error : Format.formatter -> error -> unit

(** [create ~names ~order] with order pairs [(lo, hi)] read [lo ⊑ hi].
    Elements are numbered by declared position.  Pairs need not be covers;
    reflexive and repeated pairs change nothing.  Errors are checked in
    the constructors' order: [Empty], then the first duplicate name, then
    the first unknown name (the high one of a pair first), then cycles.

    One pass: one Kahn sort of the pairs; one sweep down that order that
    closes the up-sets, with the covers read off the closure (a successor
    is a cover iff no other successor reaches it); one sweep up it over
    the covers that closes the down-sets and measures each element's
    depth and the height.  Time
    O((n + p)·n/w + Σ s²) for n elements, p distinct pairs, s successors
    per element and w-bit words; n² bits for each of the up- and
    down-sets. *)
val create : names:string list -> order:(string * string) list -> (t, error) result

val create_exn : names:string list -> order:(string * string) list -> t

(** The 4-element poset of Fig. 4(b): two maximal elements [a], [b], each
    dominating both minimal elements [c], [d]. *)
val butterfly : t

val cardinal : t -> int
val all : t -> elt list
val of_name : t -> string -> elt option
val of_name_exn : t -> string -> elt
val name : t -> elt -> string
val leq : t -> elt -> elt -> bool
val equal : t -> elt -> elt -> bool

(** Immediate predecessors, ascending. *)
val covers_below : t -> elt -> elt list

val covers_above : t -> elt -> elt list

(** Cover pairs [(lo, hi)], sorted. *)
val cover_pairs : t -> (elt * elt) list

(** Elements with nothing strictly above/below. *)
val maximal_elements : t -> elt list

val minimal_elements : t -> elt list

(** Common upper bounds of a list of elements (all of them). *)
val upper_bounds : t -> elt list -> elt list

(** Least upper bound if it exists. *)
val lub_opt : t -> elt -> elt -> elt option

(** Strict down-set of an element. *)
val strict_below : t -> elt -> elt list

val height : t -> int
val pp_elt : t -> Format.formatter -> elt -> unit

(** Whether every pair with an upper bound has a least one (a "partial
    lattice" in the paper's §6 sense). *)
val is_partial_lattice : t -> bool
