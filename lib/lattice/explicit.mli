(** Finite lattices given explicitly by a Hasse diagram.

    An explicit lattice is created from a list of level names and a list of
    order pairs [(lo, hi)] meaning [lo ⊑ hi].  Creation validates that the
    relation is a partial order (no cycles) and that every pair of levels has
    a least upper bound and a greatest lower bound — i.e. that the input
    really is a lattice, as required by the paper (§2, §6).  Non-lattice
    inputs are rejected with a precise witness.

    A lattice is its order, a {!Poset.t} whose levels are numbered in
    topological order, plus lub/glb tables.  The poset carries each level's
    up-set and down-set as bit sets, so dominance tests are O(1) amortized
    and lub/glb are either table lookups (small lattices) or word-parallel
    bit-set scans. *)

type t
type level = int

type error =
  | Empty  (** no levels were given *)
  | Duplicate_name of string
  | Unknown_name of string  (** an order pair mentions an undeclared level *)
  | Cyclic_order  (** the order pairs contain a cycle *)
  | No_upper_bound of string * string
  | No_least_upper_bound of string * string * string * string
      (** [(a, b, m1, m2)]: levels [a] and [b] have two incomparable minimal
          upper bounds [m1] and [m2] *)
  | No_lower_bound of string * string
  | No_greatest_lower_bound of string * string * string * string

val pp_error : Format.formatter -> error -> unit

(** [create ~names ~order] builds and validates the lattice.  [order] pairs
    need not be covers; the transitive reduction is computed internally.
    Levels keep the declared order when every pair's low level is declared
    before its high one; otherwise they are sorted topologically, the
    earliest-declared ready level first. *)
val create : names:string list -> order:(string * string) list -> (t, error) result

(** Like {!create} but raises [Invalid_argument] with a rendered error. *)
val create_exn : names:string list -> order:(string * string) list -> t

(** [chain names] is the total order with [names] listed bottom-up. *)
val chain : string list -> t

(** Number of levels. *)
val cardinal : t -> int

(** All levels, bottom-first in topological order. *)
val all : t -> level list

(** [of_name t s] is the level named [s]. *)
val of_name : t -> string -> level option

val of_name_exn : t -> string -> level
val name : t -> level -> string

(** The lattice's order; its elements are the lattice's levels. *)
val poset : t -> Poset.t

(** Cover pairs [(lo, hi)] of the validated lattice, sorted. *)
val cover_pairs : t -> (level * level) list

(** The lattice signature instance. *)
include Lattice_intf.S with type t := t and type level := level
