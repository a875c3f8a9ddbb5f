(** Classification constraints (Definition 2.1 of the paper).

    A constraint [lub{λ(A1), …, λ(An)} ⊒ X] lower-bounds the combined
    classification of the attributes [A1 … An] by [X], where [X] is either
    a concrete security level or the classification of another attribute.
    Constraints are polymorphic in the level type so the same representation
    serves every lattice implementation.

    Terminology from the paper:
    - a constraint is {e simple} when its left-hand side is a singleton, and
      {e complex} otherwise;
    - {e basic} constraints are simple with a level right-hand side;
    - {e association} constraints are complex with a level right-hand side;
    - {e inference} constraints have an attribute right-hand side. *)

type 'lvl rhs =
  | Level of 'lvl  (** an explicit security level *)
  | Attr of string  (** the classification of another attribute *)

type 'lvl t = private { lhs : string list; rhs : 'lvl rhs }

type error =
  | Empty_lhs
  | Duplicate_lhs of string  (** an attribute repeated in the left-hand side *)

val pp_error : Format.formatter -> error -> unit

(** [make ~lhs ~rhs] validates that [lhs] is non-empty and duplicate-free.
    A constraint whose [rhs] attribute also appears in [lhs] is representable
    (the paper calls it trivially satisfied); {!Problem.compile} drops such
    constraints. *)
val make : lhs:string list -> rhs:'lvl rhs -> ('lvl t, error) result

val make_exn : lhs:string list -> rhs:'lvl rhs -> 'lvl t

(** [of_distinct ~lhs ~rhs] is [make_exn ~lhs ~rhs] without the check,
    for a caller that has already found [lhs] non-empty and
    duplicate-free ({!Parse} does so on name ids as it scans). *)
val of_distinct : lhs:string list -> rhs:'lvl rhs -> 'lvl t

(** [simple attr rhs] is [make_exn ~lhs:[attr] ~rhs]. *)
val simple : string -> 'lvl rhs -> 'lvl t

val is_simple : 'lvl t -> bool
val is_complex : 'lvl t -> bool

(** [is_trivial c] — the rhs is an attribute that also occurs in the lhs. *)
val is_trivial : 'lvl t -> bool

(** Attributes mentioned (lhs plus attribute rhs), without duplicates, in
    first-mention order. *)
val attrs : 'lvl t -> string list

(** [size c] is [|lhs| + 1] — the constraint's contribution to the total
    constraint size [S] used in the complexity analysis. *)
val size : 'lvl t -> int

val map_level : ('a -> 'b) -> 'a t -> 'b t

val pp :
  (Format.formatter -> 'lvl -> unit) -> Format.formatter -> 'lvl t -> unit
