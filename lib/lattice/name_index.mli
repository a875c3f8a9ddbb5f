(** The names of a lattice's or poset's elements, numbered by declared
    position: one home for the names array, its index and the duplicate
    check.  Each caller reports a duplicate in its own words. *)

(** [create names] is [names] as an array and the index from each name to
    its position, or [Error n] for the first name [n] declared twice. *)
val create : string list -> (string array * (string, int) Hashtbl.t, string) result
