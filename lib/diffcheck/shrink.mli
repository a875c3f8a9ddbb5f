(** Greedy delta-shrinking of a failing {!Instance.t}.

    Classic delta-debugging, specialized to the instance structure.  Four
    move families, each tried element by element and kept whenever the
    candidate still satisfies [predicate] (i.e. still fails the battery):

    + drop a constraint;
    + drop an upper bound;
    + drop an attribute no remaining constraint or bound mentions;
    + drop a lattice level no constraint or bound names (its order pairs
      go with it) — candidates that stop being valid lattices are
      rejected by the predicate via {!Instance.lattice}.

    Passes repeat until a full round removes nothing, so the result is
    1-minimal with respect to these moves: removing any single remaining
    element makes the failure disappear. *)

(** [shrink ~predicate inst] — [predicate inst] must hold on entry and is
    maintained as an invariant; the result is the smallest instance
    reached. *)
val shrink : predicate:(Instance.t -> bool) -> Instance.t -> Instance.t

(** [list ~predicate xs] — the greedy drop-one shrinker behind the first two
    moves above: drop the elements of [xs] one at a time, front to back,
    keeping each removal after which [predicate] still holds.
    [predicate xs] must hold on entry.  The result keeps the order of
    [xs]; each element in it stays because removing it broke [predicate]
    at its turn, so for a [predicate] that holds on every superset of a
    list it holds on, removing any one element of the result breaks it. *)
val list : predicate:('a list -> bool) -> 'a list -> 'a list
