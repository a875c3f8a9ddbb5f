(** Priority assignment — the first part of Algorithm 3.1 ([Main],
    [dfs_visit], [dfs_back_visit]).

    Interpreting every constraint [(lhs, rhs)] as edges from each attribute
    of [lhs] to [rhs], two DFS passes (a variant of Kosaraju's SCC
    algorithm, as in the paper) assign each attribute a priority such that:

    + every attribute has exactly one priority;
    + two attributes share a priority iff they are mutually reachable
      (belong to the same constraint cycle);
    + each attribute's priority is no greater than that of any attribute
      reachable from it.

    [Bigloop] then considers priorities in decreasing order, which realizes
    the backward (reverse topological) traversal of the constraint graph
    with whole cycles handled together. *)

type t = private {
  priority : int array;  (** priority per attribute id, [1 .. max_priority] *)
  members : int array;
      (** every priority set back to back: the attributes of priority [p]
          are [members.(starts.(p-1) .. starts.(p) - 1)], in the order the
          backward DFS discovered them *)
  starts : int array;
      (** [starts.(p-1)]: where set [p] begins in [members];
          [starts.(max_priority) = n].  Its length may exceed
          [max_priority + 1]. *)
  max_priority : int;
}

(** The number of attributes of priority [p]. *)
val size : t -> int -> int

(** A fresh copy of the attributes of priority [p], in discovery order. *)
val set : t -> int -> int array

(** Deterministic: follows attribute-id order for roots and constraint-index
    order for edges, matching the paper's presentation.  Linear in the
    constraint size: both DFS passes run on preallocated int stacks over
    the {!Problem.csr} indexes and allocate seven words per attribute:
    four stacks and the three arrays of the result. *)
val compute : 'lvl Problem.t -> t
