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
  sets : int array array;
      (** [sets.(p-1)] — the attributes of priority [p], in the order the
          backward DFS discovered them *)
  max_priority : int;
}

(** Deterministic: follows attribute-id order for roots and constraint-index
    order for edges, matching the paper's presentation.  Linear in the
    constraint size: both DFS passes run on preallocated int stacks over
    the {!Problem.csr} indexes and allocate a constant number of words per
    attribute. *)
val compute : 'lvl Problem.t -> t
