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
  finish : int array;
      (** [finish.(a)]: [a]'s position in the forward DFS's finishing
          order, [0 .. n - 1] *)
  parent : int array;
      (** [parent.(b)]: the attribute whose edge the forward DFS first
          reached [b] by, [-1] for a root of that DFS *)
}

(** The number of attributes of priority [p]. *)
val size : t -> int -> int

(** A fresh copy of the attributes of priority [p], in discovery order. *)
val set : t -> int -> int array

(** Deterministic: follows attribute-id order for roots and constraint-index
    order for edges, matching the paper's presentation.  Linear in the
    constraint size: both DFS passes run on two preallocated int stacks
    over the {!Problem.csr} indexes and allocate seven words per
    attribute: the two stacks and the five arrays of the result. *)
val compute : 'lvl Problem.t -> t

(** {2 Carrying priorities across an edit}

    A problem [p'] rebuilt from [p] by adding and removing constraints
    and appending attributes often has exactly [compute p]'s priorities,
    shifted past its new attributes' sets.  Each edge an edit adds or
    removes is checked against [t = compute p] when the edit is made; if
    every one {!Keeps}, then [carry t p'] is [compute p'], field for
    field, at the cost of the new attributes alone.  Level right-hand
    sides add no edge, so rows with them never need a check.  The
    soundness argument is in DESIGN.md (§9, "Carrying priorities across
    a rebuild"). *)

(** Whether an edge change keeps a carry exact, or what refuses it. *)
type verdict =
  | Keeps
  | Finishes_late
      (** an added edge [a → b] where [b] finishes after [a] in the
          forward DFS, which would follow it *)
  | Not_later
      (** an added edge [a → b] where [b]'s set is not after [a]'s *)
  | Tree_edge  (** a removed edge [a → b] by which the forward DFS reached [b] *)
  | Same_set  (** a removed edge inside a set *)
  | Into_new  (** an edge from an attribute [t] has into one it lacks *)

(** [added t a b]: the edge [a → b] of a constraint appended after every
    constraint with an attribute right-hand side that [t]'s problem has.
    Any edge out of an attribute [t] lacks {!Keeps}.  O(1). *)
val added : t -> int -> int -> verdict

(** [removed t a b]: the edge [a → b] of a constraint removed.  O(1). *)
val removed : t -> int -> int -> verdict

(** [describe v a b] — the verdict [v] on the edge from the attribute
    named [a] to the one named [b], in words (e.g. ["A7 finishes after
    A3"]). *)
val describe : verdict -> string -> string -> string

(** [carry t p'] — [compute p'], given that [t] is [compute p], that [p']
    has [p]'s attributes and maybe more after them, and that every edge
    [p'] adds to or removes from [p] {!Keeps} against [t].  [t] itself if
    [p'] has no new attribute.  Otherwise the passes of {!compute} run
    over the new attributes alone, [t]'s visited, and the result is a
    copy of [t]'s arrays with the new sets first: linear in the
    attributes, and in the new attributes' constraints, with no pass
    over the old ones.  Not traced. *)
val carry : t -> 'lvl Problem.t -> t
