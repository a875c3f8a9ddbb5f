(** Impact analysis: what does a policy change do to the classification?

    Adding constraints shrinks the solution set, so levels generally rise;
    but because minimal solutions are not unique, a change can also shift
    which attribute of an association absorbs an upgrade, lowering some
    attributes while raising others.  [of_added_constraints] solves before
    and after and reports exactly what moved — the review artifact for a
    policy change. *)

module Make (L : Minup_lattice.Lattice_intf.S) : sig
  module S : module type of Solver.Make (L)

  type move =
    | Raised  (** new level strictly dominates the old *)
    | Lowered
    | Shifted  (** incomparable levels: the minimal solution changed shape *)
    | Added  (** attribute introduced by the change *)

  type change = {
    attr : string;
    before : L.level option;
    after : L.level;
    move : move;
  }

  type report = {
    changes : change list;  (** only attributes that moved, id order *)
    unchanged : int;
    solution : S.solution;  (** the new classification *)
  }

  (** [diff lat ~before ~after] over attribute names. *)
  val diff :
    L.t ->
    before:(string * L.level) list ->
    after:(string * L.level) list ->
    change list

  (** Solve [base] and [base @ added] and diff the minimal solutions.  The
      same [upgrade_preference] is applied to both solves so the diff
      reflects the constraint change, not scheduling noise. *)
  val of_added_constraints :
    lattice:L.t ->
    ?attrs:string list ->
    ?upgrade_preference:(string -> int) ->
    base:L.level Minup_constraints.Cst.t list ->
    added:L.level Minup_constraints.Cst.t list ->
    unit ->
    report

  val pp_report : L.t -> Format.formatter -> report -> unit
end
