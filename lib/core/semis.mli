(** Classification over semi-lattices (§6).

    Run the solver on a {!Minup_lattice.Semilattice} completion and
    interpret residual dummy levels per the paper: an attribute left at the
    dummy ⊤ means its constraints admit no real level ("visible to no
    one"); one left at the dummy ⊥ was never effectively constrained
    (flagged so incomplete constraint sets are noticed). *)

open Minup_lattice

module Solve : module type of Solver.Make (Explicit)

type outcome = {
  solution : Solve.solution;
  unsatisfiable : string list;
      (** attributes classified at the dummy top — no real level satisfies
          their constraints *)
  unconstrained : string list;
      (** attributes at the dummy bottom — no effective constraint *)
}

val solve :
  Semilattice.t ->
  ?attrs:string list ->
  Explicit.level Minup_constraints.Cst.t list ->
  outcome
