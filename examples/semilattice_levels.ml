(* Semi-lattices (§6): orders missing a top (no subject sees everything)
   or a bottom (nothing is public).  The completion adds dummies; residual
   dummies in the answer flag unsatisfiable or unconstrained attributes.

   Run with: dune exec examples/semilattice_levels.exe *)

open Minup_lattice
module Cst = Minup_constraints.Cst
module Semis = Minup_core.Semis

let () =
  (* Two service branches share a Confidential floor but have no common
     top: nobody is cleared for both. *)
  let semi =
    Semilattice.complete_exn
      ~names:[ "Confidential"; "ArmySecret"; "NavySecret" ]
      ~order:
        [ ("Confidential", "ArmySecret"); ("Confidential", "NavySecret") ]
  in
  Printf.printf "completed lattice has %d levels (dummy top added: %b)\n\n"
    (Explicit.cardinal semi.Semilattice.lattice)
    (semi.Semilattice.dummy_top <> None);
  let lvl n = Cst.Level (Explicit.of_name_exn semi.Semilattice.lattice n) in
  let run label csts =
    Printf.printf "== %s ==\n" label;
    let outcome = Semis.solve semi csts in
    List.iter
      (fun (attr, l) ->
        Printf.printf "  %-10s %s\n" attr
          (Explicit.level_to_string semi.Semilattice.lattice l))
      outcome.Semis.solution.Semis.Solve.assignment;
    if outcome.Semis.unsatisfiable <> [] then
      Printf.printf "  UNSATISFIABLE within real levels: %s\n"
        (String.concat ", " outcome.Semis.unsatisfiable);
    if outcome.Semis.unconstrained <> [] then
      Printf.printf "  unconstrained (at dummy bottom): %s\n"
        (String.concat ", " outcome.Semis.unconstrained);
    print_newline ()
  in
  (* Fine: each attribute fits inside one branch. *)
  run "branch-local requirements"
    [
      Cst.simple "artillery" (lvl "ArmySecret");
      Cst.simple "sonar" (lvl "NavySecret");
      Cst.simple "logistics" (lvl "Confidential");
    ];
  (* Impossible: one attribute needs both branches — it lands on the dummy
     top and is reported. *)
  run "joint-branch requirement (unsatisfiable)"
    [
      Cst.simple "jointops" (lvl "ArmySecret");
      Cst.simple "jointops" (lvl "NavySecret");
    ]
