(* Policy evolution: a policy change lands, impact analysis shows exactly
   what moved, and the explanation facility justifies the new levels —
   the review workflow for classification changes.

   Run with: dune exec examples/policy_evolution.exe *)

open Minup_lattice
module Cst = Minup_constraints.Cst
module Impact = Minup_core.Impact.Make (Total)
module Explain = Minup_core.Explain.Make (Total)
module Solver = Minup_core.Solver.Make (Total)

let () =
  let lattice = Total.create [ "Public"; "Internal"; "Confidential"; "Secret" ] in
  let lvl = Total.of_name_exn lattice in
  let level n = Cst.Level (lvl n) in
  (* The standing policy. *)
  let base =
    [
      Cst.simple "salary" (level "Internal");
      Cst.simple "ssn" (level "Confidential");
      Cst.make_exn ~lhs:[ "name"; "ssn" ] ~rhs:(level "Secret");
      Cst.simple "payroll" (Cst.Attr "salary");
    ]
  in
  (* The change under review: salary data is reclassified Confidential,
     and a new inference channel is recorded (department and grade
     determine salary). *)
  let added =
    [
      Cst.simple "salary" (level "Confidential");
      Cst.make_exn ~lhs:[ "department"; "grade" ] ~rhs:(Cst.Attr "salary");
    ]
  in
  print_endline "== impact of the proposed change ==";
  let report = Impact.of_added_constraints ~lattice ~base ~added () in
  Format.printf "%a@." (Impact.pp_report lattice) report;
  print_endline "\n== justification of the new classification ==";
  let problem = Solver.compile_exn ~lattice (base @ added) in
  print_string (Explain.report problem report.Impact.solution.Solver.levels);
  Printf.printf "\nminimal: %b\n"
    (Explain.is_locally_minimal problem report.Impact.solution.Solver.levels)
