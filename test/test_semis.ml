(* Semi-lattice classification (§6). *)

open Minup_lattice
module Cst = Minup_constraints.Cst
module Semis = Minup_core.Semis

let case = Helpers.case

(* Two incomparable top levels Army / Navy over a shared Confidential. *)
let semi =
  Semilattice.complete_exn
    ~names:[ "Conf"; "Army"; "Navy" ]
    ~order:[ ("Conf", "Army"); ("Conf", "Navy") ]

let lx name = Explicit.of_name_exn semi.Semilattice.lattice name

let satisfiable_case () =
  let outcome =
    Semis.solve semi
      [ Cst.simple "a" (Cst.Level (lx "Army")); Cst.simple "b" (Cst.Attr "a") ]
  in
  Alcotest.(check (list string)) "nothing unsatisfiable" []
    outcome.Semis.unsatisfiable;
  let l a = List.assoc a outcome.Semis.solution.Semis.Solve.assignment in
  Alcotest.(check string) "a at Army" "Army"
    (Explicit.level_to_string semi.Semilattice.lattice (l "a"));
  Alcotest.(check string) "b at Army" "Army"
    (Explicit.level_to_string semi.Semilattice.lattice (l "b"))

let unsatisfiable_case () =
  (* a must dominate both Army and Navy — only the dummy top does. *)
  let outcome =
    Semis.solve semi
      [
        Cst.simple "a" (Cst.Level (lx "Army"));
        Cst.simple "a" (Cst.Level (lx "Navy"));
      ]
  in
  Alcotest.(check (list string)) "a unsatisfiable" [ "a" ]
    outcome.Semis.unsatisfiable

let unconstrained_case () =
  (* The order has a real bottom (Conf), so no dummy bottom exists and an
     unconstrained attribute lands on Conf without a flag. *)
  let outcome = Semis.solve semi ~attrs:[ "free" ] [] in
  Alcotest.(check (list string)) "no unconstrained flag" []
    outcome.Semis.unconstrained

let dummy_bottom_flagged () =
  (* No real bottom: the unconstrained attribute is flagged. *)
  let semi2 =
    Semilattice.complete_exn
      ~names:[ "x"; "y"; "top" ]
      ~order:[ ("x", "top"); ("y", "top") ]
  in
  let outcome =
    Semis.solve semi2 ~attrs:[ "free"; "used" ]
      [ Cst.simple "used" (Cst.Level (Explicit.of_name_exn semi2.Semilattice.lattice "x")) ]
  in
  Alcotest.(check (list string)) "free flagged" [ "free" ]
    outcome.Semis.unconstrained;
  Alcotest.(check (list string)) "used not flagged" []
    outcome.Semis.unsatisfiable

let suite =
  [
    case "satisfiable within real levels" satisfiable_case;
    case "dummy top flags unsatisfiable" unsatisfiable_case;
    case "real bottom: no flag" unconstrained_case;
    case "dummy bottom flags unconstrained" dummy_bottom_flagged;
  ]
