open Minup_lattice
module Solve = Solver.Make (Explicit)

type outcome = {
  solution : Solve.solution;
  unsatisfiable : string list;
  unconstrained : string list;
}

let solve (semi : Semilattice.t) ?attrs csts =
  let solution = Solve.solve (Solve.compile_exn ~lattice:semi.lattice ?attrs csts) in
  let at dummy =
    match dummy with
    | None -> []
    | Some d ->
        List.filter_map
          (fun (a, l) -> if l = d then Some a else None)
          solution.Solve.assignment
  in
  { solution; unsatisfiable = at semi.dummy_top; unconstrained = at semi.dummy_bottom }
