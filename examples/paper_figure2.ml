(* Figure 2 of the paper, end to end: the 16-constraint example, its
   priority sets, the execution trace, and the final minimal
   classification — reproducing Fig. 2(b).

   Run with: dune exec examples/paper_figure2.exe *)

open Minup_lattice
module Paper = Minup_core.Paper
module Solver = Minup_core.Solver.Make (Explicit)
module Problem = Minup_constraints.Problem

let () =
  let lattice = Paper.fig1b in
  let problem =
    Solver.compile_exn ~lattice ~attrs:Paper.fig2_attrs Paper.fig2_constraints
  in

  print_endline "constraints (Fig. 2(a)):";
  Format.printf "  @[<v>%a@]@."
    (Problem.pp (Explicit.pp_level lattice))
    problem.Solver.prob;

  print_endline "\npriority sets (computed by the two DFS passes):";
  let prio = problem.Solver.prio in
  for p = 1 to prio.Minup_constraints.Priorities.max_priority do
    Printf.printf "  priority[%d] = {%s}\n" p
      (String.concat ", "
         (Array.to_list
            (Array.map (Problem.attr_name problem.Solver.prob)
               (Minup_constraints.Priorities.set prio p))))
  done;

  print_endline "\nexecution trace:";
  let pp_level l = Explicit.level_to_string lattice l in
  let solution =
    Solver.solve
      ~config:
        (Solver.Config.make
           ~on_event:(fun e ->
        match e with
        | Solver.Consider { attr; priority } ->
            Printf.printf "  consider %s (priority %d)\n" attr priority
        | Solver.Back_assigned { attr; level } ->
            Printf.printf "    back-propagation: λ(%s) := %s\n" attr (pp_level level)
        | Solver.Try_lower { attr; target; lowered = None } ->
            Printf.printf "    try(%s, %s)  FAILS\n" attr (pp_level target)
        | Solver.Try_lower { attr; target; lowered = Some l } ->
            Printf.printf "    try(%s, %s)  lowers %s\n" attr (pp_level target)
              (String.concat ", "
                 (List.map (fun (a, v) -> Printf.sprintf "%s→%s" a (pp_level v)) l))
        | Solver.Finalized { attr; level } ->
            Printf.printf "    done: λ(%s) = %s\n" attr (pp_level level))
           ())
      problem
  in

  print_endline "\nfinal levels (paper's bottom row of Fig. 2(b)):";
  List.iter
    (fun (attr, expected) ->
      let got = pp_level (Option.get (Solver.find problem solution attr)) in
      Printf.printf "  λ(%s) = %-3s  (paper: %-3s) %s\n" attr got expected
        (if got = expected then "✓" else "✗ MISMATCH"))
    Paper.fig2_expected_solution;

  Printf.printf "\nlattice operations used: %d\n"
    (Minup_core.Instr.lattice_ops solution.Solver.stats)
