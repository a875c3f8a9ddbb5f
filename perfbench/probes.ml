(* Layer probes for traced runs: exact counts (solver operation counters,
   minor words per constraint), forward-lowering outcomes through the
   solver's event stream, and scaling exponents.  Probes run with tracing
   off and outside any timed request. *)

open Common
module Explicit = Minup_lattice.Explicit
module Parse = Minup_constraints.Parse
module Problem = Minup_constraints.Problem
module Priorities = Minup_constraints.Priorities
module Solver = Minup_core.Solver.Make (Explicit)
module Instr = Minup_core.Instr

let instr_metrics (s : Instr.t) =
  List.map (fun (k, v) -> ("solver." ^ k, float_of_int v)) (Instr.to_alist s)

let parse_policy lat text =
  ok_or_mismatch "policy" Parse.pp_error
    (Parse.parse_resolve ~level_of_string:(Explicit.level_of_string lat) text)

(* Minor-heap words per constraint (per attribute for priorities) of the
   front-end layers on one policy. *)
let minor_words_metrics lat text =
  let w_parse, pol = minor_words (fun () -> parse_policy lat text) in
  let n_csts = float_of_int (List.length pol.Parse.csts) in
  let w_problem, prob =
    minor_words (fun () -> Problem.compile_exn ~attrs:pol.Parse.attrs pol.Parse.csts)
  in
  let w_prio, _ = minor_words (fun () -> Priorities.compute prob) in
  [
    ("parse.minor_words_per_cst", w_parse /. n_csts);
    ("problem.minor_words_per_cst", w_problem /. n_csts);
    ("priorities.minor_words_per_attr", w_prio /. float_of_int (Problem.n_attrs prob));
  ]

(* An event callback counting [Try] attempts and successes. *)
type tries = { mutable attempts : int; mutable successes : int }

let tries () = { attempts = 0; successes = 0 }

let count_tries t = function
  | Solver.Try_lower { lowered; _ } ->
      t.attempts <- t.attempts + 1;
      if lowered <> None then t.successes <- t.successes + 1
  | _ -> ()

let try_config t = Solver.Config.make ~on_event:(count_tries t) ()

let try_success_ratio t =
  if t.attempts = 0 then 0. else float_of_int t.successes /. float_of_int t.attempts

(* Median per-call time (ns) of parse, compile, priorities and solve on one
   policy. *)
let layer_times ~reps lat text =
  let t_parse, pol = time_median ~reps (fun () -> parse_policy lat text) in
  let attrs = pol.Parse.attrs and csts = pol.Parse.csts in
  let t_problem, prob = time_median ~reps (fun () -> Problem.compile_exn ~attrs csts) in
  let t_prio, _ = time_median ~reps (fun () -> Priorities.compute prob) in
  let problem = Solver.compile_exn ~lattice:lat ~attrs csts in
  let t_solve, _ = time_median ~reps (fun () -> Solver.solve problem) in
  [ ("parse", t_parse); ("problem", t_problem); ("priorities", t_prio); ("solver", t_solve) ]

(* Growth exponent between two input sizes: t ∝ n^k. *)
let scaling_exp ~small ~large ~size_ratio = log (large /. small) /. log size_ratio
