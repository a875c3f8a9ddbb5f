(* Shared test infrastructure: solver/oracle instantiations over the
   Explicit lattice, level testables, and qcheck glue. *)

open Minup_lattice
module S = Minup_core.Solver.Make (Explicit)
module V = Minup_core.Verify.Make (Explicit)
module Cst = Minup_constraints.Cst
module Problem = Minup_constraints.Problem

let fig1b = Minup_core.Paper.fig1b
let lvl name = Explicit.of_name_exn fig1b name
let level_cst attr name = Cst.simple attr (Cst.Level (lvl name))
let attr_cst attr target = Cst.simple attr (Cst.Attr target)
let assoc_cst lhs name = Cst.make_exn ~lhs ~rhs:(Cst.Level (lvl name))
let infer_cst lhs target = Cst.make_exn ~lhs ~rhs:(Cst.Attr target)

(* Alcotest testable for levels of a given lattice, compared and printed by
   name. *)
let level_t lat =
  Alcotest.testable (Explicit.pp_level lat) (fun a b -> Explicit.equal lat a b)

(* Solve and return the assignment as (attr, level-name) pairs. *)
let solve_names ?attrs lat csts =
  let p = S.compile_exn ~lattice:lat ?attrs csts in
  let sol = S.solve p in
  List.map (fun (a, l) -> (a, Explicit.level_to_string lat l)) sol.assignment

let check_solution_minimal ?cap lat ?attrs csts =
  let p = S.compile_exn ~lattice:lat ?attrs csts in
  let sol = S.solve p in
  Alcotest.(check bool) "satisfies" true (S.satisfies p sol.levels);
  match V.is_minimal_solution ?cap p sol.levels with
  | Ok b -> Alcotest.(check bool) "minimal" true b
  | Error `Too_large -> Alcotest.fail "oracle space too large"

let qcheck = QCheck_alcotest.to_alcotest

(* Arbitrary seeds; properties derive deterministic workloads from them. *)
let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

let case name f = Alcotest.test_case name `Quick f

(* [needle] occurs in [haystack]. *)
let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* The 16-level total order the Thm. 5.2 experiments and the benchmark
   workloads run over. *)
let ladder16 = Total.create (List.init 16 (Printf.sprintf "S%d"))

(* The Thm. 5.2 acyclic shape: [n] attributes, 2n simple and n/2 complex
   constraints over the 16 ladder levels. *)
let acyclic_shape seed n =
  Minup_workload.Gen_constraints.acyclic (Minup_workload.Prng.create seed)
    {
      Minup_workload.Gen_constraints.n_attrs = n;
      n_simple = 2 * n;
      n_complex = n / 2;
      max_lhs = 4;
      n_constants = n / 4;
      constants = List.init 16 Fun.id;
    }

(* One 2k and one 8k instance of that shape, generated once: the 8k one
   takes about a second. *)
let acyclic_2k_8k = lazy (acyclic_shape 5 2_000, acyclic_shape 5 8_000)

(* The Thm. 5.2 quadratic shape: a bare Hamiltonian cycle over [n]
   attributes with one interior floor, so every [Try] walks most of it. *)
let cycle_shape seed n =
  Minup_workload.Gen_constraints.single_scc (Minup_workload.Prng.create seed)
    {
      Minup_workload.Gen_constraints.n_attrs = n;
      n_simple = 0;
      n_complex = 0;
      max_lhs = 2;
      n_constants = 1;
      constants = [ 8 ];
    }

(* [cycle_shape] plus one non-binding complex constraint, [{A0, A1} ⊒ S1]
   below the S8 floor.  The cycle is then not simple-only, so the solver
   keeps the paper's [Try] on it, at the bare cycle's cost. *)
let complex_cycle_shape seed n =
  let attrs, csts = cycle_shape seed n in
  (attrs, csts @ [ Cst.make_exn ~lhs:[ "A0"; "A1" ] ~rhs:(Cst.Level 1) ])

(* Words allocated by [f], direct major-heap allocations included: the
   quantity [Gc.allocated_bytes] reports, read as [Gc.minor_words] plus
   major minus promoted words from [Gc.counters], whose own minor count
   is not in words on OCaml 5.1. *)
let words f =
  Gc.minor ();
  let total () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = total () in
  ignore (Sys.opaque_identity (f ()));
  total () -. w0

(* [f ()] with the metrics registry on, and the counter [name] after it. *)
let metered name f =
  let module Metrics = Minup_obs.Metrics in
  Metrics.enable ();
  Metrics.clear ();
  Fun.protect ~finally:(fun () ->
      Metrics.disable ();
      Metrics.clear ())
  @@ fun () ->
  f ();
  Metrics.counter_value (Metrics.counter name)
