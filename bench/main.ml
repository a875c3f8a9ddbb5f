(* Benchmark & reproduction harness — one experiment per figure/table-like
   artifact of the paper (see DESIGN.md §3 for the index).

   Run everything:        dune exec bench/main.exe
   Run one experiment:    dune exec bench/main.exe -- fig2
   List experiments:      dune exec bench/main.exe -- list *)

open Minup_lattice
module Cst = Minup_constraints.Cst
module Problem = Minup_constraints.Problem
module Stats = Minup_constraints.Stats
module Paper = Minup_core.Paper
module Instr = Minup_core.Instr
module SE = Minup_core.Solver.Make (Explicit)
module ST = Minup_core.Solver.Make (Total)
module Prng = Minup_workload.Prng
module Gen = Minup_workload.Gen_constraints
open Bench_util

(* ------------------------------------------------------------------ *)
(* FIG1 — the two example lattices of Figure 1.                        *)

let fig1 () =
  section "FIG1: the security lattices of Figure 1";
  let a = Compartment.fig1a in
  Printf.printf
    "Fig. 1(a): compartmented lattice, %d classifications x 2^%d categories = %d access classes, height %d\n"
    (Compartment.n_classifications a)
    (Compartment.n_categories a)
    (Option.get (Compartment.size a))
    (Compartment.height a);
  let mk cls cats = Compartment.make_exn a ~cls ~cats in
  let show_lub x y =
    Printf.printf "  lub(%s, %s) = %s\n"
      (Compartment.level_to_string a x)
      (Compartment.level_to_string a y)
      (Compartment.level_to_string a (Compartment.lub a x y))
  in
  show_lub (mk "S" [ "Army" ]) (mk "TS" [ "Nuclear" ]);
  show_lub (mk "S" [ "Army" ]) (mk "S" [ "Nuclear" ]);
  let b = Paper.fig1b in
  Printf.printf "\nFig. 1(b): %d levels, height %d, cover relation:\n"
    (Explicit.cardinal b) (Explicit.height b);
  List.iter
    (fun (lo, hi) ->
      Printf.printf "  %s < %s\n" (Explicit.name b lo) (Explicit.name b hi))
    (Explicit.cover_pairs b);
  Printf.printf "  glb(L4, L5) = %s   lub(L2, L3) = %s\n"
    (Explicit.name b
       (Explicit.glb b (Explicit.of_name_exn b "L4") (Explicit.of_name_exn b "L5")))
    (Explicit.name b
       (Explicit.lub b (Explicit.of_name_exn b "L2") (Explicit.of_name_exn b "L3")))

(* ------------------------------------------------------------------ *)
(* FIG2 — the worked example and its trace (Figure 2).                 *)

let fig2 () =
  section "FIG2: the Figure 2 classification (paper's worked example)";
  let problem =
    SE.compile_exn ~lattice:Paper.fig1b ~attrs:Paper.fig2_attrs
      Paper.fig2_constraints
  in
  Printf.printf "priority sets:\n";
  Array.iteri
    (fun i set ->
      Printf.printf "  priority[%d] = {%s}\n" (i + 1)
        (String.concat ", "
           (Array.to_list (Array.map (Problem.attr_name problem.SE.prob) set))))
    problem.SE.prio.Minup_constraints.Priorities.sets;
  let sol = SE.solve problem in
  let rows =
    List.map
      (fun (attr, expected) ->
        let got =
          Explicit.level_to_string Paper.fig1b
            (Option.get (SE.find problem sol attr))
        in
        [ attr; got; expected; (if got = expected then "ok" else "MISMATCH") ])
      Paper.fig2_expected_solution
  in
  table ~header:[ "attr"; "computed"; "paper"; "" ] rows;
  let ok =
    List.for_all
      (fun (attr, expected) ->
        Explicit.level_to_string Paper.fig1b
          (Option.get (SE.find problem sol attr))
        = expected)
      Paper.fig2_expected_solution
  in
  Printf.printf "reproduces Fig. 2(b) final row: %b\n" ok

(* ------------------------------------------------------------------ *)
(* THM52 — complexity scaling (Theorem 5.2).                           *)

let ladder16 = Total.create (List.init 16 (Printf.sprintf "S%d"))

let acyclic_workload seed n =
  let rng = Prng.create seed in
  Gen.acyclic rng
    {
      Gen.n_attrs = n;
      n_simple = 2 * n;
      n_complex = n / 2;
      max_lhs = 4;
      n_constants = n / 4;
      constants = List.init 16 Fun.id;
    }

(* The quadratic worst case needs forward lowering to traverse most of the
   SCC on every attempt: a bare Hamiltonian cycle with a single interior
   floor.  Chords or extra floors make Try fail early and the measured
   cost collapses back to linear. *)
let cyclic_workload seed n =
  let rng = Prng.create seed in
  Gen.single_scc rng
    {
      Gen.n_attrs = n;
      n_simple = 0;
      n_complex = 0;
      max_lhs = 2;
      n_constants = 1;
      constants = [ 8 ];
    }

let scaling_row problem =
  let stats = Stats.compute problem.ST.prob in
  let result = ref None in
  let secs = time_it (fun () -> result := Some (ST.solve problem)) in
  let sol = Option.get !result in
  let ops = Instr.lattice_ops sol.ST.stats in
  (stats, secs, ops, float_of_int ops /. float_of_int stats.Stats.total_size)

let thm52_acyclic () =
  section "THM52-A: acyclic scaling — expect ops/S to stay flat (linear in S)";
  let rows =
    List.map
      (fun n ->
        let attrs, csts = acyclic_workload 17 n in
        let problem = ST.compile_exn ~lattice:ladder16 ~attrs csts in
        let stats, secs, ops, ratio = scaling_row problem in
        [
          string_of_int n;
          string_of_int stats.Stats.total_size;
          pp_seconds secs;
          string_of_int ops;
          Printf.sprintf "%.2f" ratio;
        ])
      [ 1_000; 2_000; 4_000; 8_000; 16_000; 32_000 ]
  in
  table ~header:[ "attrs"; "S"; "time"; "lattice ops"; "ops/S" ] rows

let thm52_cyclic () =
  section
    "THM52-C: single-SCC scaling — ops/S grows with N_A (quadratic worst case)";
  let rows =
    List.map
      (fun n ->
        let attrs, csts = cyclic_workload 23 n in
        let problem = ST.compile_exn ~lattice:ladder16 ~attrs csts in
        let stats, secs, ops, ratio = scaling_row problem in
        [
          string_of_int n;
          string_of_int stats.Stats.total_size;
          pp_seconds secs;
          string_of_int ops;
          Printf.sprintf "%.2f" ratio;
        ])
      [ 50; 100; 200; 400; 800 ]
  in
  table ~header:[ "attrs"; "S"; "time"; "lattice ops"; "ops/S" ] rows;
  print_endline
    "  (ops/S growing with N_A is the quadratic worst case of Thm. 5.2;\n\
    \   the acyclic table stays flat, matching the linear bound)"

(* ------------------------------------------------------------------ *)
(* SEC5-L — cost of lattice operations (Bechamel microbenchmark).      *)

let lattice_ops () =
  section "SEC5-L: lattice operation cost (Bechamel OLS estimates)";
  let explicit = Minup_workload.Gen_lattice.chain_product [ 3; 3; 3 ] in
  let n = Explicit.cardinal explicit in
  let enc = Encode.of_explicit explicit in
  let dod = Compartment.dod ~n_categories:62 in
  let rng = Prng.create 7 in
  let pairs = Array.init 256 (fun _ -> (Prng.int rng n, Prng.int rng n)) in
  let dod_levels =
    Array.init 256 (fun _ ->
        Compartment.{ cls = Prng.int rng 4; cats = Prng.int rng (1 lsl 30) })
  in
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"explicit.leq (bitset up-sets)"
        (Staged.stage (fun () ->
             Array.iter (fun (a, b) -> ignore (Explicit.leq explicit a b)) pairs));
      Test.make ~name:"encode.leq (chain codes)"
        (Staged.stage (fun () ->
             Array.iter (fun (a, b) -> ignore (Encode.leq enc a b)) pairs));
      Test.make ~name:"explicit.lub (table)"
        (Staged.stage (fun () ->
             Array.iter (fun (a, b) -> ignore (Explicit.lub explicit a b)) pairs));
      Test.make ~name:"compartment.leq (bit vector)"
        (Staged.stage (fun () ->
             Array.iteri
               (fun i l ->
                 ignore (Compartment.leq dod l dod_levels.((i + 1) land 255)))
               dod_levels));
      Test.make ~name:"compartment.lub (bit vector)"
        (Staged.stage (fun () ->
             Array.iteri
               (fun i l ->
                 ignore (Compartment.lub dod l dod_levels.((i + 1) land 255)))
               dod_levels));
    ]
  in
  let rows =
    List.map
      (fun (name, ns) -> [ name; Printf.sprintf "%.2f" (ns /. 256.0) ])
      (bechamel_estimates tests)
  in
  table ~header:[ "operation (batches of 256)"; "ns/op" ] rows;
  print_endline
    "  (the paper's §5 point: with suitable encodings dominance and lub are\n\
    \   effectively constant time, so c in the complexity bounds is O(1))"

(* ------------------------------------------------------------------ *)
(* SEC6-UB — upper-bound preprocessing scaling.                        *)

let upper_bounds () =
  section "SEC6-UB: upper-bound preprocessing — expect linear growth in S";
  let rows =
    List.map
      (fun n ->
        let attrs, csts = acyclic_workload 31 n in
        let problem = ST.compile_exn ~lattice:ladder16 ~attrs csts in
        let s = Problem.total_size problem.ST.prob in
        let bounds =
          List.filteri (fun i _ -> i mod 10 = 0) attrs
          |> List.map (fun a -> (a, 12))
        in
        let pre_secs =
          time_it (fun () -> ignore (ST.derive_upper_bounds problem bounds))
        in
        let solve_secs =
          time_it (fun () -> ignore (ST.solve_with_bounds problem bounds))
        in
        [
          string_of_int n;
          string_of_int s;
          pp_seconds pre_secs;
          pp_seconds solve_secs;
        ])
      [ 1_000; 2_000; 4_000; 8_000; 16_000 ]
  in
  table ~header:[ "attrs"; "S"; "preprocess"; "bounded solve" ] rows

(* ------------------------------------------------------------------ *)
(* FIG4 — NP-completeness over posets (Theorem 6.1).                   *)

let fig4 () =
  section
    "FIG4/THM61: 3-SAT reduction — poset search vs polynomial lattice solve";
  let open Minup_poset in
  let rows =
    List.map
      (fun n_vars ->
        let rng = Prng.create (1000 + n_vars) in
        let n_clauses = int_of_float (4.2 *. float_of_int n_vars) in
        let cnf = Minup_workload.Gen_sat.random_3sat rng ~n_vars ~n_clauses in
        let red = Reduction.build cnf in
        let sat_result = ref None and mp_result = ref None in
        let sat_secs =
          time_it (fun () -> sat_result := Some (Sat.solve_count cnf))
        in
        let mp_secs =
          time_it (fun () ->
              mp_result := Some (Minposet.satisfiable_count red.Reduction.problem))
        in
        let sat, sat_dec = Option.get !sat_result in
        let mp, mp_dec = Option.get !mp_result in
        assert ((sat <> None) = (mp <> None));
        let attrs, csts =
          acyclic_workload n_vars (Minposet.n_attrs red.Reduction.problem)
        in
        let lp = ST.compile_exn ~lattice:ladder16 ~attrs csts in
        let lat_secs = time_it (fun () -> ignore (ST.solve lp)) in
        [
          string_of_int n_vars;
          string_of_int n_clauses;
          (if sat <> None then "SAT" else "UNSAT");
          string_of_int sat_dec;
          string_of_int mp_dec;
          pp_seconds sat_secs;
          pp_seconds mp_secs;
          pp_seconds lat_secs;
        ])
      [ 4; 6; 8; 10; 12; 14 ]
  in
  table
    ~header:
      [
        "vars"; "clauses"; "result"; "dpll dec"; "poset dec"; "dpll";
        "min-poset"; "lattice same-size";
      ]
    rows;
  print_endline
    "  (the min-poset search tracks the exponential SAT search, while a\n\
    \   lattice instance with the same attribute count stays fast — Thm. 6.1)"

(* ------------------------------------------------------------------ *)
(* ABL-BT — ablation: backtracking baseline vs forward lowering.       *)

let ablation_backtrack () =
  section
    "ABL-BT: rejected backtracking alternative vs Algorithm 3.1";
  let module BT = Minup_baselines.Backtrack.Make (Explicit) in
  let lat = Paper.fig1b in
  let lvl = Explicit.of_name_exn lat in
  (* k complex constraints of lhs size 3 over a simple chain: the
     backtracking choice space is 3^k while the algorithm stays flat. *)
  let build k =
    let attrs = List.init (3 * k) (Printf.sprintf "x%d") in
    let complex =
      List.init k (fun i ->
          Cst.make_exn
            ~lhs:
              [
                Printf.sprintf "x%d" (3 * i);
                Printf.sprintf "x%d" ((3 * i) + 1);
                Printf.sprintf "x%d" ((3 * i) + 2);
              ]
            ~rhs:(Cst.Level (lvl "L6")))
    in
    let chain =
      List.init ((3 * k) - 1) (fun i ->
          Cst.simple
            (Printf.sprintf "x%d" i)
            (Cst.Attr (Printf.sprintf "x%d" (i + 1))))
    in
    let floors = [ Cst.simple "x0" (Cst.Level (lvl "L2")) ] in
    SE.compile_exn ~lattice:lat ~attrs (complex @ chain @ floors)
  in
  let rows =
    List.map
      (fun k ->
        let problem = build k in
        let space = Option.get (BT.search_space problem) in
        let bt_secs =
          time_it ~runs:1 (fun () ->
              ignore (BT.solve ~max_space:max_int problem))
        in
        let alg_secs = time_it (fun () -> ignore (SE.solve problem)) in
        [
          string_of_int k;
          string_of_int space;
          pp_seconds bt_secs;
          pp_seconds alg_secs;
        ])
      [ 2; 4; 6; 8; 10 ]
  in
  table
    ~header:[ "complex csts"; "choice space"; "backtracking"; "Algorithm 3.1" ]
    rows;
  print_endline
    "  (the backtracking column grows with the product of lhs sizes = 3^k —\n\
    \   the cost §3.2 rejects; forward lowering stays polynomial)"

(* ------------------------------------------------------------------ *)
(* CMP-Q — overclassification of the Qian-style baseline.              *)

let qian_quality () =
  section "CMP-Q: overclassification vs the Qian-style baseline [13]";
  let module Q = Minup_baselines.Qian.Make (Explicit) in
  let module TM = Minup_baselines.Topmost.Make (Explicit) in
  let module Loss = Minup_baselines.Loss.Make (Explicit) in
  let lat = Paper.fig1b in
  let run name attrs csts =
    let problem = SE.compile_exn ~lattice:lat ~attrs csts in
    let sol = SE.solve problem in
    let q = Q.solve problem in
    let t = TM.solve problem in
    assert (SE.satisfies problem q);
    [
      name;
      string_of_int (Problem.n_attrs problem.SE.prob);
      string_of_int (Loss.n_overclassified lat ~reference:sol.SE.levels q);
      string_of_int (Loss.excess_rank lat ~reference:sol.SE.levels q);
      string_of_int (Loss.excess_rank lat ~reference:sol.SE.levels t);
    ]
  in
  let rng = Prng.create 99 in
  let spec n =
    {
      Gen.n_attrs = n;
      n_simple = n;
      n_complex = n / 2;
      max_lhs = 3;
      n_constants = n / 2;
      constants = Explicit.all lat;
    }
  in
  let rows =
    [
      run "Fig. 2 example" Paper.fig2_attrs Paper.fig2_constraints;
      run "sec. 3.1 example" [] Paper.sec31_constraints;
      (let attrs, csts = Gen.acyclic rng (spec 60) in
       run "random acyclic n=60" attrs csts);
      (let attrs, csts = Gen.acyclic rng (spec 200) in
       run "random acyclic n=200" attrs csts);
      (let attrs, csts = Gen.single_scc rng (spec 40) in
       run "random cyclic n=40" attrs csts);
    ]
  in
  table
    ~header:
      [
        "workload"; "attrs"; "qian overclassified"; "qian excess rank";
        "all-top excess rank";
      ]
    rows;
  print_endline
    "  (Algorithm 3.1 is the reference: it is pointwise minimal, so every\n\
    \   positive entry is unnecessary upgrading by the baseline)"

(* ------------------------------------------------------------------ *)
(* EXT-VERIFY — the polynomial minimality checker at scale.            *)

let ext_verify () =
  section
    "EXT-VERIFY: exact minimality verification by replay (extension; expect \
     near-linear growth)";
  let module Ex = Minup_core.Explain.Make (Total) in
  let rows =
    List.map
      (fun n ->
        let attrs, csts = acyclic_workload 41 n in
        let problem = ST.compile_exn ~lattice:ladder16 ~attrs csts in
        let sol = ST.solve problem in
        let verdict = ref false in
        let secs =
          time_it (fun () -> verdict := Ex.is_locally_minimal problem sol.ST.levels)
        in
        assert !verdict;
        [
          string_of_int n;
          string_of_int (Problem.total_size problem.ST.prob);
          pp_seconds secs;
          "minimal";
        ])
      [ 500; 1_000; 2_000; 4_000; 8_000 ]
  in
  table ~header:[ "attrs"; "S"; "verify time"; "verdict" ] rows;
  print_endline
    "  (the exhaustive oracle is exponential; the replay checker certifies\n\
    \   the same answer in polynomial time — see Explain's documentation)"

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("thm52-acyclic", thm52_acyclic);
    ("thm52-cyclic", thm52_cyclic);
    ("lattice-ops", lattice_ops);
    ("upper-bounds", upper_bounds);
    ("fig4", fig4);
    ("ablation-backtrack", ablation_backtrack);
    ("qian-quality", qian_quality);
    ("ext-verify", ext_verify);
  ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "list" :: _ ->
      List.iter (fun (name, _) -> print_endline name) experiments
  | _ :: name :: _ -> (
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; try 'list'\n" name;
          exit 1)
  | _ -> List.iter (fun (_, f) -> f ()) experiments
