module Cst = Minup_constraints.Cst
module Problem = Minup_constraints.Problem
module Scc = Minup_constraints.Scc

let case = Helpers.case

let fig2 () =
  let p =
    Problem.compile_exn ~attrs:Minup_core.Paper.fig2_attrs
      Minup_core.Paper.fig2_constraints
  in
  let scc = Scc.compute p in
  Alcotest.(check int) "4 components" 4 scc.Scc.n_components;
  let id a = Option.get (Problem.attr_id p a) in
  Alcotest.(check bool) "B~M" true (Scc.same_component scc (id "B") (id "M"));
  Alcotest.(check bool) "I~N" true (Scc.same_component scc (id "I") (id "N"));
  Alcotest.(check bool) "B!~I" false (Scc.same_component scc (id "B") (id "I"));
  Alcotest.(check bool) "P alone" false (Scc.same_component scc (id "P") (id "D"))

let reverse_topological () =
  let p =
    Problem.compile_exn
      [ Cst.simple "a" (Cst.Attr "b"); Cst.simple "b" (Cst.Attr "c") ]
  in
  let scc = Scc.compute p in
  let id x = Option.get (Problem.attr_id p x) in
  (* Edge a→b means component(a) > component(b). *)
  Alcotest.(check bool) "a after b" true
    (scc.Scc.component.(id "a") > scc.Scc.component.(id "b"));
  Alcotest.(check bool) "b after c" true
    (scc.Scc.component.(id "b") > scc.Scc.component.(id "c"))

let cyclic_component () =
  let p =
    Problem.compile_exn
      [ Cst.simple "a" (Cst.Attr "b"); Cst.simple "b" (Cst.Attr "a"); Cst.simple "c" (Cst.Level 0) ]
  in
  let scc = Scc.compute p in
  let id x = Option.get (Problem.attr_id p x) in
  Alcotest.(check bool) "ab cyclic" true
    (Scc.is_cyclic_component scc p scc.Scc.component.(id "a"));
  Alcotest.(check bool) "c not cyclic" false
    (Scc.is_cyclic_component scc p scc.Scc.component.(id "c"))

(* Cross-check against reachability: same component iff mutually
   reachable. *)
let reachability_prop =
  QCheck.Test.make ~count:100 ~name:"SCC = mutual reachability" Helpers.seed_arb
    (fun seed ->
      let rng = Minup_workload.Prng.create seed in
      let spec =
        Minup_workload.Gen_constraints.
          {
            n_attrs = 12;
            n_simple = 14;
            n_complex = 4;
            max_lhs = 3;
            n_constants = 2;
            constants = [ 0 ];
          }
      in
      let attrs, csts = Minup_workload.Gen_constraints.single_scc rng spec in
      (* add an acyclic tail *)
      let csts = Cst.simple "A0" (Cst.Attr "T") :: csts in
      let p = Problem.compile_exn ~attrs:(attrs @ [ "T" ]) csts in
      let n = Problem.n_attrs p in
      let reach = Array.make_matrix n n false in
      for ci = 0 to Problem.n_csts p - 1 do
        match Problem.rhs p ci with
        | Problem.Rattr b -> Problem.iter_lhs p ci (fun a -> reach.(a).(b) <- true)
        | Problem.Rlevel _ -> ()
      done;
      for i = 0 to n - 1 do
        reach.(i).(i) <- true
      done;
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
          done
        done
      done;
      let scc = Scc.compute p in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if
            scc.Scc.component.(i) = scc.Scc.component.(j)
            <> (reach.(i).(j) && reach.(j).(i))
          then ok := false
        done
      done;
      !ok)

let suite =
  [
    case "Fig. 2 components" fig2;
    case "reverse topological numbering" reverse_topological;
    case "cyclic component detection" cyclic_component;
    Helpers.qcheck reachability_prop;
  ]
