(* Upper-bound constraints (§6). *)

open Minup_lattice
open Helpers

let case = Helpers.case

let trivial_inconsistency () =
  (* The paper's smallest example: {A ⊒ ⊤, A ⊑ ⊥}. *)
  let p = S.compile_exn ~lattice:fig1b [ level_cst "A" "L6" ] in
  match S.solve_with_bounds p [ ("A", lvl "L1") ] with
  | Error (S.Unsatisfiable _) -> ()
  | Error (S.Unknown_attr _) -> Alcotest.fail "wrong inconsistency"
  | Ok _ -> Alcotest.fail "accepted A ⊒ ⊤ ∧ A ⊑ ⊥"

let unknown_attr () =
  let p = S.compile_exn ~lattice:fig1b [ level_cst "A" "L2" ] in
  match S.solve_with_bounds p [ ("nope", lvl "L3") ] with
  | Error (S.Unknown_attr "nope") -> ()
  | _ -> Alcotest.fail "missed unknown attribute"

let bounds_propagate () =
  (* b ⊒ a and b ⊑ L3 cap a at L3 as well. *)
  let p = S.compile_exn ~lattice:fig1b [ attr_cst "b" "a" ] in
  match S.derive_upper_bounds p [ ("b", lvl "L3") ] with
  | Error _ -> Alcotest.fail "unexpected inconsistency"
  | Ok ub ->
      let id x = Option.get (Minup_constraints.Problem.attr_id p.S.prob x) in
      Alcotest.check (level_t fig1b) "b capped" (lvl "L3") ub.(id "b");
      Alcotest.check (level_t fig1b) "a capped via constraint" (lvl "L3")
        ub.(id "a")

let complex_bound_propagation () =
  (* lub{a,b} ⊒ c with a ⊑ L2, b ⊑ L3: c is capped at lub(L2,L3) = L4. *)
  let p = S.compile_exn ~lattice:fig1b [ infer_cst [ "a"; "b" ] "c" ] in
  match S.derive_upper_bounds p [ ("a", lvl "L2"); ("b", lvl "L3") ] with
  | Error _ -> Alcotest.fail "unexpected inconsistency"
  | Ok ub ->
      let id x = Option.get (Minup_constraints.Problem.attr_id p.S.prob x) in
      Alcotest.check (level_t fig1b) "c capped at L4" (lvl "L4") ub.(id "c")

let detect_deep_inconsistency () =
  (* a ⊑ L2, a ⊒ b, b ⊒ L3: pushing the bound through a hits the floor. *)
  let p =
    S.compile_exn ~lattice:fig1b [ attr_cst "a" "b"; level_cst "b" "L3" ]
  in
  match S.solve_with_bounds p [ ("a", lvl "L2") ] with
  | Error (S.Unsatisfiable _) -> ()
  | _ -> Alcotest.fail "missed propagated inconsistency"

let consistent_solve () =
  (* Visibility guarantee: name ⊑ L4 while {name, salary} ⊒ L6. *)
  let csts = [ assoc_cst [ "name"; "salary" ] "L6"; level_cst "salary" "L3" ] in
  let p = S.compile_exn ~lattice:fig1b csts in
  let bounds = [ ("name", lvl "L4") ] in
  match S.solve_with_bounds p bounds with
  | Error _ -> Alcotest.fail "unexpected inconsistency"
  | Ok sol ->
      Alcotest.(check bool) "satisfies" true (S.satisfies p sol.S.levels);
      let l a = Option.get (S.find p sol a) in
      Alcotest.(check bool) "bound respected" true
        (Explicit.leq fig1b (l "name") (lvl "L4"));
      (* salary must absorb the association requirement: lub must be L6. *)
      Alcotest.check (level_t fig1b) "lub reaches L6" (lvl "L6")
        (Explicit.lub fig1b (l "name") (l "salary"))

let bounded_minimality () =
  (* Among assignments below the bounds, the solver's answer is minimal. *)
  let csts = [ assoc_cst [ "a"; "b" ] "L6"; level_cst "b" "L2" ] in
  let p = S.compile_exn ~lattice:fig1b csts in
  let bounds = [ ("b", lvl "L4") ] in
  match S.solve_with_bounds p bounds with
  | Error _ -> Alcotest.fail "unexpected inconsistency"
  | Ok sol ->
      Alcotest.(check bool) "satisfies" true (S.satisfies p sol.S.levels);
      (match V.is_minimal_solution p sol.S.levels with
      | Ok b -> Alcotest.(check bool) "minimal" true b
      | Error `Too_large -> Alcotest.fail "oracle too large");
      let id x = Option.get (Minup_constraints.Problem.attr_id p.S.prob x) in
      Alcotest.(check bool) "b within bound" true
        (Explicit.leq fig1b sol.S.levels.(id "b") (lvl "L4"))

let bounds_on_cycles () =
  (* A cycle capped from above and floored from below. *)
  let csts =
    [ attr_cst "x" "y"; attr_cst "y" "x"; level_cst "x" "L2" ]
  in
  let p = S.compile_exn ~lattice:fig1b csts in
  match S.solve_with_bounds p [ ("y", lvl "L4") ] with
  | Error _ -> Alcotest.fail "unexpected inconsistency"
  | Ok sol ->
      Alcotest.(check bool) "satisfies" true (S.satisfies p sol.S.levels);
      List.iter
        (fun (a, l) ->
          Alcotest.(check string) (a ^ " at L2") "L2"
            (Explicit.level_to_string fig1b l))
        sol.S.assignment

let no_bounds_equals_plain_solve () =
  let p =
    S.compile_exn ~lattice:fig1b ~attrs:Minup_core.Paper.fig2_attrs
      Minup_core.Paper.fig2_constraints
  in
  match S.solve_with_bounds p [] with
  | Error _ -> Alcotest.fail "inconsistent without bounds?"
  | Ok sol ->
      let plain = S.solve p in
      Alcotest.(check bool) "same assignment" true
        (V.equal_assignment fig1b plain.S.levels sol.S.levels)

let random_bounded_prop =
  QCheck.Test.make ~count:40 ~name:"random bounded: satisfies, capped, minimal"
    Helpers.seed_arb
    (fun seed ->
      let rng = Minup_workload.Prng.create seed in
      let lat =
        Minup_workload.Gen_lattice.random_closure_exn rng ~universe:4
          ~n_generators:3 ~max_size:12
      in
      let spec =
        Minup_workload.Gen_constraints.
          {
            n_attrs = 5;
            n_simple = 4;
            n_complex = 1;
            max_lhs = 2;
            n_constants = 2;
            constants = Explicit.all lat;
          }
      in
      let attrs, csts = Minup_workload.Gen_constraints.acyclic rng spec in
      let p = S.compile_exn ~lattice:lat ~attrs csts in
      let bound_attr = Minup_workload.Prng.pick rng attrs in
      let bound_level =
        Minup_workload.Prng.pick rng (Explicit.all lat)
      in
      match S.solve_with_bounds p [ (bound_attr, bound_level) ] with
      | Error (S.Unsatisfiable _) ->
          (* Must really be unsatisfiable under the bound: no solution of
             the oracle respects it. *)
          let id = Option.get (Minup_constraints.Problem.attr_id p.S.prob bound_attr) in
          (match V.all_solutions ~cap:150_000 p with
          | Error `Too_large -> true
          | Ok sols ->
              not
                (List.exists
                   (fun s -> Explicit.leq lat s.(id) bound_level)
                   sols))
      | Error (S.Unknown_attr _) -> false
      | Ok sol ->
          let id = Option.get (Minup_constraints.Problem.attr_id p.S.prob bound_attr) in
          S.satisfies p sol.S.levels
          && Explicit.leq lat sol.S.levels.(id) bound_level)

(* [S.derive_upper_bounds] as it was before it pushed only what the
   bounds reach: every attribute-rhs row queued once, a FIFO to the
   greatest fixpoint, then every level-rhs row checked in row order. *)
exception Inconsistent of S.inconsistency

let all_rows_upper_bounds ({ S.lat; prob; _ } : S.problem) bounds =
  let module P = Minup_constraints.Problem in
  let { P.rhs; levels; _ } = prob.P.store in
  let ub = Array.make (P.n_attrs prob) (Explicit.top lat) in
  let lhs_bound ci =
    P.fold_lhs prob ci (fun acc a -> Explicit.lub lat acc ub.(a)) (Explicit.bottom lat)
  in
  match
    List.iter
      (fun (name, l) ->
        match P.attr_id prob name with
        | Some a -> ub.(a) <- Explicit.glb lat ub.(a) l
        | None -> raise (Inconsistent (S.Unknown_attr name)))
      bounds;
    let queue = Queue.create () in
    let enqueue ci = if P.rhs_is_attr rhs.(ci) then Queue.push ci queue in
    for ci = 0 to P.n_csts prob - 1 do
      enqueue ci
    done;
    while not (Queue.is_empty queue) do
      let ci = Queue.pop queue in
      let b = rhs.(ci) in
      let nb = Explicit.glb lat ub.(b) (lhs_bound ci) in
      if not (Explicit.equal lat nb ub.(b)) then begin
        ub.(b) <- nb;
        P.iter_constr_of prob b enqueue
      end
    done;
    for ci = 0 to P.n_csts prob - 1 do
      let r = rhs.(ci) in
      if not (P.rhs_is_attr r) then begin
        let bound = lhs_bound ci in
        if not (Explicit.leq lat levels.(P.rhs_level_index r) bound) then
          raise (Inconsistent (S.Unsatisfiable { cst = P.cst_to_source prob ci; bound }))
      end
    done
  with
  | () -> Ok ub
  | exception Inconsistent i -> Error i

(* The worklist seeded from the bounded attributes reaches the same
   fixpoint, and reports the same inconsistency, as the all-rows one: on
   random [acyclic], [single_scc] and [mixed] problems under one to four
   bounds drawn from ⊥ to ⊤, equal [ub] arrays, or the same [Error]
   naming the same constraint and bound. *)
let upper_bounds_oracle =
  QCheck.Test.make ~count:500 ~name:"derive_upper_bounds = the all-rows fixpoint"
    Helpers.seed_arb
    (fun seed ->
      let module Prng = Minup_workload.Prng in
      let module Gen = Minup_workload.Gen_constraints in
      let rng = Prng.create seed in
      let lat =
        Minup_workload.Gen_lattice.random_closure_exn rng ~universe:4 ~n_generators:3
          ~max_size:12
      in
      let levels = Explicit.all lat in
      let spec =
        {
          Gen.n_attrs = 6 + Prng.int rng 10;
          n_simple = 4 + Prng.int rng 12;
          n_complex = Prng.int rng 5;
          max_lhs = 3;
          n_constants = 1 + Prng.int rng 4;
          constants = levels;
        }
      in
      let attrs, csts =
        match seed mod 3 with
        | 0 -> Gen.acyclic rng spec
        | 1 -> Gen.single_scc rng spec
        | _ -> Gen.mixed rng spec ~n_islands:2 ~island_size:3
      in
      let p = S.compile_exn ~lattice:lat ~attrs csts in
      let bounds =
        List.init (1 + Prng.int rng 4) (fun _ -> (Prng.pick rng attrs, Prng.pick rng levels))
      in
      match (S.derive_upper_bounds p bounds, all_rows_upper_bounds p bounds) with
      | Ok got, Ok want -> Array.for_all2 (Explicit.equal lat) got want
      | Error (S.Unsatisfiable g), Error (S.Unsatisfiable w) ->
          g.cst = w.cst && Explicit.equal lat g.bound w.bound
      | Error (S.Unknown_attr g), Error (S.Unknown_attr w) -> g = w
      | _ -> QCheck.Test.fail_reportf "seed %d: one result is Ok, the other an Error" seed)

let suite =
  [
    case "trivial inconsistency" trivial_inconsistency;
    case "unknown attribute" unknown_attr;
    case "bounds propagate backward" bounds_propagate;
    case "bounds propagate through complex" complex_bound_propagation;
    case "deep inconsistency detected" detect_deep_inconsistency;
    case "consistent bounded solve" consistent_solve;
    case "bounded minimality" bounded_minimality;
    case "bounds on cycles" bounds_on_cycles;
    case "no bounds = plain solve" no_bounds_equals_plain_solve;
    Helpers.qcheck random_bounded_prop;
    Helpers.qcheck upper_bounds_oracle;
  ]
