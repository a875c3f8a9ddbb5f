open Minup_lattice
open Minup_poset

let case = Helpers.case

(* The Fig. 4(b) butterfly: an attribute required to dominate both minimal
   elements must pick one of the two incomparable maximal ones — the choice
   that makes min-poset hard. *)
let butterfly_choice () =
  let b = Poset.butterfly in
  let e = Poset.of_name_exn b in
  let p =
    Minposet.compile_exn b [ "w" ]
      [ Minposet.Geq_elt ("w", e "c"); Minposet.Geq_elt ("w", e "d") ]
  in
  (match Minposet.satisfiable p with
  | Some sol ->
      Alcotest.(check bool) "w maximal" true (sol.(0) = e "a" || sol.(0) = e "b")
  | None -> Alcotest.fail "satisfiable");
  match Minposet.minimal_solutions p with
  | Ok sols -> Alcotest.(check int) "two minimal solutions" 2 (List.length sols)
  | Error `Too_large -> Alcotest.fail "too large"

let unsatisfiable () =
  let b = Poset.butterfly in
  let e = Poset.of_name_exn b in
  (* w ⊒ a and w ⊑ c is impossible. *)
  let p =
    Minposet.compile_exn b [ "w" ]
      [ Minposet.Geq_elt ("w", e "a"); Minposet.Leq_elt ("w", e "c") ]
  in
  Alcotest.(check bool) "unsat" true (Minposet.satisfiable p = None)

let attr_chain () =
  let b = Poset.butterfly in
  let e = Poset.of_name_exn b in
  let p =
    Minposet.compile_exn b [ "x"; "y" ]
      [ Minposet.Geq_attr ("x", "y"); Minposet.Geq_elt ("y", e "c") ]
  in
  match Minposet.satisfiable p with
  | Some sol ->
      Alcotest.(check bool) "x ⊒ y" true
        (Poset.leq b sol.(Minposet.attr_id_exn p "y") sol.(Minposet.attr_id_exn p "x"))
  | None -> Alcotest.fail "satisfiable"

let lub_constraint () =
  (* In a chain x ⊑ y ⊑ z: lub{a1,a2} ⊒ t behaves like max. *)
  let c =
    Poset.create_exn ~names:[ "x"; "y"; "z" ] ~order:[ ("x", "y"); ("y", "z") ]
  in
  let e = Poset.of_name_exn c in
  let p =
    Minposet.compile_exn c [ "a1"; "a2"; "t" ]
      [
        Minposet.Lub_geq ([ "a1"; "a2" ], "t");
        Minposet.Geq_elt ("t", e "z");
      ]
  in
  match Minposet.satisfiable p with
  | Some sol ->
      let v a = sol.(Minposet.attr_id_exn p a) in
      Alcotest.(check bool) "some lhs reaches z" true
        (v "a1" = e "z" || v "a2" = e "z")
  | None -> Alcotest.fail "satisfiable"

let minimize_descends () =
  let b = Poset.butterfly in
  let e = Poset.of_name_exn b in
  let p = Minposet.compile_exn b [ "w" ] [ Minposet.Geq_elt ("w", e "c") ] in
  let start = [| e "a" |] in
  let m = Minposet.minimize p start in
  Alcotest.(check int) "lowered to c" (e "c") m.(0)

let errors () =
  (match Minposet.compile Poset.butterfly [ "w" ] [ Minposet.Geq_attr ("w", "zz") ] with
  | Error (Minposet.Unknown_attr "zz") -> ()
  | _ -> Alcotest.fail "accepted unknown attr");
  match Minposet.compile Poset.butterfly [ "w" ] [ Minposet.Lub_geq ([], "w") ] with
  | Error Minposet.Empty_lub -> ()
  | _ -> Alcotest.fail "accepted empty lub"

(* Backtracking agrees with exhaustive enumeration. *)
let satisfiable_equals_enumeration =
  QCheck.Test.make ~count:80 ~name:"backtracking = exhaustive satisfiability"
    Helpers.seed_arb
    (fun seed ->
      let rng = Minup_workload.Prng.create seed in
      let n = 5 in
      let names = List.init n (Printf.sprintf "e%d") in
      let order =
        List.concat
          (List.init n (fun i ->
               List.filter_map
                 (fun j ->
                   if j > i && Minup_workload.Prng.bool rng then
                     Some (Printf.sprintf "e%d" i, Printf.sprintf "e%d" j)
                   else None)
                 (List.init n Fun.id)))
      in
      let poset = Poset.create_exn ~names ~order in
      let elt () = Minup_workload.Prng.int rng n in
      let attrs = [ "a"; "b"; "c" ] in
      let csts =
        [
          Minposet.Geq_elt ("a", elt ());
          Minposet.Leq_elt ("b", elt ());
          Minposet.Geq_attr ("a", "b");
          Minposet.Geq_attr ("c", "a");
          Minposet.Geq_elt ("c", elt ());
        ]
      in
      let p = Minposet.compile_exn poset attrs csts in
      let bt = Minposet.satisfiable p in
      (match bt with Some s -> Minposet.satisfies p s | None -> true)
      &&
      match Minposet.all_solutions p with
      | Ok sols -> (bt <> None) = (sols <> [])
      | Error `Too_large -> true)

(* The low-first order reads each element's depth in the order, not its
   declared position: for a < b < c and a < x, [w ⊒ b] is first satisfied
   at b, however the elements are declared. *)
let low_first_any_declaration () =
  List.iter
    (fun names ->
      let p = Poset.create_exn ~names ~order:[ ("a", "b"); ("b", "c"); ("a", "x") ] in
      let e = Poset.of_name_exn p in
      let m = Minposet.compile_exn p [ "w" ] [ Minposet.Geq_elt ("w", e "b") ] in
      match Minposet.satisfiable m with
      | Some sol ->
          Alcotest.(check string) (String.concat ", " names ^ ": w") "b" (Poset.name p sol.(0))
      | None -> Alcotest.fail "satisfiable")
    [ [ "a"; "b"; "x"; "c" ]; [ "c"; "x"; "b"; "a" ] ]

let suite =
  [
    case "butterfly forces a choice" butterfly_choice;
    case "unsatisfiable bounds" unsatisfiable;
    case "attribute chain" attr_chain;
    case "lub constraint" lub_constraint;
    case "minimize descends" minimize_descends;
    case "low-first on any declaration order" low_first_any_declaration;
    case "compile errors" errors;
    Helpers.qcheck satisfiable_equals_enumeration;
  ]
