open Minup_lattice

let case = Helpers.case
let b = Poset.butterfly

let butterfly () =
  Alcotest.(check int) "cardinal" 4 (Poset.cardinal b);
  Alcotest.(check int) "height" 1 (Poset.height b);
  let e = Poset.of_name_exn b in
  Alcotest.(check bool) "c ⊑ a" true (Poset.leq b (e "c") (e "a"));
  Alcotest.(check bool) "a ⋢ b" false (Poset.leq b (e "a") (e "b"));
  Alcotest.(check (list int)) "maximal" [ e "a"; e "b" ] (Poset.maximal_elements b);
  Alcotest.(check (list int)) "minimal" [ e "c"; e "d" ] (Poset.minimal_elements b);
  Alcotest.(check (list int)) "ubs of c,d" [ e "a"; e "b" ]
    (Poset.upper_bounds b [ e "c"; e "d" ]);
  Alcotest.(check (option int)) "no lub" None (Poset.lub_opt b (e "c") (e "d"));
  Alcotest.(check bool) "not a partial lattice" false (Poset.is_partial_lattice b)

let chain_is_partial_lattice () =
  let p =
    Poset.create_exn ~names:[ "x"; "y"; "z" ] ~order:[ ("x", "y"); ("y", "z") ]
  in
  Alcotest.(check bool) "partial lattice" true (Poset.is_partial_lattice p);
  let e = Poset.of_name_exn p in
  Alcotest.(check (option int)) "lub" (Some (e "y")) (Poset.lub_opt p (e "x") (e "y"));
  Alcotest.(check (list int)) "strict below z" [ e "x"; e "y" ]
    (List.sort compare (Poset.strict_below p (e "z")))

let covers () =
  let e = Poset.of_name_exn b in
  Alcotest.(check (list int)) "covers below a" [ e "c"; e "d" ]
    (Poset.covers_below b (e "a"));
  Alcotest.(check (list int)) "covers above c" [ e "a"; e "b" ]
    (Poset.covers_above b (e "c"))

let errors () =
  (match Poset.create ~names:[] ~order:[] with
  | Error Poset.Empty -> ()
  | _ -> Alcotest.fail "accepted empty");
  (match Poset.create ~names:[ "a" ] ~order:[ ("a", "zz") ] with
  | Error (Poset.Unknown_name "zz") -> ()
  | _ -> Alcotest.fail "accepted unknown");
  match Poset.create ~names:[ "a"; "b" ] ~order:[ ("a", "b"); ("b", "a") ] with
  | Error Poset.Cyclic_order -> ()
  | _ -> Alcotest.fail "accepted cycle"

(* Property: lub_opt, when defined, is a common upper bound below all
   common upper bounds — with the elements declared bottom-up, and
   top-down so that ids are not topological. *)
let lub_opt_prop =
  QCheck.Test.make ~count:100 ~name:"poset lub_opt is the least upper bound"
    Helpers.seed_arb
    (fun seed ->
      let rng = Minup_workload.Prng.create seed in
      let n = 6 in
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
      let is_lub p a c =
        let ubs = Poset.upper_bounds p [ a; c ] in
        match Poset.lub_opt p a c with
        | Some l -> List.mem l ubs && List.for_all (fun u -> Poset.leq p l u) ubs
        | None ->
            (* Either no upper bound, or several minimal ones. *)
            ubs = []
            || List.length
                 (List.filter
                    (fun u -> List.for_all (fun v -> v = u || not (Poset.leq p v u)) ubs)
                    ubs)
               > 1
      in
      List.for_all
        (fun names ->
          let p = Poset.create_exn ~names ~order in
          List.for_all (fun a -> List.for_all (is_lub p a) (Poset.all p)) (Poset.all p))
        [ names; List.rev names ])

let suite =
  [
    case "butterfly (Fig. 4(b))" butterfly;
    case "chain is a partial lattice" chain_is_partial_lattice;
    case "covers" covers;
    case "creation errors" errors;
    Helpers.qcheck lub_opt_prop;
  ]
