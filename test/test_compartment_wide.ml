open Minup_lattice

let case = Helpers.case
let small = Compartment_wide.create ~classifications:[ "S"; "TS" ] ~categories:[ "A"; "N"; "X" ]
let wt = Alcotest.testable (Compartment_wide.pp_level small) (Compartment_wide.equal small)

let laws () =
  let module Laws = Check.Laws (Compartment_wide) in
  match Laws.check ~max_size:64 small with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let agrees_with_narrow () =
  (* On ≤62 categories the wide and narrow implementations must agree on
     every operation, via the string rendering. *)
  let narrow = Compartment.create ~classifications:[ "S"; "TS" ] ~categories:[ "A"; "N"; "X" ] in
  let to_wide l =
    Option.get
      (Compartment_wide.level_of_string small (Compartment.level_to_string narrow l))
  in
  Seq.iter
    (fun a ->
      Seq.iter
        (fun b ->
          let wa = to_wide a and wb = to_wide b in
          Alcotest.(check bool) "leq agrees"
            (Compartment.leq narrow a b)
            (Compartment_wide.leq small wa wb);
          Alcotest.(check string) "lub agrees"
            (Compartment.level_to_string narrow (Compartment.lub narrow a b))
            (Compartment_wide.level_to_string small (Compartment_wide.lub small wa wb));
          Alcotest.(check string) "glb agrees"
            (Compartment.level_to_string narrow (Compartment.glb narrow a b))
            (Compartment_wide.level_to_string small (Compartment_wide.glb small wa wb)))
        (Compartment.levels narrow))
    (Compartment.levels narrow)

let beyond_machine_word () =
  (* 100 categories: more than any single word holds. *)
  let big = Compartment_wide.dod ~n_categories:100 in
  Alcotest.(check int) "categories" 100 (Compartment_wide.n_categories big);
  Alcotest.(check int) "height" 103 (Compartment_wide.height big);
  Alcotest.(check (option int)) "size overflows" None (Compartment_wide.size big);
  let cats_a = List.init 70 (Printf.sprintf "K%d") in
  let a = Compartment_wide.make_exn big ~cls:"S" ~cats:cats_a in
  let b = Compartment_wide.make_exn big ~cls:"TS" ~cats:[ "K0"; "K99" ] in
  Alcotest.(check bool) "incomparable 1" false (Compartment_wide.leq big a b);
  Alcotest.(check bool) "incomparable 2" false (Compartment_wide.leq big b a);
  let l = Compartment_wide.lub big a b in
  Alcotest.(check int) "lub cats" 71
    (List.length (Compartment_wide.category_names big l));
  Alcotest.(check string) "lub cls" "TS" (Compartment_wide.classification_name big l);
  (* covers: drop one of 71 categories or step the ladder down. *)
  Alcotest.(check int) "covers" 72 (List.length (Compartment_wide.covers_below big l));
  (* Dominance after lub. *)
  Alcotest.(check bool) "a ⊑ lub" true (Compartment_wide.leq big a l);
  Alcotest.(check bool) "b ⊑ lub" true (Compartment_wide.leq big b l)

let roundtrip () =
  let l = Compartment_wide.make_exn small ~cls:"TS" ~cats:[ "A"; "X" ] in
  Alcotest.(check string) "render" "TS:{A,X}" (Compartment_wide.level_to_string small l);
  Alcotest.(check (option wt)) "parse" (Some l)
    (Compartment_wide.level_of_string small "TS:{A,X}");
  Alcotest.(check (option wt)) "bare cls"
    (Some (Compartment_wide.make_exn small ~cls:"S" ~cats:[]))
    (Compartment_wide.level_of_string small "S")

let residual_least () =
  let lvl cls cats = Compartment_wide.make_exn small ~cls ~cats in
  let target = lvl "TS" [ "A"; "N" ] and others = lvl "S" [ "N"; "X" ] in
  let r = Compartment_wide.residual small ~target ~others in
  Alcotest.check wt "residual" (lvl "TS" [ "A" ]) r;
  Alcotest.(check bool) "sufficient" true
    (Compartment_wide.leq small target (Compartment_wide.lub small r others))

let solver_over_wide () =
  (* End-to-end: the functor works over the wide lattice, with and without
     the residual fast path. *)
  let module SW = Minup_core.Solver.Make (Compartment_wide) in
  let big = Compartment_wide.dod ~n_categories:80 in
  let lvl cls cats = Minup_constraints.Cst.Level (Compartment_wide.make_exn big ~cls ~cats) in
  let csts =
    [
      Minup_constraints.Cst.simple "a" (lvl "C" [ "K5"; "K70" ]);
      Minup_constraints.Cst.simple "b" (Minup_constraints.Cst.Attr "a");
      Minup_constraints.Cst.make_exn ~lhs:[ "b"; "c" ] ~rhs:(lvl "S" [ "K5"; "K79" ]);
    ]
  in
  let p = SW.compile_exn ~lattice:big csts in
  let plain = SW.solve p in
  let fast = SW.solve ~config:(SW.Config.make ~residual:Compartment_wide.residual ()) p in
  Alcotest.(check bool) "satisfies" true (SW.satisfies p plain.SW.levels);
  Alcotest.(check bool) "fast = plain" true
    (Array.for_all2 (Compartment_wide.equal big) plain.SW.levels fast.SW.levels)

(* Categories are checked first, each name list reporting its first
   duplicate in its own words. *)
let duplicates () =
  Alcotest.check_raises "category"
    (Invalid_argument "Compartment_wide.create: duplicate category \"N\"")
    (fun () ->
      ignore
        (Compartment_wide.create ~classifications:[ "S"; "S" ]
           ~categories:[ "A"; "N"; "N"; "A" ]));
  Alcotest.check_raises "classification"
    (Invalid_argument "Total.create: duplicate name \"S\"") (fun () ->
      ignore (Compartment_wide.create ~classifications:[ "S"; "S" ] ~categories:[ "A" ]))

let suite =
  [
    case "lattice laws" laws;
    case "duplicate names" duplicates;
    case "agrees with single-word compartment" agrees_with_narrow;
    case "beyond one machine word" beyond_machine_word;
    case "string round-trips" roundtrip;
    case "residual" residual_least;
    case "solver over wide lattice" solver_over_wide;
  ]
