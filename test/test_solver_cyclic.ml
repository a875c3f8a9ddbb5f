(* Forward lowering (§3.2): cyclic constraint sets. *)

open Minup_lattice
open Helpers

let case = Helpers.case

let simple_cycle_uniform () =
  (* a ⊒ b ⊒ c ⊒ a with a floor: all members end at the floor. *)
  let sol =
    solve_names fig1b
      [ attr_cst "a" "b"; attr_cst "b" "c"; attr_cst "c" "a"; level_cst "b" "L3" ]
  in
  Alcotest.(check (list (pair string string)))
    "uniform at L3"
    [ ("a", "L3"); ("b", "L3"); ("c", "L3") ]
    (List.sort compare sol)

let simple_cycle_lub_of_floors () =
  (* Floors L2 and L3 inside one cycle: everyone must reach their lub L4. *)
  let sol =
    solve_names fig1b
      [
        attr_cst "a" "b";
        attr_cst "b" "a";
        level_cst "a" "L2";
        level_cst "b" "L3";
      ]
  in
  Alcotest.(check (list (pair string string)))
    "uniform at lub"
    [ ("a", "L4"); ("b", "L4") ]
    (List.sort compare sol)

let two_element_cycle_no_floor () =
  let sol = solve_names fig1b [ attr_cst "a" "b"; attr_cst "b" "a" ] in
  Alcotest.(check (list (pair string string)))
    "cycle with no floor collapses to bottom"
    [ ("a", "L1"); ("b", "L1") ]
    (List.sort compare sol)

let complex_in_cycle () =
  (* The challenging §3.2 shape: a complex constraint inside a cycle. *)
  check_solution_minimal ~cap:1_000_000 fig1b
    [
      infer_cst [ "a"; "b" ] "c";
      attr_cst "c" "a";
      level_cst "c" "L4";
      level_cst "b" "L2";
    ]

let nondisjoint_complex_cycles () =
  (* Intersecting complex left-hand sides entangled in one cycle —
     the worst case discussed in §3.2. *)
  check_solution_minimal ~cap:1_000_000 fig1b
    [
      infer_cst [ "a"; "b" ] "c";
      infer_cst [ "b"; "c" ] "a";
      level_cst "a" "L3";
      level_cst "c" "L5";
    ]

let cycle_feeding_acyclic_tail () =
  (* A cycle whose level must back-propagate into an acyclic part. *)
  let p =
    S.compile_exn ~lattice:fig1b
      [
        attr_cst "x" "y";
        attr_cst "y" "x";
        level_cst "y" "L5";
        attr_cst "up" "x";
      ]
  in
  let sol = S.solve p in
  let l a = Explicit.level_to_string fig1b (Option.get (S.find p sol a)) in
  Alcotest.(check string) "x" "L5" (l "x");
  Alcotest.(check string) "up" "L5" (l "up")

let incomparable_floors_in_cycle () =
  (* Floors L4 and L5 are incomparable; the cycle must settle at L6. *)
  let sol =
    solve_names fig1b
      [
        attr_cst "a" "b";
        attr_cst "b" "c";
        attr_cst "c" "a";
        level_cst "a" "L4";
        level_cst "c" "L5";
      ]
  in
  List.iter (fun (_, l) -> Alcotest.(check string) "L6" "L6" l) sol

let random_cyclic_prop =
  QCheck.Test.make ~count:40 ~name:"random single SCC: satisfies and minimal"
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
            n_simple = 3;
            n_complex = 2;
            max_lhs = 3;
            n_constants = 2;
            constants = Explicit.all lat;
          }
      in
      let attrs, csts = Minup_workload.Gen_constraints.single_scc rng spec in
      let p = S.compile_exn ~lattice:lat ~attrs csts in
      let sol = S.solve p in
      S.satisfies p sol.S.levels
      &&
      match V.is_minimal_solution ~cap:250_000 p sol.S.levels with
      | Ok b -> b
      | Error `Too_large -> true (* oracle out of budget: skip this case *))

let random_mixed_prop =
  QCheck.Test.make ~count:40 ~name:"random mixed SCCs: satisfies and minimal"
    Helpers.seed_arb
    (fun seed ->
      let rng = Minup_workload.Prng.create seed in
      let lat =
        Minup_workload.Gen_lattice.random_closure_exn rng ~universe:4
          ~n_generators:4 ~max_size:14
      in
      let spec =
        Minup_workload.Gen_constraints.
          {
            n_attrs = 7;
            n_simple = 6;
            n_complex = 2;
            max_lhs = 2;
            n_constants = 2;
            constants = Explicit.all lat;
          }
      in
      let attrs, csts =
        Minup_workload.Gen_constraints.mixed rng spec ~n_islands:2 ~island_size:2
      in
      let p = S.compile_exn ~lattice:lat ~attrs csts in
      let sol = S.solve p in
      S.satisfies p sol.S.levels
      &&
      match V.is_minimal_solution ~cap:250_000 p sol.S.levels with
      | Ok b -> b
      | Error `Too_large -> true (* oracle out of budget: skip this case *))

(* One solve's [Try] calls share their scratch, so every call must leave
   it clean.  In a chain or a powerset all the lowerings one call asks of
   an attribute are equal, and every lattice of four levels or fewer is
   one of those; the pentagon N5 is one of the smallest lattices where two
   pending lowerings meet at a glb.  Here [x2]'s Try to [b] lowers [x5] to
   bot, which asks [x2] for [a]: [x2] re-enters Tocheck at glb(b, a) = a,
   and the call fails; the next call, to [c], succeeds.  Beside it, the
   cycles [y0] >= [yi] >= [zi] >= [y0] make one call push 19 attributes
   at once, more than the worklist starts with, and each of them is the
   only way to its [zi].  Each triangle carries the non-binding complex
   constraint [{yi, zi} >= bot], which keeps the set on [Try]: a cycle of
   simple constraints alone is solved by one lub. *)
let pentagon =
  Explicit.create_exn ~names:[ "bot"; "a"; "b"; "c"; "top" ]
    ~order:[ ("bot", "a"); ("a", "b"); ("b", "top"); ("bot", "c"); ("c", "top") ]

let x i = Printf.sprintf "x%d" i
let y i = Printf.sprintf "y%d" i
let z i = Printf.sprintf "z%d" i

let glb_reentry =
  let lv = Explicit.of_name_exn pentagon in
  ( List.init 6 x @ List.init 20 y @ List.init 19 (fun i -> z (i + 1)),
    [
      Cst.simple (x 1) (Cst.Level (lv "c"));
      Cst.simple (x 4) (Cst.Level (lv "a"));
      Cst.make_exn ~lhs:[ x 5; x 0 ] ~rhs:(Cst.Attr (x 2));
      Cst.simple (x 1) (Cst.Attr (x 5));
      Cst.make_exn ~lhs:[ x 4; x 5 ] ~rhs:(Cst.Attr (x 1));
      Cst.simple (x 0) (Cst.Attr (x 4));
      Cst.make_exn ~lhs:[ x 5; x 3; x 4 ] ~rhs:(Cst.Attr (x 0));
      Cst.make_exn ~lhs:[ x 4; x 0; x 2 ] ~rhs:(Cst.Attr (x 5));
    ]
    @ List.concat
        (List.init 19 (fun i ->
             [
               Cst.simple (y 0) (Cst.Attr (y (i + 1)));
               Cst.simple (y (i + 1)) (Cst.Attr (z (i + 1)));
               Cst.simple (z (i + 1)) (Cst.Attr (y 0));
               Cst.make_exn ~lhs:[ y (i + 1); z (i + 1) ]
                 ~rhs:(Cst.Level (Explicit.bottom pentagon));
             ])) )

let try_scratch_reuse () =
  let attrs, csts = glb_reentry in
  let name = Explicit.level_to_string pentagon in
  let tries = ref [] in
  let on_event = function
    | S.Try_lower { attr; target; lowered } ->
        let lowered =
          match lowered with
          | None -> "fails"
          | Some l -> String.concat " " (List.map (fun (a, v) -> a ^ "=" ^ name v) l)
        in
        tries := Printf.sprintf "%s %s: %s" attr (name target) lowered :: !tries
    | _ -> ()
  in
  let p = S.compile_exn ~lattice:pentagon ~attrs csts in
  let sol = S.solve ~config:(S.Config.make ~on_event ()) p in
  Alcotest.(check (list (pair string string)))
    "levels"
    ([ ("x0", "a"); ("x1", "c"); ("x2", "c"); ("x3", "bot"); ("x4", "a"); ("x5", "c") ]
    @ List.init 20 (fun i -> (y i, "bot"))
    @ List.init 19 (fun i -> (z (i + 1), "bot")))
    (List.map (fun (a, l) -> (a, name l)) sol.S.assignment);
  Alcotest.(check bool)
    "minimal (exhaustive oracle)" true
    (V.is_minimal_solution p sol.S.levels = Ok true);
  let fresh = S.solve (S.compile_exn ~lattice:pentagon ~attrs csts) in
  Alcotest.(check bool) "fresh solve agrees" true
    (V.equal_assignment pentagon sol.S.levels fresh.S.levels
    && sol.S.stats = fresh.S.stats);
  let star l =
    List.init 19 (fun i -> z (19 - i)) @ List.init 20 (fun i -> y (19 - i))
    |> List.map (fun a -> a ^ "=" ^ l)
    |> String.concat " "
  in
  Alcotest.(check (list string))
    "Try_lower events"
    [
      "x0 b: x4=b x0=b";
      "x0 a: x4=a x0=a";
      "x0 bot: fails";
      "x1 c: x5=c x1=c";
      "x2 b: fails";
      "x2 c: x2=c";
      "x2 bot: fails";
      "y0 b: " ^ star "b";
      "y0 a: " ^ star "a";
      "y0 bot: " ^ star "bot";
    ]
    (List.rev !tries)

(* A simple-only cyclic set (no member in the lhs of a complex
   constraint) has a unique minimal solution, which the solver takes as
   one lub instead of running [Try]: on random all-simple instances over
   a chain, a powerset and the pentagon, the levels must equal the one
   minimal solution the exhaustive oracle finds. *)
module Simple_only (L : Lattice_intf.S) = struct
  module VL = Minup_core.Verify.Make (L)
  module SL = VL.S

  let prop name lat =
    QCheck.Test.make ~count:40
      ~name:
        (Printf.sprintf "simple-only cycles over a %s = the unique minimal solution"
           name)
      Helpers.seed_arb
      (fun seed ->
        let rng = Minup_workload.Prng.create seed in
        let spec =
          Minup_workload.Gen_constraints.
            {
              n_attrs = 5;
              n_simple = 3;
              n_complex = 0;
              max_lhs = 2;
              n_constants = 2;
              constants = List.of_seq (L.levels lat);
            }
        in
        let attrs, csts =
          if seed mod 2 = 0 then Minup_workload.Gen_constraints.single_scc rng spec
          else
            Minup_workload.Gen_constraints.mixed rng spec ~n_islands:2
              ~island_size:2
        in
        let p = SL.compile_exn ~lattice:lat ~attrs csts in
        let sol = SL.solve p in
        Array.length p.SL.simple_only > 0
        && sol.SL.stats.Minup_core.Instr.try_calls = 0
        &&
        match VL.minimal_solutions p with
        | Ok [ m ] -> VL.equal_assignment lat m sol.SL.levels
        | Ok _ | Error `Too_large -> false)
end

let simple_only_props =
  let module T = Simple_only (Total) in
  let module P = Simple_only (Powerset) in
  let module E = Simple_only (Explicit) in
  [
    T.prop "chain" (Total.create [ "l0"; "l1"; "l2"; "l3" ]);
    P.prop "powerset" (Powerset.create [ "a"; "b"; "c" ]);
    E.prop "pentagon" pentagon;
  ]

(* §6 on a simple-only cycle: a cap below the cycle's floor is the same
   [Unsatisfiable] inconsistency [Try] met, and a cap above it leaves the
   levels where the unbounded solve puts them. *)
let floor_cycle =
  [ attr_cst "a" "b"; attr_cst "b" "c"; attr_cst "c" "a"; level_cst "b" "L3" ]

let bounded_simple_only () =
  let p = S.compile_exn ~lattice:fig1b floor_cycle in
  Alcotest.(check int) "one simple-only set" 1
    (Array.fold_left (fun n b -> if b then n + 1 else n) 0 p.S.simple_only);
  (match S.solve_with_bounds p [ ("a", lvl "L2") ] with
  | Error e ->
      Alcotest.(check string)
        "inconsistency"
        "constraint λ(b) ⊒ L3 cannot be satisfied: the left-hand side is capped at L2"
        (Format.asprintf "%a" (S.pp_inconsistency fig1b) e)
  | Ok _ -> Alcotest.fail "accepted a cap below the cycle's floor");
  match S.solve_with_bounds p [ ("a", lvl "L4") ] with
  | Error _ -> Alcotest.fail "unexpected inconsistency"
  | Ok sol ->
      Alcotest.(check (array (level_t fig1b)))
        "bounded = unbounded" (S.solve p).S.levels sol.S.levels;
      Alcotest.(check int) "no Try" 0 sol.S.stats.Minup_core.Instr.try_calls

(* A simple-only set emits, per member, [Consider] and then [Finalized]
   at the set's lub, and no [Try_lower]. *)
let simple_only_events () =
  let p = S.compile_exn ~lattice:fig1b floor_cycle in
  let log = ref [] in
  let on_event e =
    let name = Explicit.level_to_string fig1b in
    log :=
      (match e with
      | S.Consider { attr; _ } -> "consider " ^ attr
      | S.Back_assigned { attr; level } -> "back " ^ attr ^ " " ^ name level
      | S.Try_lower { attr; _ } -> "try " ^ attr
      | S.Finalized { attr; level } -> "final " ^ attr ^ " " ^ name level)
      :: !log
  in
  ignore (S.solve ~config:(S.Config.make ~on_event ()) p);
  Alcotest.(check (list string))
    "events"
    [
      "consider a"; "final a L3"; "consider b"; "final b L3"; "consider c";
      "final c L3";
    ]
    (List.rev !log)

(* [solve_incremental] on its own, outside [Session].  With nothing
   frozen it is [solve]: same levels, same events, same counters.  With a
   dependency-closed part frozen at the full solve's levels — everything
   outside the closure, along incoming edges and complex-lhs peers, of one
   random attribute, as a session's dirty set is built — it re-solves the
   rest to the same levels.  Over acyclic, [Try]-cyclic and simple-only
   instances. *)
let incremental_prop =
  QCheck.Test.make ~count:60 ~name:"solve_incremental = solve" Helpers.seed_arb
    (fun seed ->
      let module G = Minup_workload.Gen_constraints in
      let rng = Minup_workload.Prng.create seed in
      let lat =
        Minup_workload.Gen_lattice.random_closure_exn rng ~universe:4
          ~n_generators:3 ~max_size:12
      in
      let spec n_complex =
        G.{ n_attrs = 12; n_simple = 10; n_complex; max_lhs = 3; n_constants = 3;
            constants = Explicit.all lat }
      in
      let attrs, csts =
        match seed mod 3 with
        | 0 -> G.acyclic rng (spec 4)
        | 1 -> G.mixed rng (spec 3) ~n_islands:2 ~island_size:4
        | _ -> G.mixed rng (spec 0) ~n_islands:2 ~island_size:4
      in
      let p = S.compile_exn ~lattice:lat ~attrs csts in
      let solve_logged f =
        let log = ref [] in
        let name = Explicit.level_to_string lat in
        let on_event e =
          log :=
            (match e with
            | S.Consider { attr; priority } -> Printf.sprintf "consider %s %d" attr priority
            | S.Back_assigned { attr; level } -> "back " ^ attr ^ " " ^ name level
            | S.Try_lower { attr; target; lowered } ->
                Printf.sprintf "try %s %s %s" attr (name target)
                  (match lowered with
                  | None -> "failed"
                  | Some l -> String.concat "," (List.map (fun (a, l) -> a ^ "=" ^ name l) l))
            | S.Finalized { attr; level } -> "final " ^ attr ^ " " ^ name level)
            :: !log
        in
        let sol = f (S.Config.make ~on_event ()) in
        (sol, List.rev !log)
      in
      let full, full_log = solve_logged (fun config -> S.solve ~config p) in
      let none, none_log =
        solve_logged (fun config -> S.solve_incremental ~config ~frozen:(fun _ -> None) p)
      in
      let prob = p.S.prob in
      let dirty = Array.make (Problem.n_attrs prob) false in
      let rec mark a =
        if not dirty.(a) then begin
          dirty.(a) <- true;
          let mark_lhs ci = Array.iter mark prob.Problem.csts.(ci).Problem.lhs in
          Problem.iter_incoming prob a mark_lhs;
          Problem.iter_constr_of prob a (fun ci ->
              if prob.Problem.complex.(ci) then mark_lhs ci)
        end
      in
      mark (seed mod Problem.n_attrs prob);
      let part =
        S.solve_incremental
          ~frozen:(fun a -> if dirty.(a) then None else Some full.S.levels.(a))
          p
      in
      let same = Array.for_all2 (Explicit.equal lat) full.S.levels in
      same none.S.levels && none_log = full_log
      && Minup_core.Instr.to_alist none.S.stats = Minup_core.Instr.to_alist full.S.stats
      && same part.S.levels)

let suite =
  [
    case "simple cycle with one floor" simple_cycle_uniform;
    case "simple cycle with two floors" simple_cycle_lub_of_floors;
    case "cycle without floors" two_element_cycle_no_floor;
    case "complex constraint in cycle" complex_in_cycle;
    case "nondisjoint complex cycles" nondisjoint_complex_cycles;
    case "cycle feeds acyclic tail" cycle_feeding_acyclic_tail;
    case "incomparable floors" incomparable_floors_in_cycle;
    case "Try scratch survives failures, glb re-entry and growth" try_scratch_reuse;
    Helpers.qcheck random_cyclic_prop;
    Helpers.qcheck random_mixed_prop;
    Helpers.qcheck incremental_prop;
    case "bounded simple-only cycle" bounded_simple_only;
    case "simple-only cycle events" simple_only_events;
  ]
  @ List.map Helpers.qcheck simple_only_props
