(* Forward lowering (§3.2): cyclic constraint sets. *)

open Minup_lattice
open Helpers
module Explain = Minup_core.Explain.Make (Explicit)

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
        Helpers.metered "solver/collapsed_sets" (fun () -> ignore (SL.solve p)) > 0
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

(* The solver decides at each cyclic set's turn whether it is
   simple-only: on random single-component and island instances, with
   and without complex constraints, it collapses exactly the cyclic
   components — found by [Scc], apart from the priorities — none of
   whose members is in the lhs of a complex constraint.  Island
   instances get their complex rows from an island into the acyclic
   rest, so some islands keep a complex member and others do not. *)
let collapsed_counted =
  let module Gen = Minup_workload.Gen_constraints in
  let module Prng = Minup_workload.Prng in
  let module Scc = Minup_constraints.Scc in
  QCheck.Test.make ~count:200
    ~name:"collapsed sets = the cyclic components with no complex member" Helpers.seed_arb
    (fun seed ->
      let rng = Prng.create seed in
      let complex = seed mod 2 = 1 and islands = seed / 2 mod 2 = 1 in
      let spec =
        {
          Gen.n_attrs = 12;
          n_simple = 6;
          n_complex = (if complex && not islands then 2 else 0);
          max_lhs = 3;
          n_constants = 3;
          constants = Explicit.all fig1b;
        }
      in
      let attrs, csts =
        if not islands then Gen.single_scc rng spec
        else
          let attrs, csts = Gen.mixed rng spec ~n_islands:3 ~island_size:3 in
          let outward _ =
            let a = Prng.int rng 9 and b = Prng.int rng 9 and c = 9 + Prng.int rng 3 in
            if a = b then None
            else
              Some
                (Cst.make_exn
                   ~lhs:[ Printf.sprintf "A%d" a; Printf.sprintf "A%d" b ]
                   ~rhs:(Cst.Attr (Printf.sprintf "A%d" c)))
          in
          (attrs, csts @ if complex then List.filter_map outward [ 1; 2 ] else [])
      in
      let p = S.compile_exn ~lattice:fig1b ~attrs csts in
      let prob = p.S.prob in
      let scc = Scc.compute prob in
      let in_complex a =
        let found = ref false in
        Problem.iter_constr_of prob a (fun ci -> if Problem.lhs_size prob ci > 1 then found := true);
        !found
      in
      let expected =
        List.length
          (List.filter
             (fun c ->
               Scc.is_cyclic_component scc prob c
               && not (Array.exists in_complex scc.Scc.members.(c)))
             (List.init scc.Scc.n_components Fun.id))
      in
      Helpers.metered "solver/collapsed_sets" (fun () -> ignore (S.solve p)) = expected)

(* §6 on a simple-only cycle: a cap below the cycle's floor is the same
   [Unsatisfiable] inconsistency [Try] met, and a cap above it leaves the
   levels where the unbounded solve puts them. *)
let floor_cycle =
  [ attr_cst "a" "b"; attr_cst "b" "c"; attr_cst "c" "a"; level_cst "b" "L3" ]

let bounded_simple_only () =
  let p = S.compile_exn ~lattice:fig1b floor_cycle in
  Alcotest.(check int) "one simple-only set" 1
    (Helpers.metered "solver/collapsed_sets" (fun () -> ignore (S.solve p)));
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

(* [solve_incremental] on its own, outside [Session].  With every
   attribute dirty it is [solve]: same levels, same events, same counters.
   With one random attribute dirty and nothing changed it reuses to the
   same levels.  Both have [solve]'s assignment, and the second takes the
   first one's workspace.  Over acyclic, [Try]-cyclic and simple-only
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
      let n = Problem.n_attrs p.S.prob in
      let workspace = S.workspace () in
      let all, all_log =
        solve_logged (fun config ->
            S.solve_incremental ~config ~workspace ~prev:(p, full) ~dirty:(List.init n Fun.id) p)
      in
      let part = S.solve_incremental ~workspace ~prev:(p, full) ~dirty:[ seed mod n ] p in
      let same = Array.for_all2 (Explicit.equal lat) full.S.levels in
      same all.S.levels && all_log = full_log
      && Minup_core.Instr.to_alist all.S.stats = Minup_core.Instr.to_alist full.S.stats
      && all.S.reused = 0 && same part.S.levels
      && all.S.assignment = full.S.assignment
      && part.S.assignment = full.S.assignment)

(* The session's use: solve, rewrite one to three level right-hand sides
   in place, and re-solve incrementally from the previous solution with
   the rewritten constraints' lhs members dirty — twice in a row, the
   second time from the incremental solution.  Each must equal a fresh
   solve of the patched problem, with the aggregates cross-checked at
   every [Minlevel].  Over acyclic, [Try]-cyclic, simple-only and mixed
   instances. *)
let incremental_patch_prop =
  QCheck.Test.make ~count:120 ~name:"solve_incremental after set_rlevel = solve"
    Helpers.seed_arb (fun seed ->
      let module G = Minup_workload.Gen_constraints in
      let module Prng = Minup_workload.Prng in
      let rng = Prng.create seed in
      let lat =
        Minup_workload.Gen_lattice.random_closure_exn rng ~universe:4
          ~n_generators:3 ~max_size:12
      in
      let levels = Explicit.all lat in
      let spec n_complex =
        G.{ n_attrs = 14; n_simple = 12; n_complex; max_lhs = 3; n_constants = 5;
            constants = levels }
      in
      let attrs, csts =
        match seed mod 4 with
        | 0 -> G.acyclic rng (spec 4)
        | 1 -> G.single_scc rng (spec 3)
        | 2 -> G.mixed rng (spec 0) ~n_islands:2 ~island_size:4
        | _ -> G.mixed rng (spec 3) ~n_islands:2 ~island_size:4
      in
      let p = S.compile_exn ~lattice:lat ~attrs csts in
      let prob = p.S.prob in
      let level_rhs =
        List.filter
          (fun ci ->
            match Problem.rhs prob ci with
            | Problem.Rlevel _ -> true
            | Problem.Rattr _ -> false)
          (List.init (Problem.n_csts prob) Fun.id)
      in
      let config = S.Config.make ~check_aggregate:true () in
      let workspace = S.workspace () in
      let round prev =
        let k = 1 + Prng.int rng 3 in
        let dirty =
          List.concat_map
            (fun ci ->
              Problem.set_rlevel prob ci (Prng.pick rng levels);
              Array.to_list (Problem.lhs prob ci))
            (Prng.sample rng k level_rhs)
        in
        let inc = S.solve_incremental ~config ~workspace ~prev:(p, prev) ~dirty p in
        if not (Array.for_all2 (Explicit.equal lat) (S.solve p).S.levels inc.S.levels) then
          QCheck.Test.fail_reportf "incremental levels differ from a fresh solve";
        inc
      in
      level_rhs = [] || (ignore (round (round (S.solve p))); true))

(* Hand-built incremental solves over the 16-level ladder: [patch csts
   ~bound ~level] compiles [csts], solves, rewrites the level right-hand
   side of the constraint [bound] names (by its position in [csts]) and
   re-solves incrementally with its lhs dirty.  Returns the levels by
   attribute name and the number of attributes reused; the levels must
   equal a fresh solve's. *)
module ST = Minup_core.Solver.Make (Total)

let patch csts ~bound ~level =
  let p = ST.compile_exn ~lattice:ladder16 csts in
  let prob = p.ST.prob in
  let full = ST.solve p in
  Problem.set_rlevel prob bound level;
  let inc =
    ST.solve_incremental ~config:(ST.Config.make ~check_aggregate:true ())
      ~workspace:(ST.workspace ()) ~prev:(p, full)
      ~dirty:(Array.to_list (Problem.lhs prob bound))
      p
  in
  Alcotest.(check (array int)) "incremental = fresh solve" (ST.solve p).ST.levels inc.ST.levels;
  let at name = full.ST.levels.(Problem.attr_id_exn prob name) in
  (at, (fun name -> inc.ST.levels.(Problem.attr_id_exn prob name)), inc.ST.reused)

let ge a b = Cst.simple a (Cst.Attr b)
let floor a l = Cst.simple a (Cst.Level l)

(* [{a, b} ⊒ S5] with [a] labeled first at its bound S2, so [b] runs
   [Minlevel] and takes S5.  Raising [a]'s bound to S7 lowers [b] to S0:
   no constraint has [a] as rhs, so [b] is recomputed only because it is
   [a]'s peer in a complex lhs.  [c ⊒ b] follows [b] down. *)
let incremental_complex_peer () =
  let before, after, reused =
    patch
      [ floor "a" 2; Cst.make_exn ~lhs:[ "a"; "b" ] ~rhs:(Cst.Level 5); ge "c" "b" ]
      ~bound:0 ~level:7
  in
  Alcotest.(check (list int)) "before: a, b, c" [ 2; 5; 5 ] (List.map before [ "a"; "b"; "c" ]);
  Alcotest.(check (list int)) "after: a, b, c" [ 7; 0; 0 ] (List.map after [ "a"; "b"; "c" ]);
  Alcotest.(check int) "nothing reused" 0 reused

(* A raised bound on [x] enters the [Try] cycle [p ⊒ q ⊒ p] (kept on
   [Try] by the non-binding [{p, q} ⊒ S1]) and the [y ⊒ p] above it,
   while the unrelated [u ⊒ v ⊒ S4] is reused. *)
let incremental_try_cycle () =
  let _, after, reused =
    patch
      [
        floor "x" 3; ge "p" "x"; ge "p" "q"; ge "q" "p";
        Cst.make_exn ~lhs:[ "p"; "q" ] ~rhs:(Cst.Level 1); ge "y" "p"; ge "u" "v";
        floor "v" 4;
      ]
      ~bound:0 ~level:6
  in
  Alcotest.(check (list int)) "x, p, q, y" [ 6; 6; 6; 6 ] (List.map after [ "x"; "p"; "q"; "y" ]);
  Alcotest.(check int) "u and v reused" 2 reused

(* A lowered bound on [x] enters the simple-only ring [r0 ⊒ r1 ⊒ r2 ⊒ r0]
   through [r1 ⊒ x]; the ring's other floor [f] is reused and the ring's
   one lub takes it. *)
let incremental_simple_only () =
  let before, after, reused =
    patch
      [ ge "r0" "r1"; ge "r1" "r2"; ge "r2" "r0"; ge "r1" "x"; floor "x" 9; ge "r2" "f";
        floor "f" 4 ]
      ~bound:4 ~level:2
  in
  Alcotest.(check (list int)) "before: r0, r1, r2" [ 9; 9; 9 ] (List.map before [ "r0"; "r1"; "r2" ]);
  Alcotest.(check (list int)) "after: r0, r1, r2" [ 4; 4; 4 ] (List.map after [ "r0"; "r1"; "r2" ]);
  Alcotest.(check int) "f reused" 1 reused

(* Levels are compared by [L.equal], not physically: over a lattice of
   boxed levels, rewriting a bound to an equal but freshly built level
   re-solves the bound's own set and reuses everything above it. *)
let incremental_equal_levels () =
  let module SC = Minup_core.Solver.Make (Compartment) in
  let lat = Compartment.fig1a in
  let level () = Compartment.make_exn lat ~cls:"S" ~cats:[ "Army" ] in
  let p =
    SC.compile_exn ~lattice:lat
      [ Cst.simple "a" (Cst.Attr "b"); Cst.simple "b" (Cst.Attr "c");
        Cst.simple "c" (Cst.Level (level ())) ]
  in
  let full = SC.solve p in
  Problem.set_rlevel p.SC.prob 2 (level ());
  let c = Problem.attr_id_exn p.SC.prob "c" in
  let inc = SC.solve_incremental ~workspace:(SC.workspace ()) ~prev:(p, full) ~dirty:[ c ] p in
  Alcotest.(check bool) "same levels" true
    (Array.for_all2 (Compartment.equal lat) full.SC.levels inc.SC.levels);
  Alcotest.(check int) "a and b reused" 2 inc.SC.reused

(* Across a rebuilt problem, the way a session's structural resolve
   uses [solve_incremental]: the previous and the new problem are scratch
   compiles of two snapshots of one editing model (attributes in
   registration order, user constraints in id order, then bounds in
   first-set order), so the new attributes extend the old and the rows
   that survive keep their order.  One to three edits a round: adds
   (complex ones, attribute edges that can merge components, some over a
   new attribute), removes (which can split a component), new
   attributes, first, re-set and cleared bounds.  [dirty] is the lhs of
   every added or removed row and each attribute whose bound changed.
   Two chained rounds, with and without an upgrade preference, with the
   aggregates cross-checked at every [Minlevel].  Over acyclic,
   single-component, simple-only and mixed instances. *)
let rebuild_prop =
  QCheck.Test.make ~count:300 ~name:"solve_incremental across a rebuilt problem = solve"
    Helpers.seed_arb (fun seed ->
      let module G = Minup_workload.Gen_constraints in
      let module Prng = Minup_workload.Prng in
      let rng = Prng.create seed in
      let lat =
        Minup_workload.Gen_lattice.random_closure_exn rng ~universe:4
          ~n_generators:3 ~max_size:12
      in
      let levels = Explicit.all lat in
      let spec n_complex =
        G.{ n_attrs = 14; n_simple = 12; n_complex; max_lhs = 3; n_constants = 5;
            constants = levels }
      in
      let attrs, csts =
        match seed mod 4 with
        | 0 -> G.acyclic rng (spec 4)
        | 1 -> G.single_scc rng (spec 3)
        | 2 -> G.mixed rng (spec 0) ~n_islands:2 ~island_size:4
        | _ -> G.mixed rng (spec 3) ~n_islands:2 ~island_size:4
      in
      let names = ref attrs and fresh = ref 0 in
      let register a = if not (List.mem a !names) then names := !names @ [ a ] in
      let new_name () =
        incr fresh;
        Printf.sprintf "new%d" !fresh
      in
      let user = ref (List.mapi (fun i c -> (i, c)) csts) and next = ref (List.length csts) in
      let bounds = ref [] in
      let compile () =
        S.compile_exn ~lattice:lat ~attrs:!names
          (List.map snd !user @ List.map (fun (a, l) -> Cst.simple a (Cst.Level l)) !bounds)
      in
      let config =
        S.Config.make ~check_aggregate:true
          ?upgrade_preference:
            (if seed / 4 mod 2 = 0 then None else Some (fun a -> Hashtbl.hash a mod 5))
          ()
      in
      (* One edit; returns the attributes whose own rows it changed. *)
      let edit () =
        match Prng.int rng 6 with
        | 0 | 1 -> (
            let pool = if Prng.int rng 4 = 0 then new_name () :: !names else !names in
            let lhs = Prng.sample rng (1 + Prng.int rng 3) pool in
            let rhs =
              if Prng.int rng 3 = 0 then Cst.Level (Prng.pick rng levels)
              else Cst.Attr (Prng.pick rng pool)
            in
            match Cst.make ~lhs ~rhs with
            | Ok c ->
                List.iter register (Cst.attrs c);
                user := !user @ [ (!next, c) ];
                incr next;
                c.Cst.lhs
            | Error _ -> [])
        | 2 when !user <> [] ->
            let id, c = Prng.pick rng !user in
            user := List.filter (fun (i, _) -> i <> id) !user;
            c.Cst.lhs
        | 3 ->
            register (new_name ());
            []
        | 4 ->
            let a = Prng.pick rng !names and l = Prng.pick rng levels in
            bounds :=
              if List.mem_assoc a !bounds then
                List.map (fun (b, l') -> (b, if b = a then l else l')) !bounds
              else !bounds @ [ (a, l) ];
            [ a ]
        | _ -> (
            match !bounds with
            | [] -> []
            | _ ->
                let a, _ = Prng.pick rng !bounds in
                bounds := List.remove_assoc a !bounds;
                [ a ])
      in
      let workspace = S.workspace () in
      let round (p, sol) =
        let changed = List.concat (List.init (1 + Prng.int rng 3) (fun _ -> edit ())) in
        let p' = compile () in
        let dirty = List.map (Problem.attr_id_exn p'.S.prob) changed in
        let inc = S.solve_incremental ~config ~workspace ~prev:(p, sol) ~dirty p' in
        if not (Array.for_all2 (Explicit.equal lat) (S.solve ~config p').S.levels inc.S.levels)
        then QCheck.Test.fail_reportf "incremental levels differ from a fresh solve";
        (p', inc)
      in
      let p = compile () in
      ignore (round (round (p, S.solve ~config p)));
      true)

(* [{x, y} ⊒ S5] over two singleton sets: [y] is labeled last and runs
   [Minlevel].  The added [x ⊒ y] turns the order round, so [x] now runs
   it: [x] takes S5 and [y] drops to S0, though [y]'s own constraints
   and set are unchanged and only [x] is dirty.  Only the rule on the
   last-labeled member of a complex lhs relabels [y]. *)
let rebuild_swaps_minlevel () =
  let assoc = Cst.make_exn ~lhs:[ "x"; "y" ] ~rhs:(Cst.Level 5) in
  let p = ST.compile_exn ~lattice:ladder16 ~attrs:[ "x"; "y" ] [ assoc ] in
  let sol = ST.solve p in
  Alcotest.(check (array int)) "before: y absorbs" [| 0; 5 |] sol.ST.levels;
  let p' = ST.compile_exn ~lattice:ladder16 ~attrs:[ "x"; "y" ] [ assoc; ge "x" "y" ] in
  Alcotest.(check (array int)) "after: x absorbs" [| 5; 0 |] (ST.solve p').ST.levels;
  let config = ST.Config.make ~check_aggregate:true () in
  let inc = ST.solve_incremental ~config ~workspace:(ST.workspace ()) ~prev:(p, sol) ~dirty:[ 0 ] p' in
  Alcotest.(check (array int)) "incremental = fresh solve" [| 5; 0 |] inc.ST.levels

(* Over the chain s0 < sc < sf, the cyclic set {A1, A4, A5, A8}: [Try]
   lowers A8 to s0 at A4's turn while A5 is still at ⊤, and A4 ⊒ A8 then
   caps A8 there.  At A5's turn every right-hand side of its rows is
   final, but its row {A5, A8} ⊒ A1 still has A8 unlabeled, so
   back-propagation would take A5 to s0 and leave the row to a member
   that can no longer rise.  A5 must be lowered forward instead, and end
   at sc. *)
let chain3 =
  match Lattice_file.parse "levels s0, sc, sf\ns0 < sc\nsc < sf\n" with
  | Ok l -> l
  | Error e -> Alcotest.failf "%a" Lattice_file.pp_error e

let capped_complex_peer () =
  let sc = Explicit.of_name_exn chain3 "sc" in
  let csts =
    [
      Cst.simple "A1" (Cst.Level sc);
      Cst.simple "A4" (Cst.Attr "A8");
      Cst.make_exn ~lhs:[ "A0"; "A4"; "A1" ] ~rhs:(Cst.Attr "A5");
      Cst.make_exn ~lhs:[ "A2"; "A1" ] ~rhs:(Cst.Attr "A4");
      Cst.make_exn ~lhs:[ "A5"; "A8" ] ~rhs:(Cst.Attr "A1");
    ]
  in
  let p = S.compile_exn ~lattice:chain3 ~attrs:[ "A0"; "A1"; "A2"; "A4"; "A5"; "A8" ] csts in
  let sol = S.solve p in
  Alcotest.(check bool) "satisfies" true (S.satisfies p sol.S.levels);
  Alcotest.(check bool) "locally minimal" true (Explain.is_locally_minimal p sol.S.levels);
  Alcotest.(check (list (pair string string)))
    "levels"
    [ ("A0", "s0"); ("A1", "sc"); ("A2", "s0"); ("A4", "s0"); ("A5", "sc"); ("A8", "s0") ]
    (List.map (fun (a, l) -> (a, Explicit.level_to_string chain3 l)) sol.S.assignment)

(* Small random policies whose cycles close through complex rows: 3 to
   10 attributes, up to 2n rows, about half of them complex and a
   quarter with a level right-hand side, over 3- and 4-chains and the 2-
   and 3-atom powersets.  Every solve satisfies the constraints, is
   locally minimal, and equals an incremental solve with every attribute
   dirty, and after a one-row edit an incremental solve across the
   rebuilt problem equals a scratch one.  Before the capped-peer rule
   about one draw in 500 broke a constraint. *)
let complex_cycles_prop =
  QCheck.Test.make ~count:4000 ~name:"cycles through complex rows: satisfying, minimal, incremental"
    Helpers.seed_arb
    (fun seed ->
      let module Prng = Minup_workload.Prng in
      let rng = Prng.create seed in
      let lat =
        Minup_workload.Gen_lattice.chain_product
          (match seed mod 4 with 0 -> [ 2 ] | 1 -> [ 3 ] | 2 -> [ 1; 1 ] | _ -> [ 1; 1; 1 ])
      in
      let levels = List.filter (fun l -> l <> Explicit.bottom lat) (Explicit.all lat) in
      let n = 3 + Prng.int rng 8 in
      let names = List.init n (Printf.sprintf "A%d") in
      let row () =
        let lhs = Prng.sample rng (if Prng.int rng 2 = 0 then 1 else 2 + Prng.int rng 2) names in
        let rhs =
          if Prng.int rng 4 = 0 then Cst.Level (Prng.pick rng levels)
          else Cst.Attr (Prng.pick rng names)
        in
        Cst.make_exn ~lhs ~rhs
      in
      let rows = List.init (1 + Prng.int rng (2 * n)) (fun _ -> row ()) in
      let p = S.compile_exn ~lattice:lat ~attrs:names rows in
      let sol = S.solve p in
      let inc =
        S.solve_incremental ~workspace:(S.workspace ()) ~prev:(p, sol) ~dirty:(List.init n Fun.id) p
      in
      (* One row added or removed, re-solved across the rebuilt problem
         with that row's lhs dirty: the widening rules (DESIGN.md §9)
         must cover which member the capped-peer rule lowers forward. *)
      let rows', changed =
        if Prng.int rng 2 = 0 || List.length rows < 2 then
          let r = row () in
          (rows @ [ r ], r.Cst.lhs)
        else
          let k = Prng.int rng (List.length rows) in
          (List.filteri (fun i _ -> i <> k) rows, (List.nth rows k).Cst.lhs)
      in
      let p' = S.compile_exn ~lattice:lat ~attrs:names rows' in
      let dirty = List.map (Problem.attr_id_exn p'.S.prob) changed in
      let rebuilt = S.solve_incremental ~workspace:(S.workspace ()) ~prev:(p, sol) ~dirty p' in
      let same = Array.for_all2 (Explicit.equal lat) in
      if not (S.satisfies p sol.S.levels) then QCheck.Test.fail_reportf "breaks a constraint"
      else if not (Explain.is_locally_minimal p sol.S.levels) then
        QCheck.Test.fail_reportf "not minimal"
      else same sol.S.levels inc.S.levels && same (S.solve p').S.levels rebuilt.S.levels)

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
    Helpers.qcheck incremental_patch_prop;
    Helpers.qcheck rebuild_prop;
    case "incremental: an added edge swaps the Minlevel member" rebuild_swaps_minlevel;
    case "a Try-capped complex peer is lowered forward" capped_complex_peer;
    Helpers.qcheck complex_cycles_prop;
    case "incremental: a complex peer is recomputed" incremental_complex_peer;
    case "incremental: a change enters a Try cycle" incremental_try_cycle;
    case "incremental: a change enters a simple-only set" incremental_simple_only;
    case "incremental: levels compare by equality" incremental_equal_levels;
    case "bounded simple-only cycle" bounded_simple_only;
    case "simple-only cycle events" simple_only_events;
  ]
  @ List.map Helpers.qcheck (collapsed_counted :: simple_only_props)
