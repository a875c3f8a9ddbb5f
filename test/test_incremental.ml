(* The solver's incremental lhs-lub aggregate (one running lub of finalized
   left-hand-side members per complex constraint) replaces the per-Minlevel
   refold of the whole lhs.  [~check_aggregate:true] makes every Minlevel
   call cross-check the aggregate against the reference refold and raise on
   the first divergence, so these properties fail loudly if the
   finalization invariants (finalized levels never change; [done_] ≡
   finalized away from the attribute under consideration) are ever
   broken. *)

open Minup_lattice
module S = Helpers.S
module Gen = Minup_workload.Gen_constraints
module Gen_lattice = Minup_workload.Gen_lattice
module Instr = Minup_core.Instr
module Prng = Minup_workload.Prng
module Cst = Minup_constraints.Cst
module Problem = Minup_constraints.Problem

let case = Helpers.case

(* A random lattice and policy: acyclic, one strongly connected
   component, or islands of cycles, by [seed mod 3]. *)
let random_instance seed =
  let rng = Prng.create seed in
  let lat =
    Gen_lattice.random_closure_exn rng ~universe:5 ~n_generators:4 ~max_size:40
  in
  let spec =
    {
      Gen.n_attrs = 16;
      n_simple = 22;
      n_complex = 8;
      max_lhs = 4;
      n_constants = 6;
      constants = Explicit.all lat;
    }
  in
  let attrs, csts =
    match seed mod 3 with
    | 0 -> Gen.acyclic rng spec
    | 1 -> Gen.single_scc rng spec
    | _ -> Gen.mixed rng spec ~n_islands:2 ~island_size:4
  in
  (lat, attrs, csts)

let random_problem seed =
  let lat, attrs, csts = random_instance seed in
  S.compile_exn ~lattice:lat ~attrs csts

let fields (s : Instr.t) =
  [
    s.Instr.lub;
    s.Instr.glb;
    s.Instr.leq;
    s.Instr.minlevel_calls;
    s.Instr.try_calls;
    s.Instr.try_iterations;
    s.Instr.constraint_checks;
  ]

(* On random Explicit lattices and all three workload shapes, the
   self-checking solve must complete (aggregate = refold at every Minlevel),
   return the same solution as the plain solve, and — the reference fold
   being uninstrumented — identical counters. *)
let aggregate_matches_refold =
  QCheck.Test.make ~count:120
    ~name:"incremental lhs-lub aggregate = reference refold" Helpers.seed_arb
    (fun seed ->
      let p = random_problem seed in
      let checked = S.solve ~config:(S.Config.make ~check_aggregate:true ()) p in
      let plain = S.solve p in
      checked.S.levels = plain.S.levels
      && fields checked.S.stats = fields plain.S.stats
      && S.satisfies p checked.S.levels)

(* Bounds mode is the aggregate's hard case: Minlevel runs for every
   attribute of every complex constraint, so the fold-on-top-of-aggregate
   path (provisional members) is exercised, not just the O(1) fast path. *)
let aggregate_matches_refold_bounds =
  QCheck.Test.make ~count:120
    ~name:"aggregate = refold under upper-bound preprocessing"
    Helpers.seed_arb
    (fun seed ->
      let p = random_problem seed in
      match S.solve_with_bounds ~config:(S.Config.make ~check_aggregate:true ()) p [] with
      | Ok sol -> S.satisfies p sol.S.levels
      | Error _ -> false)

(* An incremental solve labels again only the sets whose inputs changed
   and rebuilds the aggregates of their complex rows from the members
   done at their turn, reused or not.  Three chained re-solves over the
   three shapes, each self-checked at every [Minlevel] and equal to a
   fresh solve: with a random dirty set and nothing changed; after an
   added or removed row (a new problem, its lhs dirty); and after a
   level right-hand side rewritten in place (its lhs dirty).  Each dirty
   set also holds random attributes, so reused and relabeled sets
   interleave.  Every other seed solves under an upgrade preference.  The
   re-solves share one workspace, across problems of different sizes,
   and each assignment equals the fresh solve's. *)
let incremental_aggregates =
  QCheck.Test.make ~count:300 ~name:"incremental re-solves rebuild the aggregates they read"
    Helpers.seed_arb (fun seed ->
      let lat, attrs, csts = random_instance seed in
      let rng = Prng.create (seed + 1) and levels = Explicit.all lat in
      let config =
        S.Config.make ~check_aggregate:true
          ?upgrade_preference:
            (if seed / 3 mod 2 = 0 then None else Some (fun a -> Hashtbl.hash a mod 5))
          ()
      in
      let compile csts = S.compile_exn ~lattice:lat ~attrs csts in
      let id p a = Problem.attr_id_exn p.S.prob a in
      let workspace = S.workspace () in
      let resolve what (p, sol) p' changed =
        let n = List.length attrs in
        let extra = Prng.sample rng (Prng.int rng 4) (List.init n Fun.id) in
        let dirty = List.map (id p') changed @ extra in
        let inc = S.solve_incremental ~config ~workspace ~prev:(p, sol) ~dirty p' in
        let fresh = S.solve ~config p' in
        if not (Array.for_all2 (Explicit.equal lat) fresh.S.levels inc.S.levels)
        then QCheck.Test.fail_reportf "%s: incremental levels differ from a fresh solve" what;
        if inc.S.assignment <> fresh.S.assignment then
          QCheck.Test.fail_reportf "%s: the incremental assignment differs from a fresh solve's"
            what;
        (p', inc)
      in
      let p = compile csts in
      let p, sol = resolve "nothing changed" (p, S.solve ~config p) p [] in
      let csts', changed =
        if csts <> [] && Prng.int rng 2 = 0 then
          let c = Prng.pick rng csts in
          (List.filter (fun c' -> c' != c) csts, c.Cst.lhs)
        else
          let lhs = Prng.sample rng (1 + Prng.int rng 3) attrs in
          let rhs =
            if Prng.int rng 3 = 0 then Cst.Level (Prng.pick rng levels)
            else Cst.Attr (Prng.pick rng attrs)
          in
          (csts @ [ Cst.make_exn ~lhs ~rhs ], lhs)
      in
      let p, sol = resolve "a row added or removed" (p, sol) (compile csts') changed in
      let prob = p.S.prob in
      match
        List.filter
          (fun ci -> not (Problem.rhs_is_attr prob.Problem.store.Problem.rhs.(ci)))
          (List.init (Problem.n_csts prob) Fun.id)
      with
      | [] -> true
      | level_rows ->
          let ci = Prng.pick rng level_rows in
          Problem.set_rlevel prob ci (Prng.pick rng levels);
          let changed = List.map (Problem.attr_name prob) (Array.to_list (Problem.lhs prob ci)) in
          ignore (resolve "a level rewritten" (p, sol) p changed);
          true)

(* An incremental solve builds its assignment only up to [last], the last
   attribute whose level changed, and shares the earlier solution's list
   after it: on the three shapes, with a level rhs rewritten in place and
   its lhs dirty, the list from [last + 1] on is physically the earlier
   one's, and the whole assignment equals a fresh solve's.  The seeds
   include re-solves that change no level (the whole list is shared) and
   ones that change the last attribute (nothing is). *)
let assignment_shares_tail =
  QCheck.Test.make ~count:300 ~name:"an incremental assignment shares its unchanged tail"
    Helpers.seed_arb (fun seed ->
      let p = random_problem seed in
      let rng = Prng.create (seed + 7) and prob = p.S.prob in
      let lat = p.S.lat in
      let sol = S.solve p in
      match
        List.filter
          (fun ci -> not (Problem.rhs_is_attr prob.Problem.store.Problem.rhs.(ci)))
          (List.init (Problem.n_csts prob) Fun.id)
      with
      | [] -> true
      | level_rows ->
          let ci = Prng.pick rng level_rows in
          Problem.set_rlevel prob ci (Prng.pick rng (Explicit.all lat));
          let dirty = Array.to_list (Problem.lhs prob ci) in
          let inc = S.solve_incremental ~workspace:(S.workspace ()) ~prev:(p, sol) ~dirty p in
          let last = ref (-1) in
          Array.iteri (fun a l -> if l <> sol.S.levels.(a) then last := a) inc.S.levels;
          let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
          if inc.S.assignment <> (S.solve p).S.assignment then
            QCheck.Test.fail_report "the assignment differs from a fresh solve's";
          if drop (!last + 1) inc.S.assignment != drop (!last + 1) sol.S.assignment then
            QCheck.Test.fail_reportf "the pairs after attribute %d are not the earlier ones" !last;
          true)

(* The paper's Figure 2 run, self-checked, still yields Figure 2(b). *)
let paper_example_checked () =
  let lattice = Minup_core.Paper.fig1b in
  let p =
    S.compile_exn ~lattice ~attrs:Minup_core.Paper.fig2_attrs
      Minup_core.Paper.fig2_constraints
  in
  let checked = S.solve ~config:(S.Config.make ~check_aggregate:true ()) p in
  let plain = S.solve p in
  Alcotest.(check (array int)) "same levels" plain.S.levels checked.S.levels;
  Alcotest.(check (list int)) "same counters" (fields plain.S.stats)
    (fields checked.S.stats)

let suite =
  [
    Helpers.qcheck aggregate_matches_refold;
    Helpers.qcheck aggregate_matches_refold_bounds;
    case "paper Figure 2 under self-check" paper_example_checked;
    Helpers.qcheck incremental_aggregates;
    Helpers.qcheck assignment_shares_tail;
  ]
