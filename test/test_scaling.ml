(* No hidden quadratic costs: the words a layer allocates must grow
   linearly with its input.  Words allocated are a hardware-independent
   signal, so these bounds hold on any host.  Each layer runs at two sizes
   4x apart (the quadratic [Try] case 2x apart); a linear layer allocates
   about 4x as much at the larger one, a quadratic one about 16x. *)
open Minup_constraints
module Session = Minup_session.Session.Make (Minup_lattice.Total)
module Solver = Minup_core.Solver.Make (Minup_lattice.Total)

let case = Helpers.case
let small = 2_000
let large = 8_000
let max_growth = 4.6
let words = Helpers.words
let metered = Helpers.metered
let ladder = Helpers.ladder16

(* The shape of the Thm. 5.2 acyclic experiments, at [small] and [large]. *)
let inputs = Helpers.acyclic_2k_8k

let check_growth ?(ratio = 4) ?(bound = max_growth) name ~small:w_small
    ~large:w_large =
  let growth = w_large /. w_small in
  if growth > bound then
    Alcotest.failf "%s: allocation grew %.2fx for %dx the input (bound %.1fx)"
      name growth ratio bound

(* The words [f] allocates on the small and on the large input. *)
let both f =
  let s, l = Lazy.force inputs in
  (words (fun () -> f s), words (fun () -> f l))

(* [Problem.compile] grows linearly and allocates at most 9.4 words per
   constraint at 8k: 8.6 measured, plus 10% (9.8 while it also built an
   index of the complex rows alone and copied the names). *)
let compile_linear () =
  let compile (attrs, csts) = Problem.compile_exn ~attrs csts in
  let w_small, w_large = both compile in
  check_growth "Problem.compile" ~small:w_small ~large:w_large;
  let _, (attrs, csts) = Lazy.force inputs in
  let n_csts = float_of_int (Problem.n_csts (compile (attrs, csts))) in
  let per_cst = w_large /. n_csts in
  if per_cst > 9.4 then
    Alcotest.failf "Problem.compile: %.1f words per constraint (bound 9.4)" per_cst

(* The policy parser: the 8k input rendered to text parses within a
   constant number of words per constraint, and one constraint line (the
   shape of a serve delta) within a few hundred, so no buffer is sized for
   more than the text it reads.  [Parse.parse_resolve] allocates 21.2
   words per constraint (27.2 before the one-pass scanner shared its name
   table and one-member lhs lists), [Parse.rows] 12.1 (16.5 when it
   made an array per line, 18.6 when it also filled a constraint store,
   23.4 when it hashed every attribute again into a second table); each
   bound is its figure plus 10%. *)
let parse_lean () =
  let level_of_string = Minup_lattice.Total.level_of_string ladder in
  let parse text = Parse.parse_resolve ~level_of_string text in
  let _, (attrs, csts) = Lazy.force inputs in
  let text =
    Parse.render ~level_to_string:(Minup_lattice.Total.level_to_string ladder)
      { Parse.attrs; csts; upper_bounds = [] }
  in
  let n_csts = float_of_int (List.length csts) in
  let per_cst = words (fun () -> parse text) /. n_csts in
  if per_cst > 23.3 then
    Alcotest.failf "Parse.parse_resolve: %.1f words per constraint (bound 23.3)" per_cst;
  let per_cst = words (fun () -> Parse.rows ~level_of_string text) /. n_csts in
  if per_cst > 13.3 then
    Alcotest.failf "Parse.rows: %.1f words per constraint (bound 13.3)" per_cst;
  List.iter
    (fun line ->
      let w = words (fun () -> parse line) in
      if w > 300. then
        Alcotest.failf "Parse.parse_resolve %S: %.0f words (bound 300)" line w)
    [ "A17 >= S3"; "A17 >= A4"; "{A1, A2} >= S9"; "lub{A10, A200, A3000} >= A4000" ]

let priorities_linear () =
  let compiled (attrs, csts) = Problem.compile_exn ~attrs csts in
  let s, l = Lazy.force inputs in
  let ps = compiled s and pl = compiled l in
  let w_small = words (fun () -> Priorities.compute ps) in
  let w_large = words (fun () -> Priorities.compute pl) in
  check_growth "Priorities.compute" ~small:w_small ~large:w_large;
  (* Absolute: the stacks and the result, one CSR of the sets. *)
  List.iter
    (fun (p, w) ->
      let per_attr = w /. float_of_int (Problem.n_attrs p) in
      if per_attr > 8. then
        Alcotest.failf "Priorities.compute: %.1f words per attribute at %d (bound 8)"
          per_attr (Problem.n_attrs p))
    [ (ps, w_small); (pl, w_large) ]

let session_create_linear () =
  let w_small, w_large =
    both (fun (attrs, csts) -> Session.create ~lattice:ladder ~attrs csts)
  in
  check_growth "Session.create" ~small:w_small ~large:w_large

(* The parser's hostile shapes: one [attrs] declaration per line, and a
   single association over every attribute. *)
let parser_linear () =
  let names n = List.init n (Printf.sprintf "x%d") in
  let per_line n = String.concat "" (List.map (fun a -> "attrs " ^ a ^ "\n") (names n)) in
  let one_lub n = "lub{" ^ String.concat ", " (names n) ^ "} >= S3\n" in
  let parse text =
    Parse.parse_resolve ~level_of_string:(Minup_lattice.Total.level_of_string ladder) text
  in
  List.iter
    (fun (name, shape) ->
      let ts = shape small and tl = shape large in
      let w_small = words (fun () -> parse ts) in
      let w_large = words (fun () -> parse tl) in
      check_growth name ~small:w_small ~large:w_large)
    [ ("Parse: one declaration per line", per_line); ("Parse: one huge lub", one_lub) ]

(* With an upgrade preference the solver schedules the priority sets by
   preference instead of by priority number; picking the next set must not
   cost a sort of all the available ones. *)
let preference_linear () =
  let config =
    Solver.Config.make ~upgrade_preference:(fun a -> Hashtbl.hash a land 15) ()
  in
  let s, l = Lazy.force inputs in
  let compiled (attrs, csts) = Solver.compile_exn ~lattice:ladder ~attrs csts in
  let ps = compiled s and pl = compiled l in
  let w_small = words (fun () -> Solver.solve ~config ps) in
  let w_large = words (fun () -> Solver.solve ~config pl) in
  check_growth "Solver.solve with an upgrade preference" ~small:w_small
    ~large:w_large

(* The paper's quadratic case: one cycle A0 >= A1 >= ... >= A0 with a
   floor on the middle attribute, plus the non-binding complex constraint
   {A0, A1} >= S1 so that the set is not simple-only and keeps [Try].
   Every [Try] walks most of the cycle and Try iterations grow 4x per
   doubling of the attributes.  The forward lowering's bookkeeping is
   flat scratch allocated once per solve, so allocation grows with the
   attributes, not with the iterations. *)
let cycle ~complex n =
  let name = Printf.sprintf "A%d" in
  ( List.init n name,
    Cst.simple (name (n / 2)) (Cst.Level 8)
    :: List.init n (fun i -> Cst.simple (name i) (Cst.Attr (name ((i + 1) mod n))))
    @ if complex then [ Cst.make_exn ~lhs:[ name 0; name 1 ] ~rhs:(Cst.Level 1) ] else [] )

let compiled_cycle ~complex n =
  let attrs, csts = cycle ~complex n in
  Solver.compile_exn ~lattice:ladder ~attrs csts

let try_allocation_flat () =
  let compiled = compiled_cycle ~complex:true in
  let ps = compiled 400 and pl = compiled 800 in
  let w_small = words (fun () -> Solver.solve ps) in
  let w_large = words (fun () -> Solver.solve pl) in
  check_growth ~ratio:2 ~bound:2.2 "Solver.solve on a single cycle" ~small:w_small
    ~large:w_large;
  let iters = (Solver.solve pl).Solver.stats.Minup_core.Instr.try_iterations in
  let per_iter = w_large /. float_of_int iters in
  if per_iter > 2. then
    Alcotest.failf "Solver.solve: %.2f words per Try iteration (bound 2)" per_iter

(* The same cycle without the complex constraint is simple-only: the
   solver takes its one lub, runs no [Try] and allocates linearly. *)
let simple_only_cycle_linear () =
  let ps = compiled_cycle ~complex:false 400
  and pl = compiled_cycle ~complex:false 1_600 in
  let w_small = words (fun () -> Solver.solve ps) in
  let w_large = words (fun () -> Solver.solve pl) in
  check_growth "Solver.solve on a simple-only cycle" ~small:w_small ~large:w_large;
  let sol = Solver.solve pl in
  Alcotest.(check int) "try_calls" 0 sol.Solver.stats.Minup_core.Instr.try_calls;
  Alcotest.(check bool) "every attribute at the floor" true
    (Array.for_all (fun l -> l = 8) sol.Solver.levels)

(* A session over [attrs] and [csts] with a tenth of the attributes
   bounded, resolved once. *)
let bounded_session (attrs, csts) =
  let sess = Session.create ~lattice:ladder ~attrs csts in
  let bounded = Array.of_list (List.filteri (fun i _ -> i mod 10 = 0) attrs) in
  Array.iteri (fun i a -> Session.set_lower_bound sess a (Some (2 + (i mod 6)))) bounded;
  ignore (Session.resolve sess);
  (sess, bounded)

(* A from-scratch compile and solve of the session's snapshot.  The
   snapshot is taken when [scratch sess] is applied, so [words (scratch
   sess)] counts the compile and the solve only. *)
let scratch sess =
  let attrs, csts = Session.snapshot sess in
  fun () -> Solver.solve (Solver.compile_exn ~lattice:ladder ~attrs csts)

(* The ring A0 >= A1 >= A2 >= A0.  Generated edges run from lower to
   higher attribute numbers, so the ring is a strongly connected component
   of exactly three attributes, and a bound on A0 is a bound on a ring
   member.  The non-binding {A0, A1} >= S0 keeps the ring on [Try]. *)
let with_ring (attrs, csts) =
  let ring = [ ("A0", "A1"); ("A1", "A2"); ("A2", "A0") ] in
  ( attrs,
    csts
    @ Cst.make_exn ~lhs:[ "A0"; "A1" ] ~rhs:(Cst.Level 0)
      :: List.map (fun (a, b) -> Cst.simple a (Cst.Attr b)) ring )

(* The ring R0 >= R1 >= R2 >= R0 on three fresh attributes, above A0
   (R0 >= A0) so that a change of A0's level reaches it.  No
   member is in the lhs of a complex constraint: the ring is simple-only,
   one lub. *)
let with_simple_ring (attrs, csts) =
  let r = Printf.sprintf "R%d" in
  let ring = [ (r 0, "A0"); (r 0, r 1); (r 1, r 2); (r 2, r 0) ] in
  (attrs @ [ r 0; r 1; r 2 ], csts @ List.map (fun (a, b) -> Cst.simple a (Cst.Attr b)) ring)

(* A re-tightened lower bound on an already-bounded attribute takes the
   session's patch path, whether or not it reaches a cycle: the compiled problem is patched in place and its priorities are
   kept, so the resolve compiles nothing, re-solves incrementally and
   allocates well under a from-scratch compile and solve of the same
   snapshot (a structural delta's resolve allocates about two fifths). *)
let session_patch_lean shape () =
  let module Trace = Minup_obs.Trace in
  List.iter
    (fun input ->
      let attrs, csts = shape input in
      let n = List.length attrs in
      let sess, bounded = bounded_session (attrs, csts) in
      let patch_resolve () =
        let before = Session.stats sess in
        let sol = Session.resolve sess in
        let after = Session.stats sess in
        if after.Session.patched <> before.Session.patched + 1 then
          Alcotest.failf "%d attrs: a re-tighten did not take the patch path" n;
        if after.Session.incremental <> before.Session.incremental + 1 then
          Alcotest.failf "%d attrs: a patch resolve did not re-solve incrementally" n;
        sol
      in
      Session.set_lower_bound sess bounded.(0) (Some 9);
      let w_scratch = words (scratch sess) in
      let w_patch = words patch_resolve in
      if w_patch > 0.6 *. w_scratch then
        Alcotest.failf "%d attrs: a patch resolve allocated %.2fx a scratch solve (bound 0.6x)"
          n (w_patch /. w_scratch);
      Session.set_lower_bound sess bounded.(7) (Some 10);
      Trace.start ();
      let sol = Fun.protect ~finally:Trace.stop patch_resolve in
      List.iter
        (fun (e : Trace.event) ->
          if e.name = "problem.compile" || String.starts_with ~prefix:"priorities." e.name then
            Alcotest.failf "%d attrs: a patch resolve emitted a %s span" n e.name)
        (Trace.events ());
      Alcotest.(check (array int)) "patch resolve = scratch" (scratch sess ()).Solver.levels
        sol.Session.Solver.levels)
    (let s, l = Lazy.force inputs in
     [ s; l ])

(* The simple-only ring on the 2k and 8k inputs, and on its own: above
   F >= S12 (R1 >= F), which a bound on R0 does not dirty.  Re-tightening
   R0's bound re-solves the ring with F reused, so the ring's one lub
   must take F's reused level as well as the new bound. *)
let simple_ring_patch () =
  let attrs, csts = with_simple_ring (fst (Lazy.force inputs)) in
  let p = Solver.compile_exn ~lattice:ladder ~attrs csts in
  if metered "solver/collapsed_sets" (fun () -> ignore (Solver.solve p)) <> 1 then
    Alcotest.fail "the ring is not the one simple-only set";
  session_patch_lean with_simple_ring ();
  let sess =
    Session.create ~lattice:ladder
      [
        Cst.simple "R0" (Cst.Attr "R1"); Cst.simple "R1" (Cst.Attr "R2");
        Cst.simple "R2" (Cst.Attr "R0"); Cst.simple "R1" (Cst.Attr "F");
        Cst.simple "F" (Cst.Level 12);
      ]
  in
  Session.set_lower_bound sess "R0" (Some 2);
  ignore (Session.resolve sess);
  List.iter
    (fun l ->
      Session.set_lower_bound sess "R0" (Some l);
      let patched = (Session.stats sess).Session.patched in
      let sol = Session.resolve sess in
      if (Session.stats sess).Session.patched <> patched + 1 then
        Alcotest.fail "a re-tighten on the ring did not take the patch path";
      Alcotest.(check (array int))
        (Printf.sprintf "R0 >= S%d: patch resolve = scratch" l)
        (scratch sess ()).Solver.levels sol.Session.Solver.levels)
    [ 5; 14; 3 ]

(* A re-tightened bound that leaves every level unchanged — here, set
   again to the level it has — re-solves exactly its attribute's priority
   set and reuses every other attribute: [frozen] grows by n - |set|.  On
   the 2k and 8k inputs, alone (a singleton set) and with the ring
   through A0 (a set of three). *)
let session_patch_stops ~size:expected shape () =
  List.iter
    (fun input ->
      let sess, bounded = bounded_session (shape input) in
      let a = bounded.(0) in
      let attrs, csts = Session.snapshot sess in
      let p = Solver.compile_exn ~lattice:ladder ~attrs csts in
      let prio = p.Solver.prio in
      let id = Problem.attr_id_exn p.Solver.prob a in
      let n = Problem.n_attrs p.Solver.prob
      and size = Priorities.size prio prio.Priorities.priority.(id) in
      Alcotest.(check int) (Printf.sprintf "%d attrs: the size of %s's set" n a) expected size;
      let before = Session.stats sess in
      Session.set_lower_bound sess a (Some 2);
      ignore (Session.resolve sess);
      let after = Session.stats sess in
      if after.Session.patched <> before.Session.patched + 1 then
        Alcotest.failf "%d attrs: a re-tighten did not take the patch path" n;
      Alcotest.(check int)
        (Printf.sprintf "%d attrs: reused all but the %d of %s's set" n size a)
        (n - size)
        (after.Session.frozen - before.Session.frozen))
    (let s, l = Lazy.force inputs in
     [ s; l ])

(* Every structural delta rebuilds the problem from the session's
   interned rows and re-solves incrementally: the resolve counts in
   [stats.incremental], not [stats.full], opens no [problem.compile] span
   and allocates at most 0.6x a from-scratch compile and solve of the
   same snapshot outside the session.  Traced, six single-delta
   rebuilds — an attribute-rhs row added, a level row added, a row
   removed, a first bound, a cleared bound and a new attribute — edit
   the compiled problem in place: none opens a [problem.of_rows] span.
   The last four change no edge between old attributes: their rebuilds
   carry the priorities, and open no [priorities.compute] span. *)
let session_structural_lean () =
  let module Trace = Minup_obs.Trace in
  List.iter
    (fun (attrs, csts) ->
      let n = List.length attrs in
      let sess, bounded = bounded_session (attrs, csts) in
      List.iter
        (fun (kind, edit) ->
          edit ();
          let w_scratch = words (scratch sess) in
          let before = Session.stats sess in
          let w_resolve = words (fun () -> Session.resolve sess) in
          let after = Session.stats sess in
          if
            after.Session.incremental <> before.Session.incremental + 1
            || after.Session.full <> before.Session.full
          then Alcotest.failf "%d attrs: %s did not resolve incrementally" n kind;
          if w_resolve > 0.6 *. w_scratch then
            Alcotest.failf "%d attrs: %s resolve allocated %.2fx a scratch solve (bound 0.6x)"
              n kind (w_resolve /. w_scratch))
        [
          ( "add",
            fun () ->
              ignore (Session.add_constraint sess (Cst.simple (List.nth attrs 3) (Cst.Level 9)))
          );
          ("remove", fun () -> assert (Session.remove_constraint sess 0));
          ("new attribute", fun () -> Session.add_attribute sess "fresh");
          ("first bound", fun () -> Session.set_lower_bound sess (List.nth attrs 1) (Some 5));
          ("cleared bound", fun () -> Session.set_lower_bound sess bounded.(3) None);
        ];
      (* Traced, a structural resolve compiles nothing and indexes no
         row again, and the carrying ones compute no priorities. *)
      let added = ref 0 in
      List.iter
        (fun (kind, carries, edit) ->
          edit ();
          Trace.start ();
          let sol = Fun.protect ~finally:Trace.stop (fun () -> Session.resolve sess) in
          List.iter
            (fun (e : Trace.event) ->
              if
                e.name = "problem.compile" || e.name = "problem.of_rows"
                || (carries && e.name = "priorities.compute")
              then Alcotest.failf "%d attrs: %s resolve emitted a %s span" n kind e.name)
            (Trace.events ());
          Alcotest.(check (array int))
            (kind ^ " rebuild resolve = scratch")
            (scratch sess ()).Solver.levels sol.Session.Solver.levels)
        [
          ( "an attribute-rhs row's",
            false,
            fun () ->
              added :=
                Session.add_constraint sess
                  (Cst.simple (List.nth attrs 7) (Cst.Attr (List.nth attrs 9))) );
          ("a removed row's", false, fun () -> assert (Session.remove_constraint sess !added));
          ( "a level row's",
            true,
            fun () ->
              ignore (Session.add_constraint sess (Cst.simple (List.nth attrs 5) (Cst.Level 7)))
          );
          ( "a first bound's",
            true,
            fun () -> Session.set_lower_bound sess (List.nth attrs 2) (Some 4) );
          ("a cleared bound's", true, fun () -> Session.set_lower_bound sess bounded.(4) None);
          ("a new attribute's", true, fun () -> Session.add_attribute sess "fresh2");
        ])
    (let s, l = Lazy.force inputs in
     [ s; l ])

(* A rebuild flattens the session's lines into a store and indexes it
   ([Problem.of_lines]): both, and the whole rebuild resolve, allocate
   linearly from 2k to 8k attributes, and [Problem.of_lines] at most 8.2
   words per constraint at 8k (7.5 measured; 8.4 while it also built
   an index of the complex rows alone). *)
let session_rebuild_linear () =
  let rebuild (attrs, csts) =
    let sess, _ = bounded_session (attrs, csts) in
    ignore (Session.add_constraint sess (Cst.simple (List.nth attrs 3) (Cst.Level 9)));
    words (fun () -> Session.resolve sess)
  in
  let of_lines (attrs, csts) =
    let text =
      Parse.render ~level_to_string:(Minup_lattice.Total.level_to_string ladder)
        { Parse.attrs; csts; upper_bounds = [] }
    in
    let r =
      Result.get_ok (Parse.rows ~level_of_string:(Minup_lattice.Total.level_of_string ladder) text)
    in
    words (fun () ->
        Problem.of_lines ~attr_index:r.Parse.attr_index r.Parse.lines)
  in
  let s, l = Lazy.force inputs in
  check_growth "a rebuild resolve" ~small:(rebuild s) ~large:(rebuild l);
  let w_large = of_lines l in
  check_growth "Problem.of_lines" ~small:(of_lines s) ~large:w_large;
  let per_cst = w_large /. float_of_int (List.length (snd l)) in
  if per_cst > 8.2 then
    Alcotest.failf "Problem.of_lines: %.1f words per constraint at 8k (bound 8.2)" per_cst

(* A problem reads its names from the session's name table, which a new
   attribute grows past its count, and copies none.  The rebuild that
   takes in an [add_attribute] grows the solve's workspace to the new
   count; the next one allocates no more than a rebuild before the
   [add_attribute], on the 2k and 8k inputs, but for the new attribute's
   own share (a word in each per-attribute array of the solve and six in
   its assignment list), where a copy of the names is 2k or 8k words. *)
let session_names_not_copied () =
  List.iter
    (fun (attrs, csts) ->
      let n = List.length attrs in
      let sess, _ = bounded_session (attrs, csts) in
      let rebuild id =
        ignore
          (Session.add_constraint sess (Cst.simple (List.nth attrs id) (Cst.Level 9)));
        words (fun () -> Session.resolve sess)
      in
      let w_before = rebuild 3 in
      Session.add_attribute sess "fresh";
      ignore (Session.resolve sess);
      let w_after = rebuild 3 in
      if w_after > w_before +. 64. then
        Alcotest.failf
          "%d attrs: a rebuild after add_attribute allocated %.0f words, %.0f before it \
           (bound +64)" n
          w_after w_before)
    (let s, l = Lazy.force inputs in
     [ s; l ])

(* A re-tighten that changes no level re-solves only its own priority
   set: its lattice operations do not grow with the attributes reused
   around it.  [R0] of the simple-only ring has the same rows and bound
   at 2k and 8k; re-set to its own bound, the patch resolve's
   lub + leq + Minlevel calls at 8k stay within 10% of those at 2k. *)
let session_patch_counts_flat () =
  let counts (attrs, csts) =
    let sess, bounded = bounded_session (with_simple_ring (attrs, csts)) in
    let r0 = Array.length bounded - 1 in
    if bounded.(r0) <> "R0" then Alcotest.fail "R0 is not bounded";
    let level = 2 + (r0 mod 6) in
    Session.set_lower_bound sess "R0" (Some level);
    let patched = (Session.stats sess).Session.patched in
    let sol = Session.resolve sess in
    if (Session.stats sess).Session.patched <> patched + 1 then
      Alcotest.fail "the re-tighten of R0 did not take the patch path";
    let s = sol.Session.Solver.stats in
    s.Minup_core.Instr.lub + s.Minup_core.Instr.leq + s.Minup_core.Instr.minlevel_calls
  in
  let s, l = Lazy.force inputs in
  let c_small = counts s and c_large = counts l in
  if float_of_int c_large > 1.1 *. float_of_int c_small then
    Alcotest.failf
      "a no-op patch resolve: lub + leq + minlevel = %d at %d attrs, %d at %d (bound +10%%)"
      c_large large c_small small

(* The Thm. 5.2 shape at 32k attributes, with n/64 complex constraints
   instead of n/2: the generator samples each complex lhs in O(n). *)
let input_32k =
  lazy
    (Minup_workload.Gen_constraints.acyclic (Minup_workload.Prng.create 5)
       {
         Minup_workload.Gen_constraints.n_attrs = 32_000;
         n_simple = 64_000;
         n_complex = 500;
         max_lhs = 4;
         n_constants = 8_000;
         constants = List.init 16 Fun.id;
       })

let three_sizes () =
  let s, l = Lazy.force inputs in
  [ s; l; Lazy.force input_32k ]

(* The same no-op re-tighten of R0 allocates a constant: the session
   keeps the solve state between resolves (the first incremental resolve
   makes it), the walk visits R0's set alone and writes nothing else, and
   a solve that changes no level returns the previous solution's levels
   and assignment themselves.  At most 256 words at 2k, 8k and 32k
   attributes (241 measured at each).  The sets it visits, read from
   [solver/visited_sets], are as many at every size. *)
let session_patch_noop_flat () =
  let noop (attrs, csts) =
    let sess, _ = bounded_session (with_simple_ring (attrs, csts)) in
    let retighten () =
      Session.set_lower_bound sess "R0" (Some 2);
      Session.resolve sess
    in
    let first = retighten () in
    let second = ref first in
    let w = words (fun () -> second := retighten ()) in
    if !second.Solver.levels != first.Solver.levels then
      Alcotest.failf "%d attrs: a no-op re-tighten returned new levels" (List.length attrs);
    let visited = metered "solver/visited_sets" (fun () -> ignore (retighten ())) in
    (List.length attrs + 3, w, visited)
  in
  let runs = List.map noop (three_sizes ()) in
  List.iter
    (fun (n, w, _) ->
      if w > 256. then
        Alcotest.failf "a no-op re-tighten's resolve allocated %.0f words at %d attrs (bound 256)"
          w n)
    runs;
  match runs with
  | (_, _, v) :: rest ->
      if v < 1 then Alcotest.fail "a no-op re-tighten visited no set";
      List.iter
        (fun (n, _, v') ->
          if v' <> v then
            Alcotest.failf "a no-op re-tighten visited %d sets at %d attrs, %d at the smallest" v'
              n v)
        rest
  | [] -> ()

(* A re-tighten that changes one level copies the levels once and builds
   the assignment's pairs only up to that attribute: at most one word
   per attribute plus 256 (n + 209 measured at 2k, 8k and 32k).  [F],
   the first attribute, has no row but its bound, so its level is the
   bound and no other level moves. *)
let session_patch_change_words () =
  List.iter
    (fun (attrs, csts) ->
      let n = List.length attrs + 1 in
      let sess, bounded = bounded_session ("F" :: attrs, csts) in
      if bounded.(0) <> "F" then Alcotest.fail "F is not bounded";
      let retighten l =
        Session.set_lower_bound sess "F" (Some l);
        words (fun () -> Session.resolve sess)
      in
      ignore (retighten 9);
      let w = retighten 3 in
      let levels = (Session.resolve sess).Solver.levels in
      Alcotest.(check int) (Printf.sprintf "%d attrs: F's level" n) 3 levels.(0);
      if w > float_of_int n +. 256. then
        Alcotest.failf
          "a level-changing re-tighten's resolve allocated %.0f words at %d attrs (bound %d)" w n
          (n + 256))
    (three_sizes ())

(* Serve requests on problem [p] over the 16-level ladder, as lines. *)
let serve_lattice =
  "levels " ^ String.concat ", " (List.init 16 (Printf.sprintf "S%d")) ^ "\n"
  ^ String.concat "" (List.init 15 (fun i -> Printf.sprintf "S%d < S%d\n" i (i + 1)))

let serve_request fields =
  let module Json = Minup_obs.Json in
  Json.to_string (Json.Obj (("problem", Json.Str "p") :: fields))

let open_line (attrs, csts) =
  let module Json = Minup_obs.Json in
  serve_request
    [
      ("op", Json.Str "open");
      ("lattice", Json.Str serve_lattice);
      ( "constraints",
        Json.Str
          (Parse.render ~level_to_string:(Minup_lattice.Total.level_to_string ladder)
             { Parse.attrs; csts; upper_bounds = [] }) );
    ]

(* A serve [open] — the request's JSON, the lattice, the policy text to
   rows and the session over them — allocates a constant number of words
   per constraint: at most 10% more at 8k attributes than at 2k, and at
   most 21.6 at 8k (19.6 measured; 24.0 while each line had an array
   of its own, 26.6 while [Parse.rows] also filled a constraint store,
   31.4 while the scan and the session each hashed
   every name into a table of its own, 33.5 when the rows were boxed
   records and the session copied them, 47.6 when the open built a
   constraint list and the session registered every name of it). *)
let serve_open_linear () =
  let module Serve = Minup_session.Serve in
  let per_cst ((_, csts) as input) =
    let line = open_line input in
    let conn = Serve.create () in
    let w = words (fun () -> Serve.handle_line conn line) in
    if Minup_core.Wire.status (Serve.handle_line conn line) <> "ok" then
      Alcotest.fail "open refused";
    w /. float_of_int (List.length csts)
  in
  let s, l = Lazy.force inputs in
  let w_small = per_cst s and w_large = per_cst l in
  check_growth ~ratio:1 ~bound:1.1 "serve open words per constraint" ~small:w_small
    ~large:w_large;
  if w_large > 21.6 then
    Alcotest.failf "serve open: %.1f words per constraint at 8k (bound 21.6)" w_large

(* A serve solution reply: the session escapes each name and level once,
   at its first reply, and keeps that reply as runs of attributes with
   the levels they were rendered from.  A later reply with the same
   levels re-renders no run and returns the same string, so building the
   reply and rendering it allocate a constant: at most 0.126 words per
   attribute at 2k and at 8k (229 words, 0.115 per attribute at 2k,
   measured).  A reply that copied every fragment into a new buffer took
   about 3.5 words per attribute, and one that built and escaped a tree
   about 22. *)
let serve_reply_lean () =
  let module Json = Minup_obs.Json in
  let module Wire = Minup_core.Wire in
  let module Serve = Minup_session.Serve in
  let resolve = serve_request [ ("op", Json.Str "resolve") ] in
  List.iter
    (fun input ->
      let conn = Serve.create () in
      ignore (Serve.handle_line conn (open_line input));
      let reply () = Json.to_string (Wire.to_json (Serve.handle_line conn resolve)) in
      let first = Serve.handle_line conn resolve in
      let n =
        match Wire.solution_pairs first.Wire.body with
        | Some pairs -> List.length pairs
        | None -> Alcotest.failf "resolve: status %s" (Wire.status first)
      in
      ignore (reply ());
      let per_attr = words reply /. float_of_int n in
      if per_attr > 0.126 then
        Alcotest.failf "serve solution reply: %.3f words per attribute at %d (bound 0.126)"
          per_attr n)
    (let s, l = Lazy.force inputs in
     [ s; l ])

let suite =
  [
    case "Problem.compile allocation is linear" compile_linear;
    case "Parse.parse_resolve allocation is lean" parse_lean;
    case "Priorities.compute allocation is linear" priorities_linear;
    case "Session.create allocation is linear" session_create_linear;
    case "parser allocation is linear on hostile shapes" parser_linear;
    case "preference scheduling allocation is linear" preference_linear;
    case "Try allocates nothing per iteration" try_allocation_flat;
    case "a simple-only cycle is one lub: no Try, linear allocation"
      simple_only_cycle_linear;
    case "a patch resolve compiles nothing and allocates < 0.6x scratch"
      (session_patch_lean Fun.id);
    case "a patch resolve through a ring stays incremental and < 0.6x scratch"
      (session_patch_lean with_ring);
    case "a patch resolve through a simple-only ring = scratch, < 0.6x"
      simple_ring_patch;
    case "a no-op re-tighten re-solves only its own set" (session_patch_stops ~size:1 Fun.id);
    case "a no-op re-tighten in a ring re-solves only the ring" (session_patch_stops ~size:3 with_ring);
    case "a structural resolve allocates <= 0.6x scratch and compiles nothing"
      session_structural_lean;
    case "a session rebuild allocates linearly" session_rebuild_linear;
    case "a rebuild after add_attribute copies no names" session_names_not_copied;
    case "a no-op patch resolve's lattice operations do not grow with n"
      session_patch_counts_flat;
    case "a no-op re-tighten's resolve allocates <= 256 words and visits as many sets at any n"
      session_patch_noop_flat;
    case "a level-changing re-tighten's resolve allocates <= 1 word per attribute plus 256"
      session_patch_change_words;
    case "a serve solution reply allocates <= 0.126 words per attribute" serve_reply_lean;
    case "a serve open allocates linearly" serve_open_linear;
  ]
