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

let compile_linear () =
  let compile (attrs, csts) = Problem.compile_exn ~attrs csts in
  let w_small, w_large = both compile in
  check_growth "Problem.compile" ~small:w_small ~large:w_large;
  let _, (attrs, csts) = Lazy.force inputs in
  let n_csts = float_of_int (Problem.n_csts (compile (attrs, csts))) in
  let per_cst = w_large /. n_csts in
  if per_cst > 30. then
    Alcotest.failf "Problem.compile: %.1f words per constraint (bound 30)" per_cst

let priorities_linear () =
  let compiled (attrs, csts) = Problem.compile_exn ~attrs csts in
  let s, l = Lazy.force inputs in
  let ps = compiled s and pl = compiled l in
  let w_small = words (fun () -> Priorities.compute ps) in
  let w_large = words (fun () -> Priorities.compute pl) in
  check_growth "Priorities.compute" ~small:w_small ~large:w_large

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

(* The paper's quadratic case, the shape of the batch-cyclic benchmark: one
   cycle A0 >= A1 >= ... >= A0 with a floor on the middle attribute, so
   every [Try] walks most of the cycle and Try iterations grow 4x per
   doubling of the attributes.  The forward lowering's bookkeeping is
   flat scratch allocated once per solve, so allocation grows with the
   attributes, not with the iterations. *)
let cycle n =
  let name = Printf.sprintf "A%d" in
  ( List.init n name,
    Cst.simple (name (n / 2)) (Cst.Level 8)
    :: List.init n (fun i -> Cst.simple (name i) (Cst.Attr (name ((i + 1) mod n)))) )

let try_allocation_flat () =
  let compiled n =
    let attrs, csts = cycle n in
    Solver.compile_exn ~lattice:ladder ~attrs csts
  in
  let ps = compiled 400 and pl = compiled 800 in
  let w_small = words (fun () -> Solver.solve ps) in
  let w_large = words (fun () -> Solver.solve pl) in
  check_growth ~ratio:2 ~bound:2.2 "Solver.solve on a single cycle" ~small:w_small
    ~large:w_large;
  let iters = (Solver.solve pl).Solver.stats.Minup_core.Instr.try_iterations in
  let per_iter = w_large /. float_of_int iters in
  if per_iter > 2. then
    Alcotest.failf "Solver.solve: %.2f words per Try iteration (bound 2)" per_iter

(* A re-tightened lower bound on an already-bounded attribute takes the
   session's patch path: the compiled problem and its priorities are
   reused, so the resolve compiles nothing and allocates well under a
   from-scratch compile and solve of the same snapshot (the general path
   allocates more than one). *)
let session_patch_lean () =
  let module Trace = Minup_obs.Trace in
  List.iter
    (fun (attrs, csts) ->
      let n = List.length attrs in
      let sess = Session.create ~lattice:ladder ~attrs csts in
      let bounded = Array.of_list (List.filteri (fun i _ -> i mod 10 = 0) attrs) in
      Array.iteri (fun i a -> Session.set_lower_bound sess a (Some (2 + (i mod 6)))) bounded;
      ignore (Session.resolve sess);
      let scratch () =
        let attrs, csts = Session.snapshot sess in
        Solver.solve (Solver.compile_exn ~lattice:ladder ~attrs csts)
      in
      let patch_resolve () =
        let patched = (Session.stats sess).Session.patched in
        let sol = Session.resolve sess in
        if (Session.stats sess).Session.patched <> patched + 1 then
          Alcotest.failf "%d attrs: a re-tighten did not take the patch path" n;
        sol
      in
      Session.set_lower_bound sess bounded.(0) (Some 9);
      let w_scratch = words scratch in
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
      Alcotest.(check (array int)) "patch resolve = scratch" (scratch ()).Solver.levels
        sol.Session.Solver.levels)
    (let s, l = Lazy.force inputs in
     [ s; l ])

let suite =
  [
    case "Problem.compile allocation is linear" compile_linear;
    case "Priorities.compute allocation is linear" priorities_linear;
    case "Session.create allocation is linear" session_create_linear;
    case "parser allocation is linear on hostile shapes" parser_linear;
    case "preference scheduling allocation is linear" preference_linear;
    case "Try allocates nothing per iteration" try_allocation_flat;
    case "a patch resolve compiles nothing and allocates < 0.6x scratch"
      session_patch_lean;
  ]
