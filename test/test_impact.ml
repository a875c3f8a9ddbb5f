open Minup_lattice
open Helpers
module Impact = Minup_core.Impact.Make (Explicit)

let case = Helpers.case

let adding_floor_raises () =
  let base = [ level_cst "a" "L2"; attr_cst "b" "a" ] in
  let r =
    Impact.of_added_constraints ~lattice:fig1b ~base
      ~added:[ level_cst "a" "L4" ] ()
  in
  Alcotest.(check int) "two raised" 2 (List.length r.Impact.changes);
  List.iter
    (fun c ->
      (match c.Impact.move with
      | Impact.Raised -> ()
      | _ -> Alcotest.fail "expected Raised");
      Alcotest.check (level_t fig1b) "to L4" (lvl "L4") c.Impact.after)
    r.Impact.changes

let no_change_when_implied () =
  let base = [ level_cst "a" "L4" ] in
  let r =
    Impact.of_added_constraints ~lattice:fig1b ~base
      ~added:[ level_cst "a" "L2" ] ()
  in
  Alcotest.(check int) "nothing moved" 0 (List.length r.Impact.changes);
  Alcotest.(check int) "one unchanged" 1 r.Impact.unchanged

let new_attr_added () =
  let r =
    Impact.of_added_constraints ~lattice:fig1b ~base:[ level_cst "a" "L2" ]
      ~added:[ level_cst "fresh" "L3" ] ()
  in
  match r.Impact.changes with
  | [ { Impact.attr = "fresh"; before = None; move = Impact.Added; _ } ] -> ()
  | _ -> Alcotest.fail "expected a single Added change"

let shift_detected () =
  (* Adding a floor on the preferred absorber flips which attribute of an
     association is upgraded: one attr rises, the other falls —
     incomparable moves possible too. *)
  let base = [ assoc_cst [ "a"; "b" ] "L6"; level_cst "a" "L5" ] in
  (* base: a=L5 forces ... and b absorbs or a already covers? lub(L5,⊥)=L5 ⊉ L6,
     so the later-considered attribute absorbs the rest. *)
  let r =
    Impact.of_added_constraints ~lattice:fig1b ~base
      ~added:[ level_cst "b" "L4" ] ()
  in
  (* Whatever the exact moves, the new solution must satisfy and be
     minimal, and pp must render. *)
  let rendered = Format.asprintf "%a" (Impact.pp_report fig1b) r in
  Alcotest.(check bool) "renders" true (String.length rendered > 0)

let diff_direct () =
  let changes =
    Impact.diff fig1b
      ~before:[ ("x", lvl "L2"); ("y", lvl "L3") ]
      ~after:[ ("x", lvl "L2"); ("y", lvl "L2") ]
  in
  match changes with
  | [ { Impact.attr = "y"; move = Impact.Shifted; _ } ] -> ()
  | _ -> Alcotest.fail "expected a single Shifted change for y"

let suite =
  [
    case "adding a floor raises" adding_floor_raises;
    case "implied constraint changes nothing" no_change_when_implied;
    case "new attribute reported as Added" new_attr_added;
    case "association shift renders" shift_detected;
    case "diff classification" diff_direct;
  ]
