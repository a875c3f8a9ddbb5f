open Minup_lattice

let case = Helpers.case

let no_top () =
  (* Two incomparable maximal elements: a dummy top is required. *)
  let t =
    Semilattice.complete_exn
      ~names:[ "bot"; "a"; "b" ]
      ~order:[ ("bot", "a"); ("bot", "b") ]
  in
  Alcotest.(check bool) "has dummy top" true (t.dummy_top <> None);
  Alcotest.(check bool) "no dummy bottom" true (t.dummy_bottom = None);
  Alcotest.(check int) "4 levels" 4 (Explicit.cardinal t.lattice);
  Alcotest.(check bool) "dummy is top" true
    (Some (Explicit.top t.lattice) = t.dummy_top);
  Alcotest.(check bool) "is_dummy" true
    (Semilattice.is_dummy t (Explicit.top t.lattice));
  Alcotest.(check bool) "real not dummy" false
    (Semilattice.is_dummy t (Explicit.of_name_exn t.lattice "a"))

let no_bottom () =
  let t =
    Semilattice.complete_exn
      ~names:[ "a"; "b"; "top" ]
      ~order:[ ("a", "top"); ("b", "top") ]
  in
  Alcotest.(check bool) "has dummy bottom" true (t.dummy_bottom <> None);
  Alcotest.(check bool) "no dummy top" true (t.dummy_top = None)

let neither () =
  (* Already a lattice: nothing added. *)
  let t =
    Semilattice.complete_exn ~names:[ "a"; "b" ] ~order:[ ("a", "b") ]
  in
  Alcotest.(check bool) "no dummies" true
    (t.dummy_top = None && t.dummy_bottom = None);
  Alcotest.(check int) "unchanged" 2 (Explicit.cardinal t.lattice)

let both () =
  (* An antichain needs both dummies. *)
  let t = Semilattice.complete_exn ~names:[ "a"; "b"; "c" ] ~order:[] in
  Alcotest.(check bool) "both dummies" true
    (t.dummy_top <> None && t.dummy_bottom <> None);
  Alcotest.(check int) "5 levels" 5 (Explicit.cardinal t.lattice);
  let module Laws = Check.Laws (Explicit) in
  match Laws.check t.lattice with Ok () -> () | Error m -> Alcotest.fail m

let still_not_lattice () =
  (* Even with dummies, the inner butterfly is not a partial lattice: the
     two lower elements have two minimal upper bounds. *)
  match
    Semilattice.complete
      ~names:[ "c"; "d"; "a"; "b" ]
      ~order:[ ("c", "a"); ("c", "b"); ("d", "a"); ("d", "b") ]
  with
  | Error (Explicit.No_least_upper_bound _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Explicit.pp_error e
  | Ok _ -> Alcotest.fail "accepted the butterfly"

(* No levels at all is reported as such, not as a missing bound between
   dummies the input never named. *)
let empty () =
  (match Semilattice.complete ~names:[] ~order:[] with
  | Error Explicit.Empty -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Explicit.pp_error e
  | Ok _ -> Alcotest.fail "completed an empty order");
  match Lattice_file.parse_semilattice "" with
  | Error { line = 0; message } ->
      Alcotest.(check string) "message" "lattice has no levels" message
  | Error e -> Alcotest.failf "wrong error: %a" Lattice_file.pp_error e
  | Ok _ -> Alcotest.fail "completed an empty file"

let suite =
  [
    case "missing top" no_top;
    case "missing bottom" no_bottom;
    case "already complete" neither;
    case "missing both" both;
    case "butterfly still rejected" still_not_lattice;
    case "empty input reports Empty" empty;
  ]
