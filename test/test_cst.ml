module Cst = Minup_constraints.Cst

let case = Helpers.case

let make_validation () =
  (match Cst.make ~lhs:[] ~rhs:(Cst.Level 0) with
  | Error Cst.Empty_lhs -> ()
  | _ -> Alcotest.fail "accepted empty lhs");
  (match Cst.make ~lhs:[ "a"; "b"; "a" ] ~rhs:(Cst.Level 0) with
  | Error (Cst.Duplicate_lhs "a") -> ()
  | _ -> Alcotest.fail "accepted duplicate lhs");
  match Cst.make ~lhs:[ "a"; "b" ] ~rhs:(Cst.Attr "c") with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "rejected valid constraint"

let classify () =
  let simple = Cst.simple "a" (Cst.Level 3) in
  let complex = Cst.make_exn ~lhs:[ "a"; "b" ] ~rhs:(Cst.Attr "c") in
  Alcotest.(check bool) "simple" true (Cst.is_simple simple);
  Alcotest.(check bool) "not complex" false (Cst.is_complex simple);
  Alcotest.(check bool) "complex" true (Cst.is_complex complex);
  Alcotest.(check int) "size simple" 2 (Cst.size simple);
  Alcotest.(check int) "size complex" 3 (Cst.size complex)

let trivial () =
  let t = Cst.make_exn ~lhs:[ "a"; "b" ] ~rhs:(Cst.Attr "a") in
  Alcotest.(check bool) "trivial" true (Cst.is_trivial t);
  Alcotest.(check bool) "level rhs never trivial" false
    (Cst.is_trivial (Cst.simple "a" (Cst.Level 0)));
  Alcotest.(check bool) "distinct attr not trivial" false
    (Cst.is_trivial (Cst.simple "a" (Cst.Attr "b")))

let attrs () =
  Alcotest.(check (list string)) "attrs with rhs" [ "a"; "b"; "c" ]
    (Cst.attrs (Cst.make_exn ~lhs:[ "a"; "b" ] ~rhs:(Cst.Attr "c")));
  Alcotest.(check (list string)) "level rhs" [ "a" ]
    (Cst.attrs (Cst.simple "a" (Cst.Level 9)))

let map_level () =
  let c = Cst.simple "a" (Cst.Level 3) in
  let c' = Cst.map_level string_of_int c in
  (match c'.Cst.rhs with
  | Cst.Level "3" -> ()
  | _ -> Alcotest.fail "level not mapped");
  let a = Cst.simple "a" (Cst.Attr "b") in
  match (Cst.map_level string_of_int a).Cst.rhs with
  | Cst.Attr "b" -> ()
  | _ -> Alcotest.fail "attr rhs altered"

let pp () =
  let s =
    Format.asprintf "%a"
      (Cst.pp (fun ppf l -> Format.pp_print_int ppf l))
      (Cst.make_exn ~lhs:[ "a"; "b" ] ~rhs:(Cst.Level 4))
  in
  Alcotest.(check string) "render" "lub{λ(a), λ(b)} ⊒ 4" s;
  let s2 =
    Format.asprintf "%a"
      (Cst.pp (fun ppf l -> Format.pp_print_int ppf l))
      (Cst.simple "x" (Cst.Attr "y"))
  in
  Alcotest.(check string) "render simple" "λ(x) ⊒ λ(y)" s2

(* The duplicate check names the first member equal to an earlier one,
   not the first one that has a later twin, however long the lhs. *)
let long_lhs_duplicates () =
  let names k = List.init k (Printf.sprintf "a%d") in
  let dup lhs =
    match Cst.make ~lhs ~rhs:(Cst.Level 0) with
    | Error (Cst.Duplicate_lhs a) -> Some a
    | Error Cst.Empty_lhs -> Alcotest.fail "empty lhs"
    | Ok _ -> None
  in
  Alcotest.(check (option string)) "no duplicate" None (dup (names 100));
  Alcotest.(check (option string)) "first repeat wins" (Some "a50")
    (dup (names 100 @ [ "a50"; "a3" ]));
  Alcotest.(check (option string)) "adjacent repeat" (Some "a7")
    (dup ([ "a7"; "a7" ] @ names 40));
  Alcotest.(check (option string)) "first member repeated last" (Some "a0")
    (dup (names 16 @ [ "a0" ]));
  (* A hostile 32k-member lhs: a pairwise scan takes seconds here. *)
  Alcotest.(check (option string)) "32k members" (Some "a31999")
    (dup (names 32_000 @ [ "a31999" ]));
  match Cst.make ~lhs:(names 20 @ [ "a4" ]) ~rhs:(Cst.Level 0) with
  | Error e ->
      Alcotest.(check string) "error text"
        "attribute \"a4\" repeated in left-hand side"
        (Format.asprintf "%a" Cst.pp_error e)
  | Ok _ -> Alcotest.fail "accepted duplicate lhs"

let suite =
  [
    case "make validation" make_validation;
    case "long lhs duplicates" long_lhs_duplicates;
    case "simple/complex classification" classify;
    case "trivial detection" trivial;
    case "mentioned attributes" attrs;
    case "map_level" map_level;
    case "pretty printing" pp;
  ]
