open Minup_lattice

let case = Helpers.case

let sample = {|
# Figure 1(b)
levels L1, L2, L3, L4, L5, L6
L1 < L2
L1 < L3
L2 < L4
L3 < L4
L3 < L5
L4 < L6
L5 < L6
|}

let parse_ok () =
  match Lattice_file.parse sample with
  | Error e -> Alcotest.failf "parse: %a" Lattice_file.pp_error e
  | Ok lat ->
      Alcotest.(check int) "6 levels" 6 (Explicit.cardinal lat);
      Alcotest.(check int) "height" 3 (Explicit.height lat);
      Alcotest.(check bool) "L2 ⊑ L6" true
        (Explicit.leq lat (Explicit.of_name_exn lat "L2") (Explicit.of_name_exn lat "L6"))

let roundtrip () =
  let lat = Helpers.fig1b in
  match Lattice_file.parse (Lattice_file.to_string lat) with
  | Error e -> Alcotest.failf "reparse: %a" Lattice_file.pp_error e
  | Ok lat' ->
      Alcotest.(check int) "same size" (Explicit.cardinal lat) (Explicit.cardinal lat');
      List.iter
        (fun (lo, hi) ->
          Alcotest.(check bool) "same covers" true
            (List.mem
               (Explicit.name lat lo, Explicit.name lat hi)
               (List.map
                  (fun (a, b) -> (Explicit.name lat' a, Explicit.name lat' b))
                  (Explicit.cover_pairs lat'))))
        (Explicit.cover_pairs lat)

let errors () =
  (match Lattice_file.parse "levels a, b\ngarbage\n" with
  | Error { line = 2; _ } -> ()
  | _ -> Alcotest.fail "accepted garbage");
  (match Lattice_file.parse "levels a, b\na < \n" with
  | Error { line = 2; _ } -> ()
  | _ -> Alcotest.fail "accepted malformed pair");
  (* Not a lattice: reported with line 0 and the Explicit diagnosis. *)
  match Lattice_file.parse "levels a, b, c\na < b\na < c\n" with
  | Error { line = 0; message } ->
      Alcotest.(check bool) "mentions upper bound" true (String.length message > 0)
  | _ -> Alcotest.fail "accepted non-lattice"

(* [levels] opens a declaration only when white space follows it, so a
   level may be named [levelsA]; a tab separates a declaration too. *)
let levels_keyword () =
  let parse text =
    match Lattice_file.parse text with
    | Ok lat -> lat
    | Error e -> Alcotest.failf "parse: %a" Lattice_file.pp_error e
  in
  let lat = parse "levels lo, levelsA, hi\nlo < levelsA\nlevelsA < hi\n" in
  Alcotest.(check (list string)) "levels" [ "lo"; "levelsA"; "hi" ]
    (List.map (Explicit.name lat) (Explicit.all lat));
  Alcotest.(check (list (pair string string)))
    "covers"
    [ ("lo", "levelsA"); ("levelsA", "hi") ]
    (List.map
       (fun (lo, hi) -> (Explicit.name lat lo, Explicit.name lat hi))
       (Explicit.cover_pairs lat));
  let lat = parse "levels\ta, b\na < b\n" in
  Alcotest.(check (list string)) "tab-separated" [ "a"; "b" ]
    (List.map (Explicit.name lat) (Explicit.all lat))

let semilattice () =
  match Lattice_file.parse_semilattice "levels a, b, c\na < b\na < c\n" with
  | Error e -> Alcotest.failf "semilattice: %a" Lattice_file.pp_error e
  | Ok s ->
      Alcotest.(check bool) "dummy top" true (s.Semilattice.dummy_top <> None);
      Alcotest.(check int) "4 levels" 4 (Explicit.cardinal s.Semilattice.lattice)

(* One level name per [levels] line must not make the parse quadratic.
   The malformed last line stops the parse before [Explicit.create]. *)
let levels_linear () =
  let text n =
    String.concat "" (List.init n (Printf.sprintf "levels l%d\n")) ^ "garbage\n"
  in
  let parse n =
    let t = text n in
    Helpers.words (fun () ->
        match Lattice_file.parse t with
        | Error { line; _ } when line = n + 1 -> ()
        | _ -> Alcotest.fail "the malformed last line was not reported")
  in
  let growth = parse 8_000 /. parse 2_000 in
  if growth > 4.6 then
    Alcotest.failf "levels lines: allocation grew %.2fx for 4x the input (bound 4.6x)"
      growth

let suite =
  [
    case "parse" parse_ok;
    case "round-trip" roundtrip;
    case "errors" errors;
    case "levels is a keyword before white space" levels_keyword;
    case "semilattice completion" semilattice;
    case "levels lines parse in linear allocation" levels_linear;
  ]
