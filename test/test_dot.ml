open Minup_lattice

let case = Helpers.case

let contains = Helpers.contains

let explicit () =
  let dot = Dot.of_explicit Helpers.fig1b in
  Alcotest.(check bool) "digraph" true (contains ~needle:"digraph" dot);
  Alcotest.(check bool) "has L6" true (contains ~needle:"\"L6\"" dot);
  (* 7 cover edges *)
  let count =
    List.length
      (List.filter (fun l -> contains ~needle:"->" l) (String.split_on_char '\n' dot))
  in
  Alcotest.(check int) "edge lines" 7 count

let poset () =
  let dot = Dot.of_poset Poset.butterfly in
  Alcotest.(check bool) "has a" true (contains ~needle:"\"a\"" dot);
  let count =
    List.length
      (List.filter (fun l -> contains ~needle:"->" l) (String.split_on_char '\n' dot))
  in
  Alcotest.(check int) "4 cover edges" 4 count

let escaping () =
  let l = Explicit.create_exn ~names:[ "a\"b"; "top" ] ~order:[ ("a\"b", "top") ] in
  let dot = Dot.of_explicit l in
  Alcotest.(check bool) "escaped quote" true (contains ~needle:"a\\\"b" dot)

let suite = [ case "explicit export" explicit; case "poset export" poset; case "escaping" escaping ]
