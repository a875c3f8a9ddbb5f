module Cst = Minup_constraints.Cst
module Problem = Minup_constraints.Problem

let case = Helpers.case

let csts =
  [
    Cst.simple "a" (Cst.Level 1);
    Cst.make_exn ~lhs:[ "a"; "b" ] ~rhs:(Cst.Attr "c");
    Cst.simple "c" (Cst.Attr "d");
  ]

let interning () =
  let p = Problem.compile_exn csts in
  Alcotest.(check int) "4 attrs" 4 (Problem.n_attrs p);
  Alcotest.(check int) "3 csts" 3 (Problem.n_csts p);
  (* First-mention order: a, b, c, d. *)
  Alcotest.(check string) "attr 0" "a" (Problem.attr_name p 0);
  Alcotest.(check string) "attr 3" "d" (Problem.attr_name p 3);
  Alcotest.(check (option int)) "id of c" (Some 2) (Problem.attr_id p "c");
  Alcotest.(check (option int)) "unknown" None (Problem.attr_id p "zz")

let declared_order () =
  let p = Problem.compile_exn ~attrs:[ "z"; "a" ] csts in
  Alcotest.(check string) "declared first" "z" (Problem.attr_name p 0);
  Alcotest.(check string) "then a" "a" (Problem.attr_name p 1);
  Alcotest.(check int) "5 attrs" 5 (Problem.n_attrs p)

let strict_mode () =
  match Problem.compile ~attrs:[ "a" ] ~strict:true csts with
  | Error (Problem.Undeclared_attr _) -> ()
  | _ -> Alcotest.fail "strict mode accepted undeclared attribute"

let indexes () =
  let p = Problem.compile_exn csts in
  let a = Option.get (Problem.attr_id p "a") in
  let c = Option.get (Problem.attr_id p "c") in
  let row iter a =
    let acc = ref [] in
    iter p a (fun ci -> acc := ci :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "Constr[a]" [ 0; 1 ] (row Problem.iter_constr_of a);
  Alcotest.(check (list int)) "Constr[c]" [ 2 ] (row Problem.iter_constr_of c);
  Alcotest.(check (list int)) "incoming c" [ 1 ] (row Problem.iter_incoming c);
  (* lhs arrays are sorted *)
  Array.iter
    (fun (cst : _ Problem.cst) ->
      let l = Array.to_list cst.lhs in
      Alcotest.(check (list int)) "sorted" (List.sort compare l) l)
    p.Problem.csts

let trivial_dropped () =
  let p =
    Problem.compile_exn
      [ Cst.make_exn ~lhs:[ "a"; "b" ] ~rhs:(Cst.Attr "a"); Cst.simple "c" (Cst.Level 0) ]
  in
  Alcotest.(check int) "1 kept" 1 (Problem.n_csts p);
  Alcotest.(check int) "1 dropped" 1 (List.length p.Problem.dropped);
  (* Attributes of the dropped constraint still exist. *)
  Alcotest.(check bool) "a interned" true (Problem.attr_id p "a" <> None);
  Alcotest.(check bool) "b interned" true (Problem.attr_id p "b" <> None)

let total_size () =
  let p = Problem.compile_exn csts in
  (* S = (1+1) + (2+1) + (1+1) = 7 *)
  Alcotest.(check int) "S" 7 (Problem.total_size p)

let acyclicity () =
  Alcotest.(check bool) "dag" true (Problem.is_acyclic (Problem.compile_exn csts));
  let cyc =
    Problem.compile_exn [ Cst.simple "a" (Cst.Attr "b"); Cst.simple "b" (Cst.Attr "a") ]
  in
  Alcotest.(check bool) "cycle" false (Problem.is_acyclic cyc);
  (* Cycle through a hypernode. *)
  let hyper =
    Problem.compile_exn
      [
        Cst.make_exn ~lhs:[ "a"; "x" ] ~rhs:(Cst.Attr "b");
        Cst.simple "b" (Cst.Attr "a");
      ]
  in
  Alcotest.(check bool) "hypernode cycle" false (Problem.is_acyclic hyper)

let satisfies () =
  let p = Problem.compile_exn csts in
  let leq (a : int) b = a <= b and lub = max and bottom = 0 in
  let get names v a = List.assoc (Problem.attr_name names a) v in
  (* a=1, b=0, c=0, d=0 satisfies everything. *)
  Alcotest.(check bool) "sat" true
    (Problem.satisfies ~leq ~lub ~bottom p
       (get p [ ("a", 1); ("b", 0); ("c", 0); ("d", 0) ]));
  (* c below d violates the last constraint. *)
  Alcotest.(check bool) "unsat" false
    (Problem.satisfies ~leq ~lub ~bottom p
       (get p [ ("a", 1); ("b", 9); ("c", 0); ("d", 5) ]));
  (* complex: lub(a,b) must reach c *)
  Alcotest.(check bool) "complex sat" true
    (Problem.satisfies ~leq ~lub ~bottom p
       (get p [ ("a", 1); ("b", 7); ("c", 7); ("d", 2) ]))

let roundtrip () =
  let p = Problem.compile_exn csts in
  let back = Array.to_list (Array.map (Problem.cst_to_source p) p.Problem.csts) in
  Alcotest.(check int) "same count" (List.length csts) (List.length back);
  List.iter2
    (fun (orig : _ Cst.t) (recon : _ Cst.t) ->
      Alcotest.(check (list string))
        "lhs" (List.sort compare orig.lhs) (List.sort compare recon.lhs))
    csts back

let suite =
  [
    case "attribute interning" interning;
    case "declared order wins" declared_order;
    case "strict mode" strict_mode;
    case "constraint indexes" indexes;
    case "trivial constraints dropped" trivial_dropped;
    case "total size S" total_size;
    case "acyclicity" acyclicity;
    case "satisfaction" satisfies;
    case "source round-trip" roundtrip;
  ]
