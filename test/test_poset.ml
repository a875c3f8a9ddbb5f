open Minup_lattice

let case = Helpers.case
let b = Poset.butterfly

let butterfly () =
  Alcotest.(check int) "cardinal" 4 (Poset.cardinal b);
  Alcotest.(check int) "height" 1 (Poset.height b);
  let e = Poset.of_name_exn b in
  Alcotest.(check bool) "c ⊑ a" true (Poset.leq b (e "c") (e "a"));
  Alcotest.(check bool) "a ⋢ b" false (Poset.leq b (e "a") (e "b"));
  Alcotest.(check (list int)) "maximal" [ e "a"; e "b" ] (Poset.maximal_elements b);
  Alcotest.(check (list int)) "minimal" [ e "c"; e "d" ] (Poset.minimal_elements b);
  Alcotest.(check (list int)) "ubs of c,d" [ e "a"; e "b" ]
    (Poset.upper_bounds b [ e "c"; e "d" ]);
  Alcotest.(check (option int)) "no lub" None (Poset.lub_opt b (e "c") (e "d"));
  Alcotest.(check bool) "not a partial lattice" false (Poset.is_partial_lattice b)

let chain_is_partial_lattice () =
  let p =
    Poset.create_exn ~names:[ "x"; "y"; "z" ] ~order:[ ("x", "y"); ("y", "z") ]
  in
  Alcotest.(check bool) "partial lattice" true (Poset.is_partial_lattice p);
  let e = Poset.of_name_exn p in
  Alcotest.(check (option int)) "lub" (Some (e "y")) (Poset.lub_opt p (e "x") (e "y"));
  Alcotest.(check (list int)) "strict below z" [ e "x"; e "y" ]
    (List.sort compare (Poset.strict_below p (e "z")))

let covers () =
  let e = Poset.of_name_exn b in
  Alcotest.(check (list int)) "covers below a" [ e "c"; e "d" ]
    (Poset.covers_below b (e "a"));
  Alcotest.(check (list int)) "covers above c" [ e "a"; e "b" ]
    (Poset.covers_above b (e "c"))

let errors () =
  (match Poset.create ~names:[] ~order:[] with
  | Error Poset.Empty -> ()
  | _ -> Alcotest.fail "accepted empty");
  (match Poset.create ~names:[ "a"; "b"; "b"; "a" ] ~order:[] with
  | Error (Poset.Duplicate_name "b") -> ()
  | _ -> Alcotest.fail "did not report the first duplicate");
  (match Poset.create ~names:[ "a" ] ~order:[ ("a", "zz") ] with
  | Error (Poset.Unknown_name "zz") -> ()
  | _ -> Alcotest.fail "accepted unknown");
  (* A pair naming two unknown elements reports its high one, and every
     pair is resolved before cycles are looked for. *)
  (match
     Poset.create ~names:[ "a"; "b" ]
       ~order:[ ("a", "b"); ("b", "a"); ("x", "y") ]
   with
  | Error (Poset.Unknown_name "y") -> ()
  | _ -> Alcotest.fail "did not report the high unknown name");
  match Poset.create ~names:[ "a"; "b" ] ~order:[ ("a", "b"); ("b", "a") ] with
  | Error Poset.Cyclic_order -> ()
  | _ -> Alcotest.fail "accepted cycle"

(* The diamond 0 < 1, 2 < 3 as order pairs, plus the redundant 0 < 3. *)
let diamond =
  Poset.create_exn ~names:[ "0"; "1"; "2"; "3" ]
    ~order:[ ("0", "1"); ("0", "2"); ("1", "3"); ("2", "3"); ("0", "3") ]

let closure () =
  let up e = List.filter (Poset.leq diamond e) (Poset.all diamond) in
  Alcotest.(check (list int)) "up 0" [ 0; 1; 2; 3 ] (up 0);
  Alcotest.(check (list int)) "up 1" [ 1; 3 ] (up 1);
  Alcotest.(check (list int)) "up 3" [ 3 ] (up 3);
  Alcotest.(check (list int)) "strict below 3" [ 0; 1; 2 ]
    (Poset.strict_below diamond 3)

let reduction () =
  Alcotest.(check (list (pair int int)))
    "diamond covers"
    [ (0, 1); (0, 2); (1, 3); (2, 3) ]
    (Poset.cover_pairs diamond);
  (* A chain given as its full closure reduces to its covers. *)
  let chain =
    Poset.create_exn ~names:[ "a"; "b"; "c" ]
      ~order:[ ("a", "b"); ("b", "c"); ("a", "c") ]
  in
  Alcotest.(check (list (pair int int)))
    "chain covers" [ (0, 1); (1, 2) ] (Poset.cover_pairs chain)

(* Kahn's order takes the smallest declared position among the ready, so
   a linear extension is kept as declared. *)
let topological () =
  Alcotest.(check (array int)) "diamond" [| 0; 1; 2; 3 |] diamond.topological;
  let antichain = Poset.create_exn ~names:[ "x"; "y"; "z" ] ~order:[] in
  Alcotest.(check (array int)) "antichain" [| 0; 1; 2 |] antichain.topological;
  let top_down =
    Poset.create_exn ~names:[ "c"; "b"; "x"; "a" ]
      ~order:[ ("a", "b"); ("b", "c") ]
  in
  Alcotest.(check (array int)) "top-down" [| 2; 3; 1; 0 |] top_down.topological

let cycles () =
  let cyclic order =
    match Poset.create ~names:[ "a"; "b"; "c"; "d" ] ~order with
    | Error Poset.Cyclic_order -> true
    | _ -> false
  in
  Alcotest.(check bool) "3-cycle" true
    (cyclic [ ("a", "b"); ("b", "c"); ("c", "a") ]);
  Alcotest.(check bool) "2-cycle above a chain" true
    (cyclic [ ("a", "b"); ("b", "c"); ("c", "d"); ("d", "c") ]);
  Alcotest.(check bool) "diamond" false
    (cyclic [ ("a", "b"); ("a", "c"); ("b", "d"); ("c", "d"); ("a", "d") ])

let height () =
  Alcotest.(check int) "diamond" 2 (Poset.height diamond);
  let names = List.init 5 string_of_int in
  let chain =
    Poset.create_exn ~names
      ~order:(List.init 4 (fun i -> (string_of_int i, string_of_int (i + 1))))
  in
  Alcotest.(check int) "5-chain" 4 (Poset.height chain);
  Alcotest.(check int) "antichain" 0
    (Poset.height (Poset.create_exn ~names ~order:[]))

(* Reflexive and repeated pairs are accepted and change nothing. *)
let reflexive_repeated () =
  let order = [ ("0", "1"); ("0", "2"); ("1", "3"); ("2", "3") ] in
  let p =
    Poset.create_exn ~names:[ "0"; "1"; "2"; "3" ]
      ~order:(("3", "3") :: order @ [ ("0", "0"); ("1", "3"); ("0", "1") ])
  in
  Alcotest.(check (list (pair int int)))
    "covers" (Poset.cover_pairs diamond) (Poset.cover_pairs p);
  Alcotest.(check int) "height" 2 (Poset.height p);
  List.iter
    (fun e ->
      Alcotest.(check (list int)) "covers below" (Poset.covers_below diamond e)
        (Poset.covers_below p e);
      Alcotest.(check (list int)) "covers above" (Poset.covers_above diamond e)
        (Poset.covers_above p e);
      Alcotest.(check (list int)) "strict below" (Poset.strict_below diamond e)
        (Poset.strict_below p e))
    (Poset.all p);
  match Poset.create ~names:[ "a" ] ~order:[ ("a", "a"); ("a", "a") ] with
  | Ok p -> Alcotest.(check int) "one reflexive element" 0 (Poset.height p)
  | Error e -> Alcotest.failf "rejected: %a" Poset.pp_error e

(* The naive closure of pairs over [n] ids, as a matrix. *)
let naive_closure n pairs =
  let m = Array.init n (fun i -> Array.init n (fun j -> i = j)) in
  List.iter (fun (a, b) -> m.(a).(b) <- true) pairs;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if m.(i).(k) && m.(k).(j) then m.(i).(j) <- true
      done
    done
  done;
  m

(* Property: over random acyclic pairs (reflexive and repeated ones mixed
   in), declared bottom-up and top-down, [leq] is the naive closure of the
   pairs; so is the closure of the covers, and no cover can be dropped;
   cover lists are ascending; the height is the longest naive chain; and
   the Kahn order is a linear extension. *)
let one_pass_prop =
  QCheck.Test.make ~count:200 ~name:"closure and covers of the pairs"
    Helpers.seed_arb
    (fun seed ->
      let rng = Minup_workload.Prng.create seed in
      let n = 1 + Minup_workload.Prng.int rng 9 in
      let pairs =
        List.init (Minup_workload.Prng.int rng 20) (fun _ ->
            let a = Minup_workload.Prng.int rng n
            and b = Minup_workload.Prng.int rng n in
            (min a b, max a b))
      in
      let want = naive_closure n pairs in
      let check names =
        let p =
          Poset.create_exn ~names
            ~order:(List.map (fun (a, b) -> (string_of_int a, string_of_int b)) pairs)
        in
        (* [id.(k)]: the element named k. *)
        let id = Array.init n (fun k -> Poset.of_name_exn p (string_of_int k)) in
        let k_of e = int_of_string (Poset.name p e) in
        let covers = List.map (fun (lo, hi) -> (k_of lo, k_of hi)) (Poset.cover_pairs p) in
        let equal m = Array.for_all2 (Array.for_all2 Bool.equal) m want in
        let rec longest k =
          List.fold_left
            (fun h j -> if j <> k && want.(k).(j) then max h (longest j + 1) else h)
            0 (List.init n Fun.id)
        in
        let ascending l = List.sort_uniq Int.compare l = l in
        let position = Array.make n 0 in
        Array.iteri (fun i e -> position.(e) <- i) p.topological;
        List.for_all
          (fun a ->
            List.for_all (fun b -> Poset.leq p id.(a) id.(b) = want.(a).(b)) (List.init n Fun.id))
          (List.init n Fun.id)
        && equal (naive_closure n covers)
        && List.for_all
             (fun c -> not (equal (naive_closure n (List.filter (( <> ) c) covers))))
             covers
        && List.for_all
             (fun e ->
               ascending (Poset.covers_below p e) && ascending (Poset.covers_above p e))
             (Poset.all p)
        && Poset.height p = List.fold_left max 0 (List.init n longest)
        && List.for_all
             (fun (lo, hi) -> position.(lo) < position.(hi))
             (Poset.cover_pairs p)
      in
      let names = List.init n string_of_int in
      check names && check (List.rev names))

(* Property: lub_opt, when defined, is a common upper bound below all
   common upper bounds — with the elements declared bottom-up, and
   top-down so that ids are not topological. *)
let lub_opt_prop =
  QCheck.Test.make ~count:100 ~name:"poset lub_opt is the least upper bound"
    Helpers.seed_arb
    (fun seed ->
      let rng = Minup_workload.Prng.create seed in
      let n = 6 in
      let names = List.init n (Printf.sprintf "e%d") in
      let order =
        List.concat
          (List.init n (fun i ->
               List.filter_map
                 (fun j ->
                   if j > i && Minup_workload.Prng.bool rng then
                     Some (Printf.sprintf "e%d" i, Printf.sprintf "e%d" j)
                   else None)
                 (List.init n Fun.id)))
      in
      let is_lub p a c =
        let ubs = Poset.upper_bounds p [ a; c ] in
        match Poset.lub_opt p a c with
        | Some l -> List.mem l ubs && List.for_all (fun u -> Poset.leq p l u) ubs
        | None ->
            (* Either no upper bound, or several minimal ones. *)
            ubs = []
            || List.length
                 (List.filter
                    (fun u -> List.for_all (fun v -> v = u || not (Poset.leq p v u)) ubs)
                    ubs)
               > 1
      in
      List.for_all
        (fun names ->
          let p = Poset.create_exn ~names ~order in
          List.for_all (fun a -> List.for_all (is_lub p a) (Poset.all p)) (Poset.all p))
        [ names; List.rev names ])

let suite =
  [
    case "butterfly (Fig. 4(b))" butterfly;
    case "chain is a partial lattice" chain_is_partial_lattice;
    case "covers" covers;
    case "creation errors" errors;
    case "transitive closure" closure;
    case "transitive reduction" reduction;
    case "topological order" topological;
    case "cycle detection" cycles;
    case "height" height;
    case "reflexive and repeated pairs" reflexive_repeated;
    Helpers.qcheck lub_opt_prop;
    Helpers.qcheck one_pass_prop;
  ]
