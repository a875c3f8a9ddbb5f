open Minup_lattice

let case = Helpers.case
let fig1b = Helpers.fig1b
let lvl = Helpers.lvl

let fig1b_structure () =
  Alcotest.(check int) "cardinal" 6 (Explicit.cardinal fig1b);
  Alcotest.(check int) "height" 3 (Explicit.height fig1b);
  let lt = Helpers.level_t fig1b in
  Alcotest.check lt "bottom" (lvl "L1") (Explicit.bottom fig1b);
  Alcotest.check lt "top" (lvl "L6") (Explicit.top fig1b);
  Alcotest.check lt "lub L2 L3" (lvl "L4") (Explicit.lub fig1b (lvl "L2") (lvl "L3"));
  Alcotest.check lt "lub L2 L5" (lvl "L6") (Explicit.lub fig1b (lvl "L2") (lvl "L5"));
  Alcotest.check lt "glb L4 L5" (lvl "L3") (Explicit.glb fig1b (lvl "L4") (lvl "L5"));
  Alcotest.check lt "glb L2 L3" (lvl "L1") (Explicit.glb fig1b (lvl "L2") (lvl "L3"));
  Alcotest.(check bool) "L1 ⊑ L5" true (Explicit.leq fig1b (lvl "L1") (lvl "L5"));
  Alcotest.(check bool) "L2 ⊑ L5" false (Explicit.leq fig1b (lvl "L2") (lvl "L5"));
  Alcotest.(check (list string)) "covers below L6" [ "L4"; "L5" ]
    (List.map (Explicit.name fig1b) (Explicit.covers_below fig1b (lvl "L6")));
  Alcotest.(check (list string)) "covers below L4" [ "L2"; "L3" ]
    (List.map (Explicit.name fig1b) (Explicit.covers_below fig1b (lvl "L4")));
  Alcotest.(check (list string)) "covers below L1" []
    (List.map (Explicit.name fig1b) (Explicit.covers_below fig1b (lvl "L1")))

let laws () =
  let module Laws = Check.Laws (Explicit) in
  (match Laws.check fig1b with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  match Laws.check (Explicit.chain [ "a"; "b"; "c"; "d" ]) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let rejects_non_lattice () =
  (* Two maximal elements: no lub for the two middles. *)
  let r =
    Explicit.create
      ~names:[ "bot"; "x"; "y"; "t1"; "t2" ]
      ~order:[ ("bot", "x"); ("bot", "y"); ("x", "t1"); ("y", "t1"); ("x", "t2"); ("y", "t2") ]
  in
  (match r with
  | Error (Explicit.No_least_upper_bound ("x", "y", "t1", "t2")) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Explicit.pp_error e
  | Ok _ -> Alcotest.fail "accepted a non-lattice");
  (* No common upper bound at all. *)
  (match
     Explicit.create ~names:[ "a"; "b"; "c" ] ~order:[ ("a", "b"); ("a", "c") ]
   with
  | Error (Explicit.No_upper_bound _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Explicit.pp_error e
  | Ok _ -> Alcotest.fail "accepted a non-lattice");
  (* The dual, through the same least-bound search: no common lower bound. *)
  match
    Explicit.create ~names:[ "a"; "b"; "t" ] ~order:[ ("a", "t"); ("b", "t") ]
  with
  | Error (Explicit.No_lower_bound ("a", "b")) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Explicit.pp_error e
  | Ok _ -> Alcotest.fail "accepted a non-lattice"

let rejects_bad_input () =
  (match Explicit.create ~names:[] ~order:[] with
  | Error Explicit.Empty -> ()
  | _ -> Alcotest.fail "accepted empty");
  (match Explicit.create ~names:[ "a"; "a" ] ~order:[] with
  | Error (Explicit.Duplicate_name "a") -> ()
  | _ -> Alcotest.fail "accepted duplicate");
  (match Explicit.create ~names:[ "a" ] ~order:[ ("a", "zz") ] with
  | Error (Explicit.Unknown_name "zz") -> ()
  | _ -> Alcotest.fail "accepted unknown name");
  match
    Explicit.create ~names:[ "a"; "b" ] ~order:[ ("a", "b"); ("b", "a") ]
  with
  | Error Explicit.Cyclic_order -> ()
  | _ -> Alcotest.fail "accepted cycle"

let reflexive_pairs_ok () =
  let l = Explicit.create_exn ~names:[ "a"; "b" ] ~order:[ ("a", "a"); ("a", "b") ] in
  Alcotest.(check int) "cardinal" 2 (Explicit.cardinal l)

let names_roundtrip () =
  List.iter
    (fun l ->
      let s = Explicit.level_to_string fig1b l in
      Alcotest.(check (option (Helpers.level_t fig1b)))
        ("roundtrip " ^ s) (Some l)
        (Explicit.level_of_string fig1b s))
    (Explicit.all fig1b);
  Alcotest.(check (option (Helpers.level_t fig1b))) "unknown" None
    (Explicit.of_name fig1b "nope")

let cover_pairs () =
  let pairs = Explicit.cover_pairs fig1b in
  Alcotest.(check int) "7 covers" 7 (List.length pairs);
  let named =
    List.map (fun (a, b) -> (Explicit.name fig1b a, Explicit.name fig1b b)) pairs
  in
  Alcotest.(check bool) "L3-L5 present" true (List.mem ("L3", "L5") named);
  Alcotest.(check bool) "no transitive L1-L4" false (List.mem ("L1", "L4") named)

(* Fig. 1(b) declared top-down is renumbered topologically, smallest
   declared position first among the ready levels, and is the same lattice
   as the bottom-up declaration when compared by name. *)
let top_down_declaration () =
  let lat =
    Explicit.create_exn
      ~names:[ "L6"; "L5"; "L4"; "L3"; "L2"; "L1" ]
      ~order:(List.map (fun (lo, hi) -> (Explicit.name fig1b lo, Explicit.name fig1b hi))
                (Explicit.cover_pairs fig1b))
  in
  Alcotest.(check (list string)) "topological numbering"
    [ "L1"; "L3"; "L5"; "L2"; "L4"; "L6" ]
    (List.map (Explicit.name lat) (Explicit.all lat));
  let names l ls = List.sort compare (List.map (Explicit.name l) ls) in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let a' = Explicit.of_name_exn lat a and b' = Explicit.of_name_exn lat b in
          let pair = a ^ " " ^ b in
          Alcotest.(check bool) ("leq " ^ pair) (Explicit.leq fig1b (lvl a) (lvl b))
            (Explicit.leq lat a' b');
          Alcotest.(check string) ("lub " ^ pair)
            (Explicit.name fig1b (Explicit.lub fig1b (lvl a) (lvl b)))
            (Explicit.name lat (Explicit.lub lat a' b'));
          Alcotest.(check string) ("glb " ^ pair)
            (Explicit.name fig1b (Explicit.glb fig1b (lvl a) (lvl b)))
            (Explicit.name lat (Explicit.glb lat a' b')))
        (names fig1b (Explicit.all fig1b));
      Alcotest.(check (list string)) ("covers below " ^ a)
        (names fig1b (Explicit.covers_below fig1b (lvl a)))
        (names lat (Explicit.covers_below lat (Explicit.of_name_exn lat a))))
    (names fig1b (Explicit.all fig1b))

let singleton () =
  let l = Explicit.create_exn ~names:[ "only" ] ~order:[] in
  let lt = Helpers.level_t l in
  Alcotest.check lt "top=bottom" (Explicit.top l) (Explicit.bottom l);
  Alcotest.(check int) "height" 0 (Explicit.height l)

(* Property: on random closure lattices, lub/glb agree with a brute-force
   computation from the order alone. *)
let lub_brute_prop =
  QCheck.Test.make ~count:60 ~name:"explicit lub/glb = brute force from order"
    Helpers.seed_arb
    (fun seed ->
      let rng = Minup_workload.Prng.create seed in
      let lat =
        Minup_workload.Gen_lattice.random_closure_exn rng ~universe:5
          ~n_generators:4 ~max_size:24
      in
      let all = Explicit.all lat in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              let ubs =
                List.filter (fun c -> Explicit.leq lat a c && Explicit.leq lat b c) all
              in
              let least =
                List.find (fun c -> List.for_all (Explicit.leq lat c) ubs) ubs
              in
              Explicit.lub lat a b = least)
            all)
        all)

(* Above [table_threshold] (600) lub/glb run table-less through the
   direct-mapped memo; a 700-level chain exercises that path, querying each
   pair twice so the second lookup is served from the memo. *)
let tableless_memo () =
  let n = 700 in
  let names = List.init n (Printf.sprintf "c%d") in
  let lat = Explicit.chain names in
  let lt = Helpers.level_t lat in
  let pairs =
    [ (0, 0); (0, 699); (699, 0); (123, 456); (456, 123); (456, 457); (698, 699) ]
  in
  for _pass = 1 to 2 do
    List.iter
      (fun (a, b) ->
        Alcotest.check lt
          (Printf.sprintf "lub %d %d" a b)
          (max a b) (Explicit.lub lat a b);
        Alcotest.check lt
          (Printf.sprintf "glb %d %d" a b)
          (min a b) (Explicit.glb lat a b))
      pairs
  done;
  (* Distinct queries colliding on the same memo slot (keys ≡ mod 4096:
     0·700+596 = 596 and 6·700+492 = 4692 = 596 + 4096) must still be
     answered correctly — collisions evict, never corrupt. *)
  let check (a, b) =
    Alcotest.check lt
      (Printf.sprintf "collision lub %d %d" a b)
      (max a b) (Explicit.lub lat a b)
  in
  check (0, 596); check (6, 492); check (0, 596); check (6, 492)

(* Above [table_threshold] the lub/glb tables are not kept, and [create]
   must not build them just to validate: the words it allocates in the
   major heap (direct allocations plus promotions) stay well under n². *)
let tableless_create_no_table () =
  let n = 700 in
  let names = List.init n (Printf.sprintf "c%d") in
  Gc.minor ();
  let major () =
    let _, _, major = Gc.counters () in
    major
  in
  let w0 = major () in
  ignore (Sys.opaque_identity (Explicit.chain names));
  let w = major () -. w0 in
  let bound = float_of_int (n * n) /. 2. in
  if w > bound then
    Alcotest.failf "creating a %d-level chain allocated %.0f major words (bound %.0f)" n w
      bound

let suite =
  [
    case "Fig. 1(b) structure" fig1b_structure;
    case "table-less lub/glb memo (700-level chain)" tableless_memo;
    case "table-less create builds no n² table" tableless_create_no_table;
    case "lattice laws" laws;
    case "rejects non-lattices" rejects_non_lattice;
    case "rejects malformed input" rejects_bad_input;
    case "reflexive pairs tolerated" reflexive_pairs_ok;
    case "name round-trips" names_roundtrip;
    case "cover pairs" cover_pairs;
    case "top-down declaration is renumbered" top_down_declaration;
    case "singleton lattice" singleton;
    Helpers.qcheck lub_brute_prop;
  ]
