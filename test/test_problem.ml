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
  for ci = 0 to Problem.n_csts p - 1 do
    let l = Array.to_list (Problem.lhs p ci) in
    Alcotest.(check (list int)) "sorted" (List.sort compare l) l
  done

let trivial_dropped () =
  let p =
    Problem.compile_exn
      [ Cst.make_exn ~lhs:[ "a"; "b" ] ~rhs:(Cst.Attr "a"); Cst.simple "c" (Cst.Level 0) ]
  in
  Alcotest.(check int) "1 kept" 1 (Problem.n_csts p);
  Alcotest.(check bool) "c >= 0 kept" true
    (Problem.lhs p 0 = [| Problem.attr_id_exn p "c" |] && Problem.rhs p 0 = Problem.Rlevel 0);
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
  let back = List.init (Problem.n_csts p) (Problem.cst_to_source p) in
  Alcotest.(check int) "same count" (List.length csts) (List.length back);
  List.iter2
    (fun (orig : _ Cst.t) (recon : _ Cst.t) ->
      Alcotest.(check (list string))
        "lhs" (List.sort compare orig.lhs) (List.sort compare recon.lhs))
    csts back

(* The store against the constraints it was compiled from, on random
   and mutated policies: 1 500 [Test_parse.oracle_policy] seeds, of
   which about 500 resolve:
   - row [ci] holds the sorted, interned lhs and the rhs of the [ci]-th
     kept constraint, and the level right-hand sides are numbered in
     constraint order;
   - [constr_of] and [incoming] are exactly the transposes of the
     store;
   - [set_rlevel] on a level row changes that row's level and nothing
     else;
   - [cst_to_source] round-trips: compiling its constraints again gives
     an equal store. *)
let store_matches_source =
  let module C = Minup_lattice.Compartment in
  let lat = C.fig1a in
  let rows p = List.init (Problem.n_csts p) Fun.id in
  let csr_row (c : Problem.csr) a = Array.to_list (Array.sub c.tgt c.off.(a) (c.off.(a + 1) - c.off.(a))) in
  let check p (kept : _ Cst.t list) =
    let id = Problem.attr_id_exn p and st = p.Problem.store in
    let { Problem.off; tgt } = st.Problem.lhs in
    let n = Problem.n_attrs p and m = Problem.n_csts p in
    let level_rows = List.filter (fun ci -> not (Problem.rhs_is_attr st.Problem.rhs.(ci))) (rows p) in
    let same_row ci (c : _ Cst.t) =
      Problem.lhs p ci = Array.of_list (List.sort compare (List.map id c.lhs))
      && Problem.rhs p ci
         = match c.rhs with Cst.Level l -> Problem.Rlevel l | Cst.Attr a -> Problem.Rattr (id a)
    in
    let transpose pick =
      List.init n (fun a -> List.filter_map (fun ci -> if pick ci a then Some ci else None) (rows p))
    in
    let complex = List.filter (fun ci -> Problem.lhs_size p ci > 1) (rows p) in
    let dense ci = List.length (List.filter (fun cj -> cj < ci) complex) in
    let mem a ci = Array.mem a (Problem.lhs p ci) in
    let copy () = (Array.copy st.Problem.rhs, Array.copy st.Problem.levels, Array.copy tgt) in
    off.(0) = 0
    && Array.length off = m + 1
    && off.(m) = Array.length tgt
    && List.length kept = m
    && List.for_all2 same_row (rows p) kept
    && List.mapi (fun j ci -> st.Problem.rhs.(ci) = Problem.level_code j) level_rows |> List.for_all Fun.id
    && Array.length st.Problem.levels = List.length level_rows
    && List.for_all (fun ci -> p.Problem.complex_idx.(ci) = if List.mem ci complex then dense ci else -1) (rows p)
    && p.Problem.n_complex = List.length complex
    && List.init n (csr_row p.Problem.constr_of) = transpose (fun ci a -> mem a ci)
    && List.init n (csr_row p.Problem.incoming)
       = transpose (fun ci a -> Problem.rhs p ci = Problem.Rattr a)
    && List.for_all
         (fun ci ->
           let old = Problem.rhs p ci and before = copy () in
           let l = if Problem.rhs p ci = Problem.Rlevel (C.top lat) then C.bottom lat else C.top lat in
           Problem.set_rlevel p ci l;
           let rhs', levels', tgt' = copy () and rhs0, levels0, tgt0 = before in
           let ok =
             Problem.rhs p ci = Problem.Rlevel l
             && rhs' = rhs0 && tgt' = tgt0
             && List.for_all (fun j -> j = Problem.rhs_level_index rhs0.(ci) || levels'.(j) = levels0.(j))
                  (List.init (Array.length levels0) Fun.id)
           in
           (match old with Problem.Rlevel l0 -> Problem.set_rlevel p ci l0 | Problem.Rattr _ -> ());
           ok)
         level_rows
    && (Problem.compile_exn ~attrs:(List.init n (Problem.attr_name p))
          (List.map (Problem.cst_to_source p) (rows p))).Problem.store
       = st
  in
  QCheck.Test.make ~count:1500 ~name:"the store is the compiled constraints"
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "%d: %S" seed (Test_parse.oracle_policy seed))
       (QCheck.get_gen Helpers.seed_arb))
    (fun seed ->
      match
        Minup_constraints.Parse.parse_resolve ~level_of_string:(C.level_of_string lat)
          (Test_parse.oracle_policy seed)
      with
      | Error _ -> true
      | Ok pr ->
          let p = Problem.compile_exn ~attrs:pr.attrs pr.csts in
          check p (List.filter (fun c -> not (Cst.is_trivial c)) pr.csts))

(* A problem rebuilt in another one's arrays ([Reuse]) is the problem a
   fresh build makes: the policy of seed [s] copied row by row into the
   arrays of seed [s + 1]'s problem — which they may outgrow — has the
   same rows, right-hand sides and indexes as its compile.  The reused
   arrays hold the other policy's rows beyond and between, so a build
   that left any entry unwritten would show it. *)
let reuse_matches_fresh =
  let module C = Minup_lattice.Compartment in
  let lat = C.fig1a in
  let compile seed =
    match
      Minup_constraints.Parse.parse_resolve ~level_of_string:(C.level_of_string lat)
        (Test_parse.oracle_policy seed)
    with
    | Error _ -> None
    | Ok pr -> Some (Problem.compile_exn ~attrs:pr.attrs pr.csts)
  in
  let copy ~room p =
    let m = Problem.n_csts p in
    let rhs = Array.make m 0 and levels = ref [] in
    for ci = 0 to m - 1 do
      rhs.(ci) <-
        (match Problem.rhs p ci with
        | Problem.Rattr a -> a
        | Problem.Rlevel l ->
            levels := l :: !levels;
            Problem.level_code (List.length !levels - 1))
    done;
    let off = Array.make (m + 1) 0 in
    for ci = 0 to m - 1 do
      off.(ci + 1) <- off.(ci) + Problem.lhs_size p ci
    done;
    Problem.of_lines ~room ~attr_index:p.Problem.attr_index
      {
        Problem.off;
        tgt = Array.concat (List.init m (Problem.lhs p));
        rhs;
        levels = Array.of_list (List.rev !levels);
        kept = Array.make m true;
      }
  in
  let same p q =
    let m = Problem.n_csts p and n = Problem.n_attrs p in
    let row f a = List.rev (let acc = ref [] in f a (fun x -> acc := x :: !acc); !acc) in
    Problem.n_csts q = m
    && Problem.total_size q = Problem.total_size p
    && List.for_all
         (fun ci ->
           Problem.lhs q ci = Problem.lhs p ci
           && Problem.rhs q ci = Problem.rhs p ci
           && q.Problem.complex_idx.(ci) = p.Problem.complex_idx.(ci))
         (List.init m Fun.id)
    && q.Problem.n_complex = p.Problem.n_complex
    && List.for_all
         (fun a ->
           row (Problem.iter_constr_of q) a = row (Problem.iter_constr_of p) a
           && row (Problem.iter_incoming q) a = row (Problem.iter_incoming p) a)
         (List.init n Fun.id)
  in
  QCheck.Test.make ~count:300 ~name:"a problem rebuilt in reused arrays = a fresh one"
    (QCheck.make ~print:string_of_int (QCheck.get_gen Helpers.seed_arb))
    (fun seed ->
      match (compile seed, compile (seed + 1)) with
      | Some p, Some other ->
          let host = copy ~room:Problem.Spare other in
          same p (copy ~room:(Problem.Reuse host) p)
      | _ -> true)

(* The one-pass index against a reference read off the store with
   lists: on random lines over [n] attributes (simple and complex rows,
   level and attribute right-hand sides, attributes no row mentions,
   lines left out), [complex_idx], [n_complex] and the two indexes of
   [of_lines] are what the store's rows say, and the store holds the
   kept lines, each sorted.  Checked under [Exact], [Spare], and [Reuse]
   of a larger problem built first, whose stale entries past the new
   rows must not show. *)
let index_matches_reference =
  let lines rng ~n ~m =
    let off = Array.make (m + 1) 0 and tgt = Array.make (4 * m) 0 in
    let rhs = Array.make m 0 and kept = Array.make m true and n_levels = ref 0 in
    for i = 0 to m - 1 do
      let k = 1 + Random.State.int rng (min 4 n) in
      let s = off.(i) in
      let rec fresh () =
        let a = Random.State.int rng n in
        if Array.exists (( = ) a) (Array.sub tgt s (off.(i + 1) - s)) then fresh () else a
      in
      off.(i + 1) <- s;
      for j = 0 to k - 1 do
        tgt.(s + j) <- fresh ();
        off.(i + 1) <- s + j + 1
      done;
      rhs.(i) <-
        (if Random.State.bool rng then Random.State.int rng n
         else begin
           incr n_levels;
           Problem.level_code (!n_levels - 1)
         end);
      kept.(i) <-
        Random.State.int rng 6 > 0
        && not (rhs.(i) >= 0 && Array.mem rhs.(i) (Array.sub tgt s k))
    done;
    let attr_index = Problem.Names.create n in
    for a = 0 to n - 1 do
      ignore (Problem.Names.add attr_index (Printf.sprintf "x%d" a))
    done;
    ( attr_index,
      { Problem.off; tgt; rhs; levels = Array.init !n_levels (fun j -> j mod 7); kept } )
  in
  let row (c : Problem.csr) a =
    Array.to_list (Array.sub c.tgt c.off.(a) (c.off.(a + 1) - c.off.(a)))
  in
  let matches (p : int Problem.t) (l : int Problem.lines) =
    let n = Problem.n_attrs p and m = Problem.n_csts p in
    let rows = List.init m Fun.id and attrs = List.init n Fun.id in
    let complex = List.filter (fun ci -> Problem.lhs_size p ci > 1) rows in
    let dense ci =
      let rec at k = function
        | [] -> -1
        | c :: rest -> if c = ci then k else at (k + 1) rest
      in
      at 0 complex
    in
    let has a ci = Array.mem a (Problem.lhs p ci) in
    let kept = List.filter (fun i -> l.kept.(i)) (List.init (Array.length l.kept) Fun.id) in
    List.length kept = m
    && List.for_all2
         (fun i ci ->
           let w = Array.sub l.tgt l.off.(i) (l.off.(i + 1) - l.off.(i)) in
           Array.sort compare w;
           Problem.lhs p ci = w
           && Problem.rhs p ci
              = if l.rhs.(i) >= 0 then Problem.Rattr l.rhs.(i)
                else Problem.Rlevel l.levels.(Problem.rhs_level_index l.rhs.(i)))
         kept rows
    && List.for_all (fun ci -> p.complex_idx.(ci) = dense ci) rows
    && p.n_complex = List.length complex
    && p.constr_of.off.(0) = 0
    && p.incoming.off.(0) = 0
    && List.for_all
         (fun a ->
           row p.constr_of a = List.filter (has a) rows
           && row p.incoming a = List.filter (fun ci -> Problem.rhs p ci = Problem.Rattr a) rows)
         attrs
  in
  QCheck.Test.make ~count:300 ~name:"the one-pass index = a reference off the store"
    (QCheck.make ~print:string_of_int (QCheck.get_gen Helpers.seed_arb))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 1 + Random.State.int rng 12 in
      let m = Random.State.int rng 20 in
      let attr_index, l = lines rng ~n ~m in
      let build room = Problem.of_lines ~room ~attr_index l in
      let host =
        let index, big = lines rng ~n:(n + 8) ~m:(m + 20) in
        Problem.of_lines ~room:Problem.Spare ~attr_index:index big
      in
      matches (build Problem.Exact) l
      && matches (build Problem.Spare) l
      && matches (build (Problem.Reuse host)) l)

(* The in-place editor against [of_lines]: random lines over a few
   attributes (simple and complex rows, level and attribute right-hand
   sides, lhs ids in any order) with bound rows after them, built with
   [Spare] room; a random batch of edits — user rows inserted before the
   bound rows, bound rows appended, rows of either kind deleted, new
   attributes — applied in place equals [of_lines] over the edited lines
   in every field ({!Minup_diffcheck.Carry.problem_difference}).  A
   batch the arrays have no room for is not applied. *)
let edit_matches_of_lines =
  let module Prng = Minup_workload.Prng in
  let build index users bounds room =
    let k = List.length users in
    let off = Array.make (k + 1) 0 and rhs = Array.make k 0 and levels = ref [] in
    List.iteri
      (fun i (lhs, r) ->
        off.(i + 1) <- off.(i) + List.length lhs;
        rhs.(i) <-
          (match r with
          | Problem.Rattr b -> b
          | Problem.Rlevel l ->
              levels := l :: !levels;
              Problem.level_code (List.length !levels - 1)))
      users;
    Problem.of_lines ~room ~attr_index:index
      ~bounds:(fun f -> List.iter (fun (a, l) -> f a l) bounds)
      {
        Problem.off;
        tgt = Array.of_list (List.concat_map fst users);
        rhs;
        levels = Array.of_list (List.rev !levels);
        kept = Array.make k true;
      }
  in
  QCheck.Test.make ~count:2000 ~name:"a problem edited in place = of_lines of the edited lines"
    (QCheck.make ~print:string_of_int (QCheck.get_gen Helpers.seed_arb))
    (fun seed ->
      let rng = Prng.create seed in
      let index = Problem.Names.create 8 in
      let fresh () =
        ignore (Problem.Names.add index (Printf.sprintf "a%d" (Problem.Names.length index)))
      in
      for _ = 1 to 2 + Prng.int rng 8 do
        fresh ()
      done;
      let ids () = List.init (Problem.Names.length index) Fun.id in
      let row () =
        let lhs = Prng.sample rng (1 + Prng.int rng 3) (ids ()) in
        let rest = List.filter (fun a -> not (List.mem a lhs)) (ids ()) in
        if rest <> [] && Prng.bool rng then (lhs, Problem.Rattr (Prng.pick rng rest))
        else (lhs, Problem.Rlevel (Prng.int rng 5))
      in
      let bound () = (Prng.pick rng (ids ()), Prng.int rng 5) in
      let users = ref (List.init (Prng.int rng 12) (fun _ -> row ())) in
      let bounds = ref (List.init (Prng.int rng 4) (fun _ -> bound ())) in
      let p = build index !users !bounds Problem.Spare in
      let n_bounds = List.length !bounds in
      let edits = ref [] in
      for _ = 1 to 1 + Prng.int rng 5 do
        let nu = List.length !users and nb = List.length !bounds in
        match Prng.int rng 4 with
        | 0 ->
            let (lhs, rhs) as r = row () in
            let src = Array.of_list lhs in
            edits := Problem.Insert { src; lo = 0; hi = Array.length src; rhs } :: !edits;
            users := !users @ [ r ]
        | 1 ->
            let a, l = bound () in
            edits := Problem.Bound (a, l) :: !edits;
            bounds := !bounds @ [ (a, l) ]
        | 2 when nu + nb > 0 ->
            let r = Prng.int rng (nu + nb) in
            edits := Problem.Delete r :: !edits;
            if r < nu then users := List.filteri (fun i _ -> i <> r) !users
            else bounds := List.filteri (fun i _ -> i <> r - nu) !bounds
        | _ -> fresh ()
      done;
      let edits = List.rev !edits in
      (not (Problem.fits p edits))
      ||
      let want = build index !users !bounds Problem.Exact in
      let got = Problem.edit p ~bounds:n_bounds edits in
      match Minup_diffcheck.Carry.problem_difference want got with
      | None -> true
      | Some field -> QCheck.Test.fail_reportf "the edited problem's %s differs" field)

let suite =
  [
    case "attribute interning" interning;
    case "declared order wins" declared_order;
    case "constraint indexes" indexes;
    case "trivial constraints dropped" trivial_dropped;
    case "total size S" total_size;
    case "acyclicity" acyclicity;
    case "satisfaction" satisfies;
    case "source round-trip" roundtrip;
    Helpers.qcheck store_matches_source;
    Helpers.qcheck reuse_matches_fresh;
    Helpers.qcheck index_matches_reference;
    Helpers.qcheck edit_matches_of_lines;
  ]
