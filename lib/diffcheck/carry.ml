module Cst = Minup_constraints.Cst
module Problem = Minup_constraints.Problem
module Priorities = Minup_constraints.Priorities
module Gen = Minup_workload.Gen_constraints
module Prng = Minup_workload.Prng

type outcome = Checked of { carried : bool; edited : bool } | Differs of string

let levels = [ 0; 1; 2 ]

let policy rng =
  let spec =
    {
      Gen.n_attrs = 4 + Prng.int rng 10;
      n_simple = 3 + Prng.int rng 10;
      n_complex = Prng.int rng 4;
      max_lhs = 3;
      n_constants = Prng.int rng 3;
      constants = levels;
    }
  in
  match Prng.int rng 3 with
  | 0 -> Gen.acyclic rng spec
  | 1 -> Gen.single_scc rng spec
  | _ -> Gen.mixed rng spec ~n_islands:2 ~island_size:(2 + Prng.int rng (spec.Gen.n_attrs / 2 - 1))

let bound rng attrs = Cst.simple (Prng.pick rng attrs) (Cst.Level (Prng.pick rng levels))

(* The fields of [compute p] that [carry] must reproduce, the first that
   differs. *)
let first_difference (want : Priorities.t) (got : Priorities.t) =
  let used (t : Priorities.t) = Array.sub t.starts 0 (t.max_priority + 1) in
  List.find_map
    (fun (field, same) -> if same then None else Some field)
    [
      ("max_priority", want.max_priority = got.max_priority);
      ("priority", want.priority = got.priority);
      ("members", want.members = got.members);
      ("starts", used want = used got);
      ("finish", want.finish = got.finish);
      ("parent", want.parent = got.parent);
    ]

(* The first field in which [got] differs from [want], each compared over
   its used part: the counts, each array up to its count, and the levels
   up to the number of level rows. *)
let problem_difference (want : 'l Problem.t) (got : 'l Problem.t) =
  let used a len = Array.to_list (Array.sub a 0 len) in
  let n = want.n_attrs and m = want.store.rows in
  let csr (c : Problem.csr) = (used c.off (n + 1), used c.tgt c.off.(n)) in
  let n_levels (p : _ Problem.t) =
    let k = ref 0 in
    for ci = 0 to p.store.rows - 1 do
      if not (Problem.rhs_is_attr p.store.rhs.(ci)) then incr k
    done;
    !k
  in
  let lhs (p : _ Problem.t) =
    (used p.store.lhs.off (m + 1), used p.store.lhs.tgt p.store.lhs.off.(m))
  in
  let levels (p : _ Problem.t) = used p.store.levels (n_levels p) in
  if got.n_attrs <> n then Some "n_attrs"
  else if got.store.rows <> m then Some "rows"
  else
    List.find_map
      (fun (field, same) -> if same then None else Some field)
      [
        ("lhs", lhs want = lhs got);
        ("rhs", used want.store.rhs m = used got.store.rhs m);
        ("levels", levels want = levels got);
        ("complex_idx", used want.complex_idx m = used got.complex_idx m);
        ("n_complex", want.n_complex = got.n_complex);
        ("constr_of", csr want.constr_of = csr got.constr_of);
        ("incoming", csr want.incoming = csr got.incoming);
      ]

let batch rng =
  let attrs, csts = policy rng in
  let bounds = List.init (Prng.int rng 3) (fun _ -> bound rng attrs) in
  let old = Problem.compile_exn ~attrs (csts @ bounds) in
  let prio = Priorities.compute old in
  (* [old] again, with room, over its own name table: the problem the
     edits below are applied to in place. *)
  let index = Problem.Names.create 16 in
  List.iter (fun a -> ignore (Problem.Names.add index a)) attrs;
  let spare =
    let s = old.store in
    Problem.of_lines ~room:Problem.Spare ~attr_index:index
      {
        off = s.lhs.off;
        tgt = s.lhs.tgt;
        rhs = s.rhs;
        levels = s.levels;
        kept = Array.make s.rows true;
      }
  in
  (* The row edits, last first, and the user rows there are. *)
  let edits = ref []
  and n_users = ref (List.length (List.filter (fun c -> not (Cst.is_trivial c)) csts)) in
  let bound_rows = List.length bounds in
  let push e = edits := e :: !edits in
  let users = Array.of_list (List.map Option.some csts) in
  let added = ref [] and bounds = ref bounds and fresh = ref [] in
  let keeps = ref true in
  let all () = attrs @ List.rev !fresh in
  (* Ids as a compile over [all ()] numbers them. *)
  let ids = Hashtbl.create 32 in
  List.iteri (fun i a -> Hashtbl.replace ids a i) attrs;
  let id = Hashtbl.find ids in
  (* The edges of [c], unless trivial, checked with [verdict]. *)
  let check verdict (c : _ Cst.t) =
    match c.rhs with
    | Cst.Attr b when not (Cst.is_trivial c) ->
        List.iter
          (fun a -> if verdict prio (id a) (id b) <> Priorities.Keeps then keeps := false)
          c.lhs
    | _ -> ()
  in
  let add (c : _ Cst.t) =
    check Priorities.added c;
    added := c :: !added;
    if not (Cst.is_trivial c) then begin
      let lhs = Array.of_list (List.map id c.lhs) in
      let rhs =
        match c.rhs with Cst.Attr b -> Problem.Rattr (id b) | Cst.Level l -> Problem.Rlevel l
      in
      push (Problem.Insert { src = lhs; lo = 0; hi = Array.length lhs; rhs });
      incr n_users
    end
  in
  (* Original user constraint [i]'s row: the kept ones before it. *)
  let row_of i =
    let r = ref 0 in
    for j = 0 to i - 1 do
      match users.(j) with Some c when not (Cst.is_trivial c) -> incr r | _ -> ()
    done;
    !r
  in
  let set_bound (b : _ Cst.t) =
    bounds := !bounds @ [ b ];
    match (b.lhs, b.rhs) with
    | [ a ], Cst.Level l ->
        push (Problem.Bound (id a, l))
    | _ -> assert false
  in
  let lhs () = Prng.sample rng (1 + Prng.int rng 3) (all ()) in
  for _ = 1 to 1 + Prng.int rng 4 do
    match Prng.int rng 6 with
    | 0 -> add (Cst.make_exn ~lhs:(lhs ()) ~rhs:(Cst.Attr (Prng.pick rng (all ()))))
    | 1 -> add (Cst.make_exn ~lhs:(lhs ()) ~rhs:(Cst.Level (Prng.pick rng levels)))
    | 2 -> (
        let i = Prng.int rng (Array.length users) in
        match users.(i) with
        | Some c ->
            check Priorities.removed c;
            if not (Cst.is_trivial c) then begin
              push (Problem.Delete (row_of i));
              decr n_users
            end;
            users.(i) <- None
        | None -> ())
    | 3 -> set_bound (bound rng (all ()))
    | 4 -> (
        match !bounds with
        | [] -> ()
        | bs ->
            let k = Prng.int rng (List.length bs) in
            push (Problem.Delete (!n_users + k));
            bounds := List.filteri (fun i _ -> i <> k) bs)
    | _ ->
        let x = Printf.sprintf "N%d" (List.length !fresh) in
        Hashtbl.replace ids x (Hashtbl.length ids);
        ignore (Problem.Names.add index x);
        fresh := x :: !fresh;
        if Prng.bool rng then
          add
            (Cst.make_exn
               ~lhs:(x :: Prng.sample rng (Prng.int rng 2) attrs)
               ~rhs:(Cst.Attr (Prng.pick rng attrs)))
  done;
  let users = List.filter_map Fun.id (Array.to_list users) @ List.rev !added in
  let p = Problem.compile_exn ~attrs:(all ()) (users @ !bounds) in
  let edited =
    let edits = List.rev !edits in
    if not (Problem.fits spare edits) then Ok false
    else
      match problem_difference p (Problem.edit spare ~bounds:bound_rows edits) with
      | None -> Ok true
      | Some field -> Error ("edited problem's " ^ field)
  in
  match edited with
  | Error d -> Differs d
  | Ok edited when not !keeps -> Checked { carried = false; edited }
  | Ok edited -> (
      match first_difference (Priorities.compute p) (Priorities.carry prio p) with
      | None -> Checked { carried = true; edited }
      | Some field -> Differs ("carried " ^ field))

let sweep ~seed ~batches =
  let rng = Prng.create seed in
  let rec go i carried edited =
    if i = batches then (carried, edited, None)
    else
      match batch rng with
      | Checked c -> go (i + 1) (carried + Bool.to_int c.carried) (edited + Bool.to_int c.edited)
      | Differs field -> (carried, edited, Some (i, field))
  in
  go 0 0 0
