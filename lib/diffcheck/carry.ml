module Cst = Minup_constraints.Cst
module Problem = Minup_constraints.Problem
module Priorities = Minup_constraints.Priorities
module Gen = Minup_workload.Gen_constraints
module Prng = Minup_workload.Prng

type outcome = Refused | Carried | Differs of string

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

let batch rng =
  let attrs, csts = policy rng in
  let bounds = List.init (Prng.int rng 3) (fun _ -> bound rng attrs) in
  let old = Problem.compile_exn ~attrs (csts @ bounds) in
  let prio = Priorities.compute old in
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
  let add c =
    check Priorities.added c;
    added := c :: !added
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
            users.(i) <- None
        | None -> ())
    | 3 -> bounds := !bounds @ [ bound rng (all ()) ]
    | 4 -> (
        match !bounds with
        | [] -> ()
        | bs ->
            let k = Prng.int rng (List.length bs) in
            bounds := List.filteri (fun i _ -> i <> k) bs)
    | _ ->
        let x = Printf.sprintf "N%d" (List.length !fresh) in
        Hashtbl.replace ids x (Hashtbl.length ids);
        fresh := x :: !fresh;
        if Prng.bool rng then
          add
            (Cst.make_exn
               ~lhs:(x :: Prng.sample rng (Prng.int rng 2) attrs)
               ~rhs:(Cst.Attr (Prng.pick rng attrs)))
  done;
  if not !keeps then Refused
  else
    let users = List.filter_map Fun.id (Array.to_list users) @ List.rev !added in
    let p = Problem.compile_exn ~attrs:(all ()) (users @ !bounds) in
    match first_difference (Priorities.compute p) (Priorities.carry prio p) with
    | None -> Carried
    | Some field -> Differs field

let sweep ~seed ~batches =
  let rng = Prng.create seed in
  let rec go i carried =
    if i = batches then (carried, None)
    else
      match batch rng with
      | Refused -> go (i + 1) carried
      | Carried -> go (i + 1) (carried + 1)
      | Differs field -> (carried, Some (i, field))
  in
  go 0 0
