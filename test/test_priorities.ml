module Cst = Minup_constraints.Cst
module Problem = Minup_constraints.Problem
module Priorities = Minup_constraints.Priorities
module Scc = Minup_constraints.Scc

let case = Helpers.case

let fig2_problem () =
  Problem.compile_exn ~attrs:Minup_core.Paper.fig2_attrs
    Minup_core.Paper.fig2_constraints

let paper_priorities () =
  let p = fig2_problem () in
  let prio = Priorities.compute p in
  Alcotest.(check int) "max priority" 4 prio.Priorities.max_priority;
  let set i =
    List.sort compare
      (Array.to_list (Array.map (Problem.attr_name p) (Priorities.set prio (i + 1))))
  in
  List.iteri
    (fun i expected ->
      Alcotest.(check (list string))
        (Printf.sprintf "priority[%d]" (i + 1))
        (List.sort compare expected) (set i))
    Minup_core.Paper.fig2_expected_priorities

let cycle_detection () =
  let p = fig2_problem () in
  let prio = Priorities.compute p in
  (* An attribute is on a cycle iff its priority set has another member
     (Fig. 2 has no self-loop). *)
  let in_cycle a =
    let pr = prio.Priorities.priority.(Option.get (Problem.attr_id p a)) in
    Priorities.size prio pr > 1
  in
  List.iter
    (fun a -> Alcotest.(check bool) (a ^ " in cycle") true (in_cycle a))
    [ "B"; "C"; "E"; "F"; "G"; "M"; "I"; "O"; "N" ];
  List.iter
    (fun a -> Alcotest.(check bool) (a ^ " not in cycle") false (in_cycle a))
    [ "P"; "D" ]

let self_loop_via_hypernode () =
  (* lub{a,b} ⊒ a is trivial and dropped, but a → b → a through a
     hypernode is a real cycle. *)
  let p =
    Problem.compile_exn
      [
        Cst.make_exn ~lhs:[ "a"; "c" ] ~rhs:(Cst.Attr "b");
        Cst.simple "b" (Cst.Attr "a");
      ]
  in
  let prio = Priorities.compute p in
  let id x = Option.get (Problem.attr_id p x) in
  Alcotest.(check int) "a and b share priority" prio.Priorities.priority.(id "a")
    prio.Priorities.priority.(id "b");
  Alcotest.(check bool) "c different" true
    (prio.Priorities.priority.(id "c") <> prio.Priorities.priority.(id "a"))

(* The three invariants from the paper, cross-checked against Tarjan on
   random mixed constraint sets. *)
let invariants_prop =
  QCheck.Test.make ~count:100 ~name:"priorities match SCCs and respect edges"
    Helpers.seed_arb
    (fun seed ->
      let rng = Minup_workload.Prng.create seed in
      let spec =
        Minup_workload.Gen_constraints.
          {
            n_attrs = 24;
            n_simple = 20;
            n_complex = 8;
            max_lhs = 3;
            n_constants = 4;
            constants = [ 0; 1; 2 ];
          }
      in
      let attrs, csts =
        Minup_workload.Gen_constraints.mixed rng spec ~n_islands:2 ~island_size:5
      in
      let p = Problem.compile_exn ~attrs csts in
      let prio = Priorities.compute p in
      let scc = Scc.compute p in
      let n = Problem.n_attrs p in
      (* (1) every attribute has exactly one priority in range *)
      let ok1 =
        Array.for_all
          (fun pr -> pr >= 1 && pr <= prio.Priorities.max_priority)
          prio.Priorities.priority
      in
      (* (2) same priority ⇔ same SCC *)
      let ok2 =
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                prio.Priorities.priority.(a) = prio.Priorities.priority.(b)
                = (scc.Scc.component.(a) = scc.Scc.component.(b)))
              (List.init n Fun.id))
          (List.init n Fun.id)
      in
      (* (3) along every constraint edge, priority does not increase
         from rhs to lhs: priority(lhs) <= priority(rhs). *)
      let ok3 =
        List.for_all
          (fun ci ->
            match Problem.rhs p ci with
            | Problem.Rlevel _ -> true
            | Problem.Rattr b ->
                Array.for_all
                  (fun a ->
                    prio.Priorities.priority.(a) <= prio.Priorities.priority.(b))
                  (Problem.lhs p ci))
          (List.init (Problem.n_csts p) Fun.id)
      in
      (* (4) the sets' CSR lists every attribute once, under its own
         priority *)
      let { Priorities.members; starts; max_priority = np; _ } = prio in
      let ok4 =
        starts.(0) = 0 && starts.(np) = n
        && List.for_all
             (fun pr ->
               Priorities.size prio pr >= 1
               && Array.for_all
                    (fun a -> prio.Priorities.priority.(a) = pr)
                    (Priorities.set prio pr))
             (List.init np (fun k -> k + 1))
        && List.sort compare (Array.to_list members) = List.init n Fun.id
      in
      ok1 && ok2 && ok3 && ok4)

(* A carry across a random edit batch ({!Minup_diffcheck.Carry}: the
   three generator shapes, constraints with attribute and level
   right-hand sides added and removed, bounds set and cleared, new
   attributes with rows into old ones) equals a scratch pass over the
   rebuilt problem: its priorities, members, used starts, finish
   positions and DFS parents. *)
let carry_prop =
  QCheck.Test.make ~count:200 ~name:"a carry across an edit batch = a scratch pass"
    Helpers.seed_arb (fun seed ->
      match Minup_diffcheck.Carry.sweep ~seed ~batches:20 with
      | _, None -> true
      | _, Some (i, field) -> QCheck.Test.fail_reportf "batch %d: the carried %s differs" i field)

(* The verdicts let a fair share of the batches through: a third at
   least of 2 000 (about a half is measured). *)
let carry_share () =
  match Minup_diffcheck.Carry.sweep ~seed:7 ~batches:2_000 with
  | carried, None ->
      if 3 * carried < 2_000 then Alcotest.failf "only %d of 2000 batches carried" carried
  | _, Some (i, field) -> Alcotest.failf "batch %d: the carried %s differs" i field

(* A new attribute with a row into the Fig. 2 graph: its set is numbered
   first, every old set shifts by one, and the carry equals a scratch
   pass.  A row from an old attribute into it refuses the carry. *)
let carry_new_attribute () =
  let p = fig2_problem () in
  let prio = Priorities.compute p in
  let id = Problem.attr_id_exn p in
  let attrs = Minup_core.Paper.fig2_attrs @ [ "Z" ] in
  let p' =
    Problem.compile_exn ~attrs
      (Minup_core.Paper.fig2_constraints @ [ Cst.simple "Z" (Cst.Attr "B") ])
  in
  let carried = Priorities.carry prio p' and want = Priorities.compute p' in
  Alcotest.(check int) "one more set" (prio.Priorities.max_priority + 1)
    carried.Priorities.max_priority;
  Alcotest.(check int) "Z's set is first" 1 carried.Priorities.priority.(Problem.n_attrs p);
  Alcotest.(check (array int)) "priority" want.Priorities.priority carried.Priorities.priority;
  Alcotest.(check (array int)) "members" want.Priorities.members carried.Priorities.members;
  Alcotest.(check (array int)) "finish" want.Priorities.finish carried.Priorities.finish;
  Alcotest.(check (array int)) "parent" want.Priorities.parent carried.Priorities.parent;
  Alcotest.(check bool) "an edge into Z refuses" true
    (Priorities.added prio (id "B") (Problem.n_attrs p) = Priorities.Into_new);
  Alcotest.(check bool) "no attribute: the same priorities" true (Priorities.carry prio p == prio)

let suite =
  [
    case "paper priorities (Fig. 2(b))" paper_priorities;
    case "cycle membership" cycle_detection;
    case "hypernode cycles" self_loop_via_hypernode;
    Helpers.qcheck invariants_prop;
    Helpers.qcheck carry_prop;
    case "a share of the edit batches is carried" carry_share;
    case "a new attribute's set is numbered first" carry_new_attribute;
  ]
