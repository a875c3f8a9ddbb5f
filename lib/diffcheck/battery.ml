module Cst = Minup_constraints.Cst
module Parse = Minup_constraints.Parse
module Instr = Minup_core.Instr
module Wire = Minup_core.Wire
module Fault = Minup_core.Fault
module Json = Minup_obs.Json
module Prng = Minup_workload.Prng

type mutation = Overclassify | Underclassify

type failure = { property : string; detail : string }

(* Caps keeping the exhaustive cross-checks polynomial in practice: the
   oracle enumerates at most [oracle_cap] candidate assignments, the
   backtracking baseline runs only when its choice space is below
   [backtrack_space]. *)
let oracle_cap = 20_000
let backtrack_space = 5_000

module Make (L : Minup_lattice.Lattice_intf.S) = struct
  module S = Minup_core.Solver.Make (L)
  module V = Minup_core.Verify.Make (L)
  module E = Minup_core.Explain.Make (L)
  module Engine = Minup_core.Engine.Make (L)
  module Backtrack = Minup_baselines.Backtrack.Make (L)
  module Qian = Minup_baselines.Qian.Make (L)
  module Sess = Minup_session.Session.Make (L)

  (* One step of the session property's replayable delta sequence.
     Deltas only ever reference the case's original attributes, so every
     subsequence is well-formed — which is what makes shrinking sound. *)
  type delta =
    | D_add of L.level Cst.t
    | D_remove of int
    | D_bound of string * L.level option
    | D_attr of string

  let delta_descr lat = function
    | D_add c ->
        let rhs =
          match c.Cst.rhs with
          | Cst.Attr a -> a
          | Cst.Level l -> L.level_to_string lat l
        in
        Printf.sprintf "add {%s} >= %s" (String.concat "," c.Cst.lhs) rhs
    | D_remove id -> Printf.sprintf "remove #%d" id
    | D_bound (a, Some l) ->
        Printf.sprintf "bound %s >= %s" a (L.level_to_string lat l)
    | D_bound (a, None) -> Printf.sprintf "clear %s" a
    | D_attr a -> Printf.sprintf "attr %s" a

  let session_deltas rng ~lat ~attrs ~csts =
    let pool =
      L.bottom lat :: L.top lat
      :: List.filter_map
           (fun (c : L.level Cst.t) ->
             match c.Cst.rhs with Cst.Level l -> Some l | Cst.Attr _ -> None)
           csts
    in
    let n0 = List.length csts in
    List.init 8 (fun k ->
        match Prng.int rng 6 with
        | 0 | 1 -> D_bound (Prng.pick rng attrs, Some (Prng.pick rng pool))
        | 2 -> D_bound (Prng.pick rng attrs, None)
        | 3 -> (
            let lhs = Prng.sample rng (1 + Prng.int rng 2) attrs in
            let rhs =
              if Prng.bool rng then Cst.Level (Prng.pick rng pool)
              else Cst.Attr (Prng.pick rng attrs)
            in
            match Cst.make ~lhs ~rhs with
            | Ok c -> D_add c
            | Error _ -> D_bound (Prng.pick rng attrs, None))
        | 4 when n0 > 0 ->
            (* Ids [0, n0) name the initial constraints, later ids the
               D_adds before this step; an id that was never assigned (or
               already removed) makes the delta a harmless no-op. *)
            D_remove (Prng.int rng (n0 + k))
        | _ -> D_attr (Printf.sprintf "zz%d" k))

  let apply_delta sess = function
    | D_add c -> ignore (Sess.add_constraint sess c : int)
    | D_remove id -> ignore (Sess.remove_constraint sess id : bool)
    | D_bound (a, l) -> Sess.set_lower_bound sess a l
    | D_attr a -> Sess.add_attribute sess a

  (* Replay [create; check; (delta; check)*] where each check resolves
     the session and demands bit-identical levels from a from-scratch
     compile-and-solve of the snapshot.  Returns the first failure as a
     detail string, [None] when the replay is parity-clean. *)
  let session_failure ~lat ~attrs ~csts deltas =
    let check sess step =
      let inc = Sess.resolve sess in
      let attrs', csts' = Sess.snapshot sess in
      let fresh = S.solve (S.compile_exn ~lattice:lat ~attrs:attrs' csts') in
      let a = inc.Sess.Solver.levels and b = fresh.S.levels in
      if Array.length a = Array.length b && V.equal_assignment lat a b then None
      else
        Some
          (Printf.sprintf "step %d: incremental resolve differs from scratch solve"
             step)
    in
    try
      let sess = Sess.create ~lattice:lat ~attrs csts in
      match check sess 0 with
      | Some _ as f -> f
      | None ->
          let rec go step = function
            | [] -> None
            | d :: rest -> (
                apply_delta sess d;
                match check sess step with
                | Some _ as f -> f
                | None -> go (step + 1) rest)
          in
          go 1 deltas
    with e -> Some ("exception: " ^ Printexc.to_string e)

  (* The solution with its first attribute not already at ⊤ raised to ⊤
     (over-) or its first not at ⊥ dropped to ⊥ (under-classification). *)
  let mutate lat mutation levels =
    let target =
      match mutation with
      | Overclassify -> L.top lat
      | Underclassify -> L.bottom lat
    in
    let levels = Array.copy levels in
    Option.iter
      (fun a -> levels.(a) <- target)
      (Array.find_index (fun l -> not (L.equal lat l target)) levels);
    levels

  let strictly_below lat a b =
    (* a ⊏ b pointwise: b dominates a and they differ somewhere. *)
    V.dominates lat b a && not (V.equal_assignment lat a b)

  (* What the properties read of one case: the case, its compiled
     problem, the solver's solution, and the levels under test (the
     solution's, or a mutated copy).  The lazy verdicts are computed once,
     by the first property that reads them. *)
  type case = {
    lat : L.t;
    attrs : string list;
    csts : L.level Cst.t list;
    bounds : (string * L.level) list;
    fault : Minup_faultsim.kind option;
    problem : S.problem;
    sol : S.solution;
    levels : L.level array;
    satisfied : bool;  (** [levels] satisfy every constraint *)
    minimal : bool Lazy.t;  (** Explain's verdict on [levels] *)
    bounded : (S.solution, S.inconsistency) result Lazy.t;
  }

  (* One property: [name] is its count in the summary's [checks:] line
     and, unless [label] is given, the label of its failures.  [check]
     reports each disagreement through its second argument and returns
     whether the property applied to the case, which is what is counted. *)
  type property = {
    name : string;
    label : string;
    check : case -> (string -> unit) -> bool;
  }

  let prop ?label name check =
    { name; label = Option.value label ~default:name; check }

  (* Pointwise minimality and the baselines judge only a satisfying
     solution. *)
  let if_satisfied check c fail = c.satisfied && check c fail

  (* The parity of batch copies with the sequential solve, Instr counters
     included; [what] names the copy. *)
  let same_solve c fail what (b : S.solution) =
    if not (V.equal_assignment c.lat b.S.levels c.sol.S.levels) then
      fail (what ^ " diverges from sequential")
    else if Instr.to_alist b.S.stats <> Instr.to_alist c.sol.S.stats then
      fail (what ^ ": counter divergence")

  let properties =
    [|
      (* [run] compiles every case before any property reads it, and a
         compile cannot fail. *)
      prop "compile" (fun _ _ -> true);
      prop "satisfies" (fun c fail ->
          if not c.satisfied then
            fail
              (Printf.sprintf "solution violates a constraint (%d attrs, %d csts)"
                 (List.length c.attrs) (List.length c.csts));
          true);
      (* Exact minimality, polynomial path — every case. *)
      prop "minimal"
        (if_satisfied (fun c fail ->
             if not (Lazy.force c.minimal) then
               fail "Explain.is_locally_minimal rejects the solution";
             true));
      (* Exhaustive oracle on small cases; must agree with Explain. *)
      prop "oracle"
        (if_satisfied (fun c fail ->
             match V.is_minimal_solution ~cap:oracle_cap c.problem c.levels with
             | Error `Too_large -> false
             | Ok omin ->
                 let emin = Lazy.force c.minimal in
                 if omin <> emin then
                   fail
                     (Printf.sprintf
                        "exhaustive enumeration says minimal=%b, Explain says %b"
                        omin emin);
                 true));
      (* Backtracking baseline: two minimal solutions are incomparable, so
         neither side may strictly undercut the other. *)
      prop "backtrack"
        (if_satisfied (fun c fail ->
             match Backtrack.search_space c.problem with
             | Some space when space <= backtrack_space ->
                 (match Backtrack.solve ~max_space:backtrack_space c.problem with
                 | None -> fail "exhaustive choice search found nothing"
                 | Some bl ->
                     if not (S.satisfies c.problem bl) then
                       fail "backtracking candidate violates constraints"
                     else begin
                       if strictly_below c.lat bl c.levels then
                         fail "backtracking found a strictly lower solution";
                       if strictly_below c.lat c.levels bl then
                         fail
                           "solver solution strictly undercuts the backtracking \
                            minimum"
                     end);
                 true
             | _ -> false));
      (* Qian-style baseline: sound but over-classifying — it can never
         end up strictly below a minimal solution. *)
      prop "qian"
        (if_satisfied (fun c fail ->
             let q = Qian.solve c.problem in
             if not (S.satisfies c.problem q) then
               fail "Qian labeling violates constraints"
             else if strictly_below c.lat q c.levels then
               fail "Qian labeling strictly below the minimal solution";
             true));
      (* Batch engine parity: three copies at jobs=2 must reproduce the
         sequential solve bit for bit, Instr counters included.  (Checked
         against the unmutated solution: the engine wraps the same
         solver.) *)
      prop "batch" (fun c fail ->
          let report = Engine.solve_batch ~jobs:2 (Array.make 3 c.problem) in
          Array.iteri
            (fun i -> function
              | Error f ->
                  fail
                    (Format.asprintf "solve_batch copy %d faulted: %a" i Fault.pp
                       f)
              | Ok b -> same_solve c fail (Printf.sprintf "solve_batch copy %d" i) b)
            report.Engine.solutions;
          true);
      (* Supervised batch with an injected fault: the fault must surface
         as [Error] at exactly its planted index, every other copy must
         stay bit-identical to the sequential solve, and the whole outcome
         must be invariant under the worker count.  Skipped on
         attribute-free instances: their solves emit no scheduling events,
         so a planted fault can never fire (and the shrinker must not be
         able to ride this property down to an empty instance). *)
      prop "supervised" (fun c fail ->
          c.attrs <> []
          &&
          let key = List.length c.csts + (7 * List.length c.attrs) in
          let nb = 4 in
          let f_idx = key mod nb in
          (* Every attribute contributes at least two scheduling events
             (Consider plus Back_assigned/Finalized), so any event index
             below [2·|attrs|] is guaranteed to fire. *)
          let at_event = key mod (2 * List.length c.attrs) in
          let kind, expected_label =
            match key / nb mod 3 with
            | 0 -> (Minup_faultsim.Raise, "injected")
            | 1 -> (Minup_faultsim.Stall 60_000, "deadline")
            | _ -> (Minup_faultsim.Blowout, "budget")
          in
          (* An extra, unexpected fault: the property demands [Ok] there,
             so the harness must flag it — this is how [--inject-fault]
             proves supervision failures are caught. *)
          let plan =
            { Minup_faultsim.task = f_idx; at_event; kind }
            :: Option.fold ~none:[]
                 ~some:(fun k ->
                   [ { Minup_faultsim.task = (f_idx + 2) mod nb; at_event; kind = k } ])
                 c.fault
          in
          let policy =
            {
              Minup_core.Engine.default_policy with
              deadline_ms = Some 10_000;
              max_steps = Some 10_000_000;
              retries = 1;
              backoff_ms = 0;
              seed = key;
            }
          in
          let run_supervised jobs =
            Engine.solve_batch ~jobs ~policy
              ~instrument:(Minup_faultsim.instrument plan)
              (Array.make nb c.problem)
          in
          let check_report jobs (r : Engine.report) =
            Array.iteri
              (fun i -> function
                | Ok b ->
                    if i = f_idx then
                      fail
                        (Printf.sprintf
                           "jobs=%d: planted fault at task %d did not fire" jobs
                           f_idx)
                    else
                      same_solve c fail
                        (Printf.sprintf "jobs=%d: fault-free copy %d" jobs i)
                        b
                | Error f ->
                    if i <> f_idx then
                      fail
                        (Format.asprintf "jobs=%d: unplanted fault at task %d: %a"
                           jobs i Fault.pp f)
                    else if Fault.label f <> expected_label then
                      fail
                        (Format.asprintf "jobs=%d: planted %s fault surfaced as %a"
                           jobs expected_label Fault.pp f))
              r.Engine.solutions;
            if r.Engine.attempts.(f_idx) <> 2 then
              fail
                (Printf.sprintf "jobs=%d: expected 2 attempts at task %d, got %d"
                   jobs f_idx
                   r.Engine.attempts.(f_idx))
          in
          let r1 = run_supervised 1 in
          let r2 = run_supervised 2 in
          check_report 1 r1;
          check_report 2 r2;
          let labels (r : Engine.report) =
            Array.map
              (function Ok _ -> "ok" | Error f -> Fault.label f)
              r.Engine.solutions
          in
          if labels r1 <> labels r2 then
            fail "outcome labels differ between jobs=1 and jobs=2";
          true);
      (* Parse round-trip: render the policy and read it back. *)
      prop "parse" (fun c fail ->
          let lat = c.lat in
          let text =
            Parse.render ~level_to_string:(L.level_to_string lat)
              { Parse.attrs = c.attrs; csts = c.csts; upper_bounds = c.bounds }
          in
          (match
             Parse.parse_resolve ~level_of_string:(L.level_of_string lat) text
           with
          | Error e ->
              fail (Format.asprintf "render output rejected: %a" Parse.pp_error e)
          | Ok r ->
              let cst_eq (a : _ Cst.t) (b : _ Cst.t) =
                a.Cst.lhs = b.Cst.lhs
                &&
                match (a.Cst.rhs, b.Cst.rhs) with
                | Cst.Attr x, Cst.Attr y -> x = y
                | Cst.Level x, Cst.Level y -> L.equal lat x y
                | _ -> false
              in
              let same =
                r.Parse.attrs = c.attrs
                && List.length r.Parse.csts = List.length c.csts
                && List.for_all2 cst_eq r.Parse.csts c.csts
                && List.length r.Parse.upper_bounds = List.length c.bounds
                && List.for_all2
                     (fun (a, l) (b, m) -> a = b && L.equal lat l m)
                     r.Parse.upper_bounds c.bounds
              in
              if not same then
                fail "render/parse_resolve round-trip changed the policy");
          true);
      (* JSON round-trip of a solution document, compact and pretty. *)
      prop "json" (fun c fail ->
          let doc =
            Json.Obj
              [
                ( "assignment",
                  Json.Obj
                    (List.map
                       (fun (a, l) -> (a, Json.Str (L.level_to_string c.lat l)))
                       c.sol.S.assignment) );
                ("stats", Instr.to_json c.sol.S.stats);
              ]
          in
          List.iter
            (fun pretty ->
              match Json.parse (Json.to_string ~pretty doc) with
              | Error e ->
                  fail
                    (Printf.sprintf "to_string ~pretty:%b output rejected: %s"
                       pretty e)
              | Ok doc' ->
                  if doc' <> doc then
                    fail
                      (Printf.sprintf
                         "to_string ~pretty:%b/parse round-trip changed the \
                          document"
                         pretty))
            [ false; true ];
          true);
      (* Bounded mode (§6): a solution must sit within the bounds and still
         be minimal; a reported inconsistency is confirmed by enumeration
         when feasible.  One failure label, a count per outcome. *)
      prop ~label:"bounded" "bounded_ok" (fun c fail ->
          c.bounds <> []
          &&
          match Lazy.force c.bounded with
          | Error _ -> false
          | Ok bs ->
              if not (S.satisfies c.problem bs.S.levels) then
                fail "bounded solution violates constraints"
              else begin
                List.iter
                  (fun (a, b) ->
                    match S.find c.problem bs a with
                    | Some l when L.leq c.lat l b -> ()
                    | Some _ ->
                        fail
                          (Printf.sprintf
                             "bounded solution exceeds the bound on %S" a)
                    | None ->
                        fail (Printf.sprintf "bound on unknown attribute %S" a))
                  c.bounds;
                if not (E.is_locally_minimal c.problem bs.S.levels) then
                  fail "bounded solution is not pointwise minimal"
              end;
              true);
      prop ~label:"bounded" "bounded_infeasible" (fun c fail ->
          c.bounds <> []
          &&
          match Lazy.force c.bounded with
          | Ok _ -> false
          | Error _ ->
              (match V.all_solutions ~cap:oracle_cap c.problem with
              | Error `Too_large -> ()
              | Ok sols ->
                  let within ls =
                    List.for_all
                      (fun (a, b) ->
                        match
                          Minup_constraints.Problem.attr_id c.problem.S.prob a
                        with
                        | Some i -> L.leq c.lat ls.(i) b
                        | None -> true)
                      c.bounds
                  in
                  if List.exists within sols then
                    fail "reported inconsistent, but an in-bounds solution exists");
              true);
      (* Session delta parity: replay the case into a long-lived
         {!Minup_session.Session}, apply a deterministic pseudo-random
         delta sequence, and demand that every incremental [resolve] is
         bit-identical to a from-scratch solve of the snapshot —
         incrementality must never be visible in results. *)
      prop "session" (fun { lat; attrs; csts; bounds; _ } fail ->
          attrs <> []
          &&
          let key =
            (11 * List.length csts) + (13 * List.length attrs) + List.length bounds
          in
          let deltas = session_deltas (Prng.create key) ~lat ~attrs ~csts in
          (match session_failure ~lat ~attrs ~csts deltas with
          | None -> ()
          | Some _ ->
              let shrunk =
                Shrink.list
                  ~predicate:(fun ds -> session_failure ~lat ~attrs ~csts ds <> None)
                  deltas
              in
              let detail =
                match session_failure ~lat ~attrs ~csts shrunk with
                | Some d -> d
                | None -> "failure did not survive shrinking"
              in
              fail
                (Printf.sprintf "after %d deltas [%s]: %s" (List.length shrunk)
                   (String.concat "; " (List.map (delta_descr lat) shrunk))
                   detail));
          true);
      (* Wire envelope round-trip: every response shape the serve loop can
         emit, built from this case's data, must survive to_json →
         to_string → parse → of_json, compact and pretty. *)
      prop "wire" (fun c fail ->
          let sol = c.sol in
          let assignment =
            List.map
              (fun (a, l) -> (a, L.level_to_string c.lat l))
              sol.S.assignment
          in
          let envelopes =
            [
              Wire.v1 (Wire.Solution { assignment; stats = Some sol.S.stats });
              Wire.v1 ~problem:"battery"
                (Wire.Solution { assignment; stats = None });
              Wire.v1 ~problem:"battery"
                (Wire.Fault
                   {
                     fault =
                       Fault.Budget_exhausted
                         {
                           max_steps = List.length c.csts;
                           steps = List.length c.attrs;
                         };
                     attempts = 2;
                     task = Some 0;
                   });
              Wire.v1 (Wire.Infeasible { detail = "bounds conflict" });
              Wire.v1 (Wire.Error { detail = "battery" });
              Wire.v1 ~problem:"battery"
                (Wire.Ack { id = Some (List.length c.csts) });
              Wire.v1 (Wire.Ack { id = None });
            ]
          in
          List.iter
            (fun env ->
              List.iter
                (fun pretty ->
                  match Json.parse (Json.to_string ~pretty (Wire.to_json env)) with
                  | Error e ->
                      fail
                        (Printf.sprintf
                           "serialized envelope rejected by Json.parse \
                            (pretty:%b): %s"
                           pretty e)
                  | Ok j -> (
                      match Wire.of_json j with
                      | Error e ->
                          fail
                            (Printf.sprintf
                               "of_json rejected a to_json envelope (pretty:%b): \
                                %s"
                               pretty e)
                      | Ok env' ->
                          if not (Wire.equal env env') then
                            fail
                              (Printf.sprintf
                                 "envelope round-trip changed (status %s, \
                                  pretty:%b)"
                                 (Wire.status env) pretty)))
                [ false; true ])
            envelopes;
          (* The cached body serve answers with: the same bytes as the
             [Solution] of its pairs, read back as those pairs, whether its
             runs are rendered anew, reused, or partly rendered again after
             levels changed or attributes went. *)
          let names = Array.of_list (List.map fst assignment) in
          let strings = Array.of_list (List.map snd assignment) in
          let runs = Wire.runs strings in
          Array.iter (Wire.add_name runs) names;
          let n = Array.length names in
          let same = Array.init n Fun.id in
          List.iter
            (fun (levels, stats) ->
              let pairs = List.init (Array.length levels) (fun i -> (names.(i), strings.(levels.(i)))) in
              let render body = Json.to_string (Wire.to_json (Wire.v1 ~problem:"battery" body)) in
              let bytes = render (Wire.Levels { levels; runs; stats }) in
              if bytes <> render (Wire.Solution { assignment = pairs; stats }) then
                fail "a Levels body renders other bytes than its Solution";
              match Result.bind (Json.parse bytes) Wire.of_json with
              | Ok { Wire.body = Wire.Solution { assignment = back; _ }; _ } when back = pairs -> ()
              | _ -> fail "a Levels body does not read back as its pairs")
            [
              (same, None);
              (same, None);
              (same, Some sol.S.stats);
              (Array.init n (fun i -> n - 1 - i), None);
              (Array.sub same 0 (n / 2), None);
              (same, None);
            ];
          true);
    |]

  let checks = Array.map (fun p -> p.name) properties

  let run ?mutation ?fault ?counts ~lat ~attrs ~csts ~bounds () =
    let problem = S.compile_exn ~lattice:lat ~attrs csts in
    let sol = S.solve problem in
    let levels =
      match mutation with
      | None -> sol.S.levels
      | Some m -> mutate lat m sol.S.levels
    in
    let c =
      {
        lat;
        attrs;
        csts;
        bounds;
        fault;
        problem;
        sol;
        levels;
        satisfied = S.satisfies problem levels;
        minimal = lazy (E.is_locally_minimal problem levels);
        bounded = lazy (S.solve_with_bounds problem bounds);
      }
    in
    let fails = ref [] in
    Array.iteri
      (fun i p ->
        let fail detail = fails := { property = p.label; detail } :: !fails in
        if p.check c fail then
          Option.iter (fun counts -> counts.(i) <- counts.(i) + 1) counts)
      properties;
    List.rev !fails
end
