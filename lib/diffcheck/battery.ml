module Cst = Minup_constraints.Cst
module Parse = Minup_constraints.Parse
module Instr = Minup_core.Instr
module Wire = Minup_core.Wire
module Fault = Minup_core.Fault
module Json = Minup_obs.Json
module Prng = Minup_workload.Prng

type mutation = Overclassify | Underclassify

type counters = {
  mutable cases : int;
  mutable compile : int;
  mutable satisfies : int;
  mutable minimal : int;
  mutable oracle : int;
  mutable backtrack : int;
  mutable qian : int;
  mutable batch : int;
  mutable supervised : int;
  mutable parse_rt : int;
  mutable json_rt : int;
  mutable bounded_ok : int;
  mutable bounded_infeasible : int;
  mutable session : int;
  mutable wire : int;
}

let zero () =
  {
    cases = 0;
    compile = 0;
    satisfies = 0;
    minimal = 0;
    oracle = 0;
    backtrack = 0;
    qian = 0;
    batch = 0;
    supervised = 0;
    parse_rt = 0;
    json_rt = 0;
    bounded_ok = 0;
    bounded_infeasible = 0;
    session = 0;
    wire = 0;
  }

let add into c =
  into.cases <- into.cases + c.cases;
  into.compile <- into.compile + c.compile;
  into.satisfies <- into.satisfies + c.satisfies;
  into.minimal <- into.minimal + c.minimal;
  into.oracle <- into.oracle + c.oracle;
  into.backtrack <- into.backtrack + c.backtrack;
  into.qian <- into.qian + c.qian;
  into.batch <- into.batch + c.batch;
  into.supervised <- into.supervised + c.supervised;
  into.parse_rt <- into.parse_rt + c.parse_rt;
  into.json_rt <- into.json_rt + c.json_rt;
  into.bounded_ok <- into.bounded_ok + c.bounded_ok;
  into.bounded_infeasible <- into.bounded_infeasible + c.bounded_infeasible;
  into.session <- into.session + c.session;
  into.wire <- into.wire + c.wire

let to_alist c =
  [
    ("compile", c.compile);
    ("satisfies", c.satisfies);
    ("minimal", c.minimal);
    ("oracle", c.oracle);
    ("backtrack", c.backtrack);
    ("qian", c.qian);
    ("batch", c.batch);
    ("supervised", c.supervised);
    ("parse", c.parse_rt);
    ("json", c.json_rt);
    ("bounded_ok", c.bounded_ok);
    ("bounded_infeasible", c.bounded_infeasible);
    ("session", c.session);
    ("wire", c.wire);
  ]

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
      match S.compile ~lattice:lat ~attrs:attrs' csts' with
      | Error e ->
          Some
            (Format.asprintf "step %d: snapshot rejected: %a" step
               Minup_constraints.Problem.pp_error e)
      | Ok p ->
          let fresh = S.solve p in
          let a = inc.Sess.Solver.levels and b = fresh.S.levels in
          let same =
            Array.length a = Array.length b
            && begin
                 let ok = ref true in
                 Array.iteri
                   (fun i l -> if not (L.equal lat l b.(i)) then ok := false)
                   a;
                 !ok
               end
          in
          if same then None
          else
            Some
              (Printf.sprintf
                 "step %d: incremental resolve differs from scratch solve" step)
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

  (* Greedy one-at-a-time shrink: drop deltas while the replay still
     fails. *)
  let shrink_deltas ~lat ~attrs ~csts deltas =
    let fails ds = session_failure ~lat ~attrs ~csts ds <> None in
    let rec go ds i =
      if i >= List.length ds then ds
      else
        let cand = List.filteri (fun j _ -> j <> i) ds in
        if fails cand then go cand i else go ds (i + 1)
    in
    go deltas 0

  let mutate lat mutation levels =
    let levels = Array.copy levels in
    (match mutation with
    | Overclassify ->
        let top = L.top lat in
        let exception Done in
        (try
           Array.iteri
             (fun a l ->
               if not (L.equal lat l top) then begin
                 levels.(a) <- top;
                 raise Done
               end)
             levels
         with Done -> ())
    | Underclassify ->
        let bot = L.bottom lat in
        let exception Done in
        (try
           Array.iteri
             (fun a l ->
               if not (L.equal lat l bot) then begin
                 levels.(a) <- bot;
                 raise Done
               end)
             levels
         with Done -> ()));
    levels

  let strictly_below lat a b =
    (* a ⊏ b pointwise: b dominates a and they differ somewhere. *)
    V.dominates lat b a && not (V.equal_assignment lat a b)

  let run ?mutation ?fault ~(counters : counters) ~lat ~attrs ~csts ~bounds ()
      =
    let fails = ref [] in
    let fail property detail = fails := { property; detail } :: !fails in
    counters.cases <- counters.cases + 1;
    (match S.compile ~lattice:lat ~attrs csts with
    | Error e ->
        fail "compile"
          (Format.asprintf "generated constraints rejected: %a"
             Minup_constraints.Problem.pp_error e)
    | Ok problem ->
        counters.compile <- counters.compile + 1;
        let sol = S.solve problem in
        let levels =
          match mutation with
          | None -> sol.S.levels
          | Some m -> mutate lat m sol.S.levels
        in
        counters.satisfies <- counters.satisfies + 1;
        if not (S.satisfies problem levels) then
          fail "satisfies"
            (Printf.sprintf "solution violates a constraint (%d attrs, %d csts)"
               (List.length attrs) (List.length csts))
        else begin
          (* Exact minimality, polynomial path — every case. *)
          counters.minimal <- counters.minimal + 1;
          let emin = E.is_locally_minimal problem levels in
          if not emin then
            fail "minimal" "Explain.is_locally_minimal rejects the solution";
          (* Exhaustive oracle on small cases; must agree with Explain. *)
          (match V.is_minimal_solution ~cap:oracle_cap problem levels with
          | Error `Too_large -> ()
          | Ok omin ->
              counters.oracle <- counters.oracle + 1;
              if omin <> emin then
                fail "oracle"
                  (Printf.sprintf
                     "exhaustive enumeration says minimal=%b, Explain says %b"
                     omin emin));
          (* Backtracking baseline: two minimal solutions are incomparable,
             so neither side may strictly undercut the other. *)
          (match Backtrack.search_space problem with
          | Some space when space <= backtrack_space -> (
              counters.backtrack <- counters.backtrack + 1;
              match Backtrack.solve ~max_space:backtrack_space problem with
              | None -> fail "backtrack" "exhaustive choice search found nothing"
              | Some bl ->
                  if not (S.satisfies problem bl) then
                    fail "backtrack" "backtracking candidate violates constraints"
                  else begin
                    if strictly_below lat bl levels then
                      fail "backtrack"
                        "backtracking found a strictly lower solution";
                    if strictly_below lat levels bl then
                      fail "backtrack"
                        "solver solution strictly undercuts the backtracking \
                         minimum"
                  end)
          | _ -> ());
          (* Qian-style baseline: sound but over-classifying — it can never
             end up strictly below a minimal solution. *)
          counters.qian <- counters.qian + 1;
          let q = Qian.solve problem in
          if not (S.satisfies problem q) then
            fail "qian" "Qian labeling violates constraints"
          else if strictly_below lat q levels then
            fail "qian" "Qian labeling strictly below the minimal solution"
        end;
        (* Batch engine parity: three copies at jobs=2 must reproduce the
           sequential solve bit for bit, Instr counters included.  (Checked
           against the unmutated solution: the engine wraps the same
           solver.) *)
        counters.batch <- counters.batch + 1;
        let report = Engine.solve_batch ~jobs:2 (Array.make 3 problem) in
        Array.iteri
          (fun i -> function
            | Error f ->
                fail "batch"
                  (Format.asprintf "solve_batch copy %d faulted: %a" i
                     Minup_core.Fault.pp f)
            | Ok (b : S.solution) ->
                if not (V.equal_assignment lat b.S.levels sol.S.levels) then
                  fail "batch"
                    (Printf.sprintf "solve_batch copy %d diverges from sequential"
                       i)
                else if Instr.to_alist b.S.stats <> Instr.to_alist sol.S.stats
                then
                  fail "batch"
                    (Printf.sprintf "solve_batch copy %d: counter divergence" i))
          report.Engine.solutions;
        (* Supervised batch with an injected fault: the fault must surface
           as [Error] at exactly its planted index, every other copy must
           stay bit-identical to the sequential solve, and the whole
           outcome must be invariant under the worker count.  Skipped on
           attribute-free instances: their solves emit no scheduling
           events, so a planted fault can never fire (and the shrinker
           must not be able to ride this property down to an empty
           instance). *)
        if attrs <> [] then begin
          counters.supervised <- counters.supervised + 1;
          let key = List.length csts + (7 * List.length attrs) in
          let nb = 4 in
          let f_idx = key mod nb in
          (* Every attribute contributes at least two scheduling events
             (Consider plus Back_assigned/Finalized), so any event index
             below [2·|attrs|] is guaranteed to fire. *)
          let at_event = key mod (2 * List.length attrs) in
          let kind =
            match key / nb mod 3 with
            | 0 -> Minup_faultsim.Raise
            | 1 -> Minup_faultsim.Stall 60_000
            | _ -> Minup_faultsim.Blowout
          in
          let plan =
            { Minup_faultsim.task = f_idx; at_event; kind }
            ::
            (match fault with
            | None -> []
            | Some k ->
                (* An extra, unexpected fault: the property demands [Ok]
                   here, so the harness must flag it — this is how
                   [--inject-fault] proves supervision failures are
                   caught. *)
                [
                  {
                    Minup_faultsim.task = (f_idx + 2) mod nb;
                    at_event;
                    kind = k;
                  };
                ])
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
          let expected_label =
            match kind with
            | Minup_faultsim.Raise -> "injected"
            | Minup_faultsim.Stall _ -> "deadline"
            | Minup_faultsim.Blowout -> "budget"
          in
          let run_supervised jobs =
            Engine.solve_batch ~jobs ~policy
              ~instrument:(Minup_faultsim.instrument plan)
              (Array.make nb problem)
          in
          let check_report jobs (r : Engine.report) =
            Array.iteri
              (fun i -> function
                | Ok (b : S.solution) ->
                    if i = f_idx then
                      fail "supervised"
                        (Printf.sprintf
                           "jobs=%d: planted fault at task %d did not fire" jobs
                           f_idx)
                    else if not (V.equal_assignment lat b.S.levels sol.S.levels)
                    then
                      fail "supervised"
                        (Printf.sprintf
                           "jobs=%d: fault-free copy %d diverges from sequential"
                           jobs i)
                    else if Instr.to_alist b.S.stats <> Instr.to_alist sol.S.stats
                    then
                      fail "supervised"
                        (Printf.sprintf
                           "jobs=%d: fault-free copy %d: counter divergence" jobs
                           i)
                | Error f ->
                    if i <> f_idx then
                      fail "supervised"
                        (Format.asprintf
                           "jobs=%d: unplanted fault at task %d: %a" jobs i
                           Minup_core.Fault.pp f)
                    else if Minup_core.Fault.label f <> expected_label then
                      fail "supervised"
                        (Format.asprintf
                           "jobs=%d: planted %s fault surfaced as %a" jobs
                           expected_label Minup_core.Fault.pp f))
              r.Engine.solutions;
            if r.Engine.attempts.(f_idx) <> 2 then
              fail "supervised"
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
              (function
                | Ok _ -> "ok" | Error f -> Minup_core.Fault.label f)
              r.Engine.solutions
          in
          if labels r1 <> labels r2 then
            fail "supervised" "outcome labels differ between jobs=1 and jobs=2"
        end;
        (* Parse round-trip: render the policy and read it back. *)
        counters.parse_rt <- counters.parse_rt + 1;
        let resolved : _ Parse.resolved =
          { attrs; csts; upper_bounds = bounds }
        in
        let text =
          Parse.render ~level_to_string:(L.level_to_string lat) resolved
        in
        (match
           Parse.parse_resolve ~level_of_string:(L.level_of_string lat) text
         with
        | Error e ->
            fail "parse"
              (Format.asprintf "render output rejected: %a" Parse.pp_error e)
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
              r.Parse.attrs = attrs
              && List.length r.Parse.csts = List.length csts
              && List.for_all2 cst_eq r.Parse.csts csts
              && List.length r.Parse.upper_bounds = List.length bounds
              && List.for_all2
                   (fun (a, l) (b, m) -> a = b && L.equal lat l m)
                   r.Parse.upper_bounds bounds
            in
            if not same then
              fail "parse" "render/parse_resolve round-trip changed the policy");
        (* JSON round-trip of a solution document, compact and pretty. *)
        counters.json_rt <- counters.json_rt + 1;
        let doc =
          Json.Obj
            [
              ( "assignment",
                Json.Obj
                  (List.map
                     (fun (a, l) -> (a, Json.Str (L.level_to_string lat l)))
                     sol.S.assignment) );
              ("stats", Instr.to_json sol.S.stats);
            ]
        in
        List.iter
          (fun pretty ->
            match Json.parse (Json.to_string ~pretty doc) with
            | Error e ->
                fail "json"
                  (Printf.sprintf "to_string ~pretty:%b output rejected: %s"
                     pretty e)
            | Ok doc' ->
                if doc' <> doc then
                  fail "json"
                    (Printf.sprintf
                       "to_string ~pretty:%b/parse round-trip changed the \
                        document"
                       pretty))
          [ false; true ];
        (* Bounded mode (§6): a solution must sit within the bounds and
           still be minimal; a reported inconsistency is confirmed by
           enumeration when feasible. *)
        if bounds <> [] then begin
          match S.solve_with_bounds problem bounds with
          | Ok bs ->
              counters.bounded_ok <- counters.bounded_ok + 1;
              if not (S.satisfies problem bs.S.levels) then
                fail "bounded" "bounded solution violates constraints"
              else begin
                List.iter
                  (fun (a, b) ->
                    match S.find problem bs a with
                    | Some l when L.leq lat l b -> ()
                    | Some _ ->
                        fail "bounded"
                          (Printf.sprintf
                             "bounded solution exceeds the bound on %S" a)
                    | None ->
                        fail "bounded"
                          (Printf.sprintf "bound on unknown attribute %S" a))
                  bounds;
                if not (E.is_locally_minimal problem bs.S.levels) then
                  fail "bounded" "bounded solution is not pointwise minimal"
              end
          | Error _ -> (
              counters.bounded_infeasible <- counters.bounded_infeasible + 1;
              match V.all_solutions ~cap:oracle_cap problem with
              | Error `Too_large -> ()
              | Ok sols ->
                  let within ls =
                    List.for_all
                      (fun (a, b) ->
                        match
                          Minup_constraints.Problem.attr_id problem.S.prob a
                        with
                        | Some i -> L.leq lat ls.(i) b
                        | None -> true)
                      bounds
                  in
                  if List.exists within sols then
                    fail "bounded"
                      "reported inconsistent, but an in-bounds solution exists")
        end;
        (* Session delta parity: replay the case into a long-lived
           {!Minup_session.Session}, apply a deterministic pseudo-random
           delta sequence, and demand that every incremental [resolve]
           is bit-identical to a from-scratch solve of the snapshot —
           incrementality must never be visible in results. *)
        if attrs <> [] then begin
          counters.session <- counters.session + 1;
          let key =
            (11 * List.length csts) + (13 * List.length attrs)
            + List.length bounds
          in
          let rng = Prng.create key in
          let deltas = session_deltas rng ~lat ~attrs ~csts in
          match session_failure ~lat ~attrs ~csts deltas with
          | None -> ()
          | Some _ ->
              let shrunk = shrink_deltas ~lat ~attrs ~csts deltas in
              let detail =
                match session_failure ~lat ~attrs ~csts shrunk with
                | Some d -> d
                | None -> "failure did not survive shrinking"
              in
              fail "session"
                (Printf.sprintf "after %d deltas [%s]: %s"
                   (List.length shrunk)
                   (String.concat "; " (List.map (delta_descr lat) shrunk))
                   detail)
        end;
        (* Wire envelope round-trip: every response shape the serve loop
           can emit, built from this case's data, must survive
           to_json → to_string → parse → of_json, compact and pretty. *)
        counters.wire <- counters.wire + 1;
        let assignment =
          List.map
            (fun (a, l) -> (a, L.level_to_string lat l))
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
                         max_steps = List.length csts;
                         steps = List.length attrs;
                       };
                   attempts = 2;
                   task = Some 0;
                 });
            Wire.v1 (Wire.Infeasible { detail = "bounds conflict" });
            Wire.v1 (Wire.Error { detail = "battery" });
            Wire.v1 ~problem:"battery"
              (Wire.Ack { id = Some (List.length csts) });
            Wire.v1 (Wire.Ack { id = None });
          ]
        in
        List.iter
          (fun env ->
            List.iter
              (fun pretty ->
                match Json.parse (Json.to_string ~pretty (Wire.to_json env)) with
                | Error e ->
                    fail "wire"
                      (Printf.sprintf
                         "serialized envelope rejected by Json.parse \
                          (pretty:%b): %s"
                         pretty e)
                | Ok j -> (
                    match Wire.of_json j with
                    | Error e ->
                        fail "wire"
                          (Printf.sprintf
                             "of_json rejected a to_json envelope (pretty:%b): \
                              %s"
                             pretty e)
                    | Ok env' ->
                        if not (Wire.equal env env') then
                          fail "wire"
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
              fail "wire" "a Levels body renders other bytes than its Solution";
            match Result.bind (Json.parse bytes) Wire.of_json with
            | Ok { Wire.body = Wire.Solution { assignment = back; _ }; _ } when back = pairs -> ()
            | _ -> fail "wire" "a Levels body does not read back as its pairs")
          [
            (same, None);
            (same, None);
            (same, Some sol.S.stats);
            (Array.init n (fun i -> n - 1 - i), None);
            (Array.sub same 0 (n / 2), None);
            (same, None);
          ]);
    List.rev !fails
end
