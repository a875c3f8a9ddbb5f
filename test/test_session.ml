(* Sessions: the delta API's resolves must be bit-identical to solving the
   snapshot from scratch, whichever path (cached, patched, incremental,
   full fallback) serves them — plus the serve loop's envelopes and the
   Wire round-trip. *)

open Minup_lattice
module Cst = Minup_constraints.Cst
module Session = Minup_session.Session.Make (Explicit)
module SS = Session.Solver
module Serve = Minup_session.Serve
module Wire = Minup_core.Wire
module Fault = Minup_core.Fault
module Json = Minup_obs.Json
module Gen = Minup_workload.Gen_constraints
module Gen_lattice = Minup_workload.Gen_lattice
module Prng = Minup_workload.Prng

let case = Helpers.case
let fig1b = Minup_core.Paper.fig1b
let lvl = Helpers.lvl

(* Scratch oracle: compile + solve the session's snapshot with the
   session's own solver instance. *)
let scratch lat sess =
  let attrs, csts = Session.snapshot sess in
  let p = SS.compile_exn ~lattice:lat ~attrs csts in
  SS.solve p

let check_matches ~ctx lat sess =
  let sol = Session.resolve sess in
  let ref_sol = scratch lat sess in
  if
    not
      (Array.length sol.SS.levels = Array.length ref_sol.SS.levels
      && Array.for_all2 (Explicit.equal lat) sol.SS.levels ref_sol.SS.levels)
  then Alcotest.failf "%s: incremental resolve diverges from scratch solve" ctx

let base_csts () =
  [
    Helpers.level_cst "salary" "L3";
    Helpers.attr_cst "name" "salary";
    Helpers.assoc_cst [ "rank"; "dept" ] "L2";
  ]

let delta_sequence_matches_scratch () =
  let sess = Session.create ~lattice:fig1b (base_csts ()) in
  check_matches ~ctx:"initial" fig1b sess;
  let id = Session.add_constraint sess (Helpers.level_cst "dept" "L1") in
  check_matches ~ctx:"add" fig1b sess;
  Session.set_lower_bound sess "rank" (Some (lvl "L2"));
  check_matches ~ctx:"bound" fig1b sess;
  Session.set_lower_bound sess "rank" (Some (lvl "L4"));
  check_matches ~ctx:"retighten" fig1b sess;
  Alcotest.(check bool) "remove known" true (Session.remove_constraint sess id);
  check_matches ~ctx:"remove" fig1b sess;
  Alcotest.(check bool) "remove unknown" false (Session.remove_constraint sess id);
  Session.add_attribute sess "unbound";
  check_matches ~ctx:"new attr" fig1b sess;
  Session.set_lower_bound sess "rank" None;
  check_matches ~ctx:"clear bound" fig1b sess

let stats_classify_paths () =
  let sess = Session.create ~lattice:fig1b (base_csts ()) in
  Session.set_lower_bound sess "salary" (Some (lvl "L1"));
  ignore (Session.resolve sess);
  ignore (Session.resolve sess);
  (* Re-tightening an existing bound is the patch fast path. *)
  Session.set_lower_bound sess "salary" (Some (lvl "L4"));
  check_matches ~ctx:"patch" fig1b sess;
  (* A structural delta recompiles but re-solves only the dirty cone. *)
  ignore (Session.add_constraint sess (Helpers.level_cst "dept" "L2"));
  check_matches ~ctx:"structural" fig1b sess;
  let st = Session.stats sess in
  Alcotest.(check int) "resolves" 4 st.Session.resolves;
  Alcotest.(check int) "cached" 1 st.Session.cached;
  Alcotest.(check int) "full" 1 st.Session.full;
  Alcotest.(check int) "patched" 1 st.Session.patched;
  Alcotest.(check int) "incremental" 2 st.Session.incremental;
  Alcotest.(check bool) "frozen some work" true (st.Session.frozen > 0)

let cycle_falls_back_to_full () =
  let sess =
    Session.create ~lattice:fig1b
      [
        Helpers.attr_cst "a" "b";
        Helpers.attr_cst "b" "a";
        Helpers.level_cst "b" "L2";
      ]
  in
  check_matches ~ctx:"initial" fig1b sess;
  (* The delta's dirty closure reaches the {a, b} cycle: the session must
     fall back to a full solve rather than freeze half a cycle. *)
  Session.set_lower_bound sess "a" (Some (lvl "L4"));
  check_matches ~ctx:"cycle delta" fig1b sess;
  let st = Session.stats sess in
  Alcotest.(check int) "full twice" 2 st.Session.full;
  Alcotest.(check int) "never incremental" 0 st.Session.incremental

let bounded_catch_up_obeys_budget () =
  let sess = Session.create ~lattice:fig1b (base_csts ()) in
  ignore (Session.resolve sess);
  Session.set_lower_bound sess "dept" (Some (lvl "L1"));
  (* The pending delta forces a catch-up resolve before the bounded solve;
     a zero-step budget must cancel it, leaving the delta queued. *)
  let config =
    { SS.Config.default with budget = Some (Minup_core.Solver.budget ~max_steps:0 ()) }
  in
  (match Session.resolve_with_bounds ~config sess [ ("salary", lvl "L4") ] with
  | _ -> Alcotest.fail "expected Cancelled"
  | exception SS.Cancelled _ -> ());
  Alcotest.(check bool) "delta still queued" true (Session.solution sess = None)

let untouched_subgraph_is_frozen () =
  (* Two disconnected chains; editing one must freeze the other. *)
  let sess =
    Session.create ~lattice:fig1b
      [
        Helpers.level_cst "x1" "L2";
        Helpers.attr_cst "x0" "x1";
        Helpers.level_cst "y1" "L3";
        Helpers.attr_cst "y0" "y1";
      ]
  in
  ignore (Session.resolve sess);
  ignore (Session.add_constraint sess (Helpers.level_cst "x1" "L4"));
  check_matches ~ctx:"one chain edited" fig1b sess;
  let st = Session.stats sess in
  Alcotest.(check int) "incremental" 1 st.Session.incremental;
  (* y0 and y1 (at least) stayed frozen. *)
  Alcotest.(check bool) "frozen >= 2" true (st.Session.frozen >= 2)

let random_spec lat =
  {
    Gen.n_attrs = 14;
    n_simple = 18;
    n_complex = 7;
    max_lhs = 3;
    n_constants = 6;
    constants = Explicit.all lat;
  }

(* A random editing session: every resolve, after every delta, must match
   the scratch solve of the snapshot. *)
let random_session seed =
  let rng = Prng.create seed in
  let lat =
    Gen_lattice.random_closure_exn rng ~universe:5 ~n_generators:4 ~max_size:40
  in
  let spec = random_spec lat in
  let attrs, csts =
    match seed mod 3 with
    | 0 -> Gen.acyclic rng spec
    | 1 -> Gen.single_scc rng spec
    | _ -> Gen.mixed rng spec ~n_islands:2 ~island_size:4
  in
  let sess = Session.create ~lattice:lat ~attrs csts in
  let ids = ref (List.mapi (fun i _ -> i) csts) in
  let levels = Explicit.all lat in
  let fresh = ref 0 in
  check_matches ~ctx:"initial" lat sess;
  for step = 1 to 10 do
    (match Prng.int rng 6 with
    | 0 ->
        let lhs = Prng.sample rng (1 + Prng.int rng 3) attrs in
        let rhs =
          if Prng.bool rng then Cst.Level (Prng.pick rng levels)
          else Cst.Attr (Prng.pick rng attrs)
        in
        (match Cst.make ~lhs ~rhs with
        | Ok c -> ids := Session.add_constraint sess c :: !ids
        | Error _ -> ())
    | 1 when !ids <> [] ->
        let id = Prng.pick rng !ids in
        ignore (Session.remove_constraint sess id);
        ids := List.filter (fun i -> i <> id) !ids
    | 2 | 3 ->
        Session.set_lower_bound sess (Prng.pick rng attrs)
          (Some (Prng.pick rng levels))
    | 4 ->
        Session.set_lower_bound sess (Prng.pick rng attrs) None
    | _ ->
        incr fresh;
        Session.add_attribute sess (Printf.sprintf "z%d" !fresh));
    check_matches ~ctx:(Printf.sprintf "seed %d step %d" seed step) lat sess
  done

let random_sessions () =
  for seed = 0 to 24 do
    random_session seed
  done

(* {2 Wire envelopes} *)

let wire_roundtrip w =
  let rendered = Json.to_string (Wire.to_json w) in
  match Json.parse rendered with
  | Error e -> Alcotest.failf "wire render does not parse: %s" e
  | Ok doc -> (
      match Wire.of_json doc with
      | Error e -> Alcotest.failf "wire round-trip failed: %s (%s)" e rendered
      | Ok w' ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trip %s" rendered)
            true (Wire.equal w w'))

let wire_roundtrips () =
  List.iter wire_roundtrip
    [
      Wire.v1 (Wire.Ack { id = None });
      Wire.v1 ~problem:"p" (Wire.Ack { id = Some 3 });
      Wire.v1 ~problem:"p"
        (Wire.Solution
           { assignment = [ ("a", "L1"); ("b", "TS:{x}") ]; stats = None });
      Wire.v1
        (Wire.Solution
           { assignment = []; stats = Some (Minup_core.Instr.create ()) });
      Wire.v1 ~problem:"q"
        (Wire.Fault
           {
             fault = Fault.Budget_exhausted { max_steps = 5; steps = 6 };
             attempts = 2;
             task = Some 1;
           });
      Wire.v1
        (Wire.Fault
           {
             fault = Fault.Solver_error { exn = "Failure(\"x\")" };
             attempts = 1;
             task = None;
           });
      Wire.v1 ~problem:"p" (Wire.Infeasible { detail = "no way" });
      Wire.v1 (Wire.Error { detail = "bad request" });
    ]

let wire_rejects () =
  let reject doc msg =
    match Wire.of_json doc with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" msg
  in
  reject (Json.Obj [ ("status", Json.Str "ok") ]) "missing version";
  reject
    (Json.Obj [ ("v", Json.Num 2.); ("status", Json.Str "ok") ])
    "version 2";
  reject
    (Json.Obj [ ("v", Json.Num 1.); ("status", Json.Str "nope") ])
    "unknown status";
  reject (Json.Arr []) "non-object"

(* {2 Serve} *)

let lattice_text = "levels Public, Secret, TopSecret\nPublic < Secret\nSecret < TopSecret\n"

let serve_req conn fields =
  let line = Json.to_string (Json.Obj fields) in
  Serve.handle_line conn line

let open_req ?(constraints = "secret >= Secret\n{name, salary} >= secret\n")
    conn name =
  serve_req conn
    [
      ("op", Json.Str "open");
      ("problem", Json.Str name);
      ("lattice", Json.Str lattice_text);
      ("constraints", Json.Str constraints);
    ]

let check_status what expected (w : Wire.t) =
  Alcotest.(check string) what expected (Wire.status w)

let serve_basic_flow () =
  let conn = Serve.create () in
  check_status "open" "ok" (open_req conn "p");
  (match
     serve_req conn [ ("op", Json.Str "resolve"); ("problem", Json.Str "p") ]
   with
  | { Wire.body = Wire.Solution { assignment; stats = None }; _ } ->
      Alcotest.(check (list (pair string string)))
        "assignment"
        [ ("secret", "Secret"); ("name", "Public"); ("salary", "Secret") ]
        assignment
  | w -> Alcotest.failf "unexpected resolve response: %s" (Wire.status w));
  (* add_constraint returns the fresh id and changes the next resolve. *)
  (match
     serve_req conn
       [
         ("op", Json.Str "add_constraint");
         ("problem", Json.Str "p");
         ("constraint", Json.Str "salary >= TopSecret");
       ]
   with
  | { Wire.body = Wire.Ack { id = Some _ }; _ } -> ()
  | _ -> Alcotest.fail "add_constraint should ack with an id");
  (match
     serve_req conn
       [
         ("op", Json.Str "resolve");
         ("problem", Json.Str "p");
         ("stats", Json.Bool true);
       ]
   with
  | { Wire.body = Wire.Solution { assignment; stats = Some _ }; _ } ->
      Alcotest.(check (list (pair string string)))
        "assignment after delta"
        [ ("secret", "Secret"); ("name", "Public"); ("salary", "TopSecret") ]
        assignment
  | _ -> Alcotest.fail "resolve with stats should carry counters");
  check_status "close" "ok"
    (serve_req conn [ ("op", Json.Str "close"); ("problem", Json.Str "p") ]);
  check_status "closed session is gone" "error"
    (serve_req conn [ ("op", Json.Str "resolve"); ("problem", Json.Str "p") ])

let serve_faults_and_infeasible () =
  let conn = Serve.create () in
  check_status "open" "ok" (open_req conn "p");
  (* Upper bounds conflicting with the policy: infeasible, not error. *)
  (match
     serve_req conn
       [
         ("op", Json.Str "resolve");
         ("problem", Json.Str "p");
         ("bounds", Json.Obj [ ("secret", Json.Str "Public") ]);
       ]
   with
  | { Wire.body = Wire.Infeasible _; _ } -> ()
  | w -> Alcotest.failf "expected infeasible, got %s" (Wire.status w));
  (* A step budget of 0 cancels the solve: a fault envelope, kind budget.
     The delta forces actual solving — a cached answer costs no budget —
     and must still be queued afterwards, not lost to the cancellation. *)
  check_status "queue delta" "ok"
    (serve_req conn
       [
         ("op", Json.Str "set_lower_bound");
         ("problem", Json.Str "p");
         ("attr", Json.Str "name");
         ("level", Json.Str "Secret");
       ]);
  (match
     serve_req conn
       [
         ("op", Json.Str "resolve");
         ("problem", Json.Str "p");
         ("max_steps", Json.Num 0.);
       ]
   with
  | { Wire.body = Wire.Fault { fault; attempts = 1; task = None }; _ } ->
      Alcotest.(check string) "kind" "budget" (Fault.label fault)
  | w -> Alcotest.failf "expected fault, got %s" (Wire.status w));
  (* The bounds branch reports a cancellation the same way — here of the
     catch-up resolve of the still-queued delta. *)
  (match
     serve_req conn
       [
         ("op", Json.Str "resolve");
         ("problem", Json.Str "p");
         ("bounds", Json.Obj [ ("name", Json.Str "TopSecret") ]);
         ("max_steps", Json.Num 0.);
       ]
   with
  | { Wire.body = Wire.Fault { fault; attempts = 1; task = None }; _ } ->
      Alcotest.(check string) "bounded kind" "budget" (Fault.label fault)
  | w -> Alcotest.failf "expected bounded fault, got %s" (Wire.status w));
  (* And the session still answers afterwards. *)
  check_status "recovers" "ok"
    (serve_req conn [ ("op", Json.Str "resolve"); ("problem", Json.Str "p") ])

let serve_errors () =
  let conn = Serve.create () in
  check_status "not json" "error" (Serve.handle_line conn "{nope");
  check_status "missing op" "error"
    (serve_req conn [ ("problem", Json.Str "p") ]);
  check_status "missing problem" "error"
    (serve_req conn [ ("op", Json.Str "resolve") ]);
  check_status "unknown session" "error"
    (serve_req conn [ ("op", Json.Str "resolve"); ("problem", Json.Str "p") ]);
  check_status "open" "ok" (open_req conn "p");
  check_status "unknown op" "error"
    (serve_req conn [ ("op", Json.Str "scramble"); ("problem", Json.Str "p") ]);
  check_status "bad level" "error"
    (serve_req conn
       [
         ("op", Json.Str "set_lower_bound");
         ("problem", Json.Str "p");
         ("attr", Json.Str "secret");
         ("level", Json.Str "Mystery");
       ]);
  check_status "unknown constraint id" "error"
    (serve_req conn
       [
         ("op", Json.Str "remove_constraint");
         ("problem", Json.Str "p");
         ("id", Json.Num 99.);
       ]);
  check_status "upper bound in policy" "error"
    (serve_req conn
       [
         ("op", Json.Str "open");
         ("problem", Json.Str "q");
         ("lattice", Json.Str lattice_text);
         ("constraints", Json.Str "secret <= Secret\n");
       ])

let serve_lru_eviction () =
  let conn = Serve.create ~max_sessions:2 () in
  check_status "open a" "ok" (open_req conn "a");
  check_status "open b" "ok" (open_req conn "b");
  (* Touch [a] so [b] is the LRU victim. *)
  check_status "touch a" "ok"
    (serve_req conn [ ("op", Json.Str "resolve"); ("problem", Json.Str "a") ]);
  check_status "open c evicts" "ok" (open_req conn "c");
  Alcotest.(check (list string)) "kept MRU two" [ "c"; "a" ]
    (Serve.session_names conn);
  check_status "b is gone" "error"
    (serve_req conn [ ("op", Json.Str "resolve"); ("problem", Json.Str "b") ])

let suite =
  [
    case "delta sequence matches scratch" delta_sequence_matches_scratch;
    case "stats classify resolve paths" stats_classify_paths;
    case "cycle falls back to full solve" cycle_falls_back_to_full;
    case "bounded catch-up obeys budget" bounded_catch_up_obeys_budget;
    case "untouched subgraph is frozen" untouched_subgraph_is_frozen;
    case "random sessions match scratch" random_sessions;
    case "wire round-trips" wire_roundtrips;
    case "wire rejects bad envelopes" wire_rejects;
    case "serve basic flow" serve_basic_flow;
    case "serve faults and infeasible" serve_faults_and_infeasible;
    case "serve errors" serve_errors;
    case "serve LRU eviction" serve_lru_eviction;
  ]
