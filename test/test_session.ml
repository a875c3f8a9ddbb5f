(* Sessions: the delta API's resolves must be bit-identical to solving the
   snapshot from scratch, whichever path (cached, patch, scratch) serves
   them — plus the serve loop's envelopes and the Wire round-trip. *)

open Minup_lattice
module Cst = Minup_constraints.Cst
module Session = Minup_session.Session.Make (Explicit)
module SS = Session.Solver
module Serve = Minup_session.Serve
module Parse = Minup_constraints.Parse
module Problem = Minup_constraints.Problem
module Wire = Minup_core.Wire
module Fault = Minup_core.Fault
module Json = Minup_obs.Json
module Trace = Minup_obs.Trace
module Gen = Minup_workload.Gen_constraints
module Gen_lattice = Minup_workload.Gen_lattice
module Prng = Minup_workload.Prng

let case = Helpers.case
let fig1b = Minup_core.Paper.fig1b
let lvl = Helpers.lvl

(* Scratch oracle: compile + solve the session's snapshot with the
   session's own solver instance. *)
let scratch ?config lat sess =
  let attrs, csts = Session.snapshot sess in
  let p = SS.compile_exn ~lattice:lat ~attrs csts in
  SS.solve ?config p

let same_levels lat a b = Array.length a = Array.length b && Array.for_all2 (Explicit.equal lat) a b

(* A resolve under [config], which must equal a scratch solve under it. *)
let resolve_matches ?config ~ctx lat sess =
  let sol = Session.resolve ?config sess in
  if not (same_levels lat sol.SS.levels (scratch ?config lat sess).SS.levels) then
    Alcotest.failf "%s: incremental resolve diverges from scratch solve" ctx;
  sol

let check_matches ~ctx lat sess = ignore (resolve_matches ~ctx lat sess)

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
  Trace.start ();
  Fun.protect ~finally:Trace.stop (fun () ->
      ignore (Session.resolve sess);
      ignore (Session.resolve sess);
      (* Re-tightening an existing bound is the patch fast path. *)
      Session.set_lower_bound sess "salary" (Some (lvl "L4"));
      check_matches ~ctx:"patch" fig1b sess;
      (* A structural delta rebuilds the problem from its rows and
         re-solves it incrementally. *)
      ignore (Session.add_constraint sess (Helpers.level_cst "dept" "L2"));
      check_matches ~ctx:"structural" fig1b sess);
  (* Each traced resolve names its path and the delta that chose it. *)
  let arg name =
    List.filter_map
      (fun (e : Trace.event) ->
        match (e.ph, e.name, List.assoc_opt name e.args) with
        | 'B', "session.resolve", Some (Trace.Str p) -> Some p
        | _ -> None)
      (Trace.events ())
  in
  Alcotest.(check (list string))
    "session.resolve path arguments"
    [ "scratch"; "cached"; "patch"; "rebuild" ]
    (arg "path");
  Alcotest.(check (list string))
    "session.resolve reason arguments"
    [ "first resolve"; "no delta"; "re-tightened salary"; "add #3" ]
    (arg "reason");
  Alcotest.(check (list string)) "a level row's rebuild keeps the priorities" [ "kept" ]
    (arg "priorities");
  let st = Session.stats sess in
  Alcotest.(check int) "resolves" 4 st.Session.resolves;
  Alcotest.(check int) "cached" 1 st.Session.cached;
  Alcotest.(check int) "full: the first resolve only" 1 st.Session.full;
  Alcotest.(check int) "patched" 1 st.Session.patched;
  Alcotest.(check int) "incremental: patch and rebuild" 2 st.Session.incremental;
  Alcotest.(check bool) "frozen some work" true (st.Session.frozen > 0)

(* A rebuild carries the compiled problem's priorities unless a delta's
   edge change refuses them; traced, it says which it did, and names the
   first refusing delta and why.  Every resolve matches scratch. *)
let priorities_carried_or_computed () =
  let sess = Session.create ~lattice:fig1b (base_csts ()) in
  ignore (Session.resolve sess);
  let traced edit =
    edit ();
    Trace.start ();
    Fun.protect ~finally:Trace.stop (fun () -> check_matches ~ctx:"carry" fig1b sess);
    List.concat_map
      (fun (e : Trace.event) ->
        if e.ph = 'B' && e.name = "session.resolve" then
          List.filter_map
            (fun k ->
              match List.assoc_opt k e.args with Some (Trace.Str v) -> Some v | _ -> None)
            [ "priorities"; "refused" ]
        else [])
      (Trace.events ())
  in
  let check what want got = Alcotest.(check (list string)) what want got in
  check "a cycle closed" [ "computed"; "add #3: name finishes after salary" ]
    (traced (fun () -> ignore (Session.add_constraint sess (Helpers.attr_cst "salary" "name"))));
  check "the cycle opened" [ "computed"; "remove #3: name was reached from salary" ]
    (traced (fun () -> assert (Session.remove_constraint sess 3)));
  check "an edge into a later set" [ "kept" ]
    (traced (fun () -> ignore (Session.add_constraint sess (Helpers.attr_cst "rank" "salary"))));
  check "a new attribute above an old one" [ "shifted" ]
    (traced (fun () -> ignore (Session.add_constraint sess (Helpers.attr_cst "extra" "salary"))));
  check "an old attribute above a new one"
    [ "computed"; "add #6: name gains an edge into the new fresh" ]
    (traced (fun () -> ignore (Session.add_constraint sess (Helpers.attr_cst "name" "fresh"))))

(* [config] with a zero-step budget. *)
let stepless (config : SS.Config.t) =
  { config with budget = Some (Minup_core.Solver.budget ~max_steps:0 ()) }

let zero_steps () = stepless SS.Config.default

(* A zero-step budget cancels a rebuild resolve (here an added
   constraint and a re-tighten behind it): the deltas stay queued and the
   compiled problem the session had is left as it was, so the next
   resolve rebuilds again, for the same reason, and matches scratch. *)
let cancelled_rebuild () =
  let sess = Session.create ~lattice:fig1b (base_csts ()) in
  Session.set_lower_bound sess "salary" (Some (lvl "L1"));
  check_matches ~ctx:"initial" fig1b sess;
  let id = Session.add_constraint sess (Helpers.attr_cst "dept" "name") in
  Session.set_lower_bound sess "salary" (Some (lvl "L4"));
  let before = Session.stats sess in
  (match Session.resolve ~config:(zero_steps ()) sess with
  | _ -> Alcotest.fail "a zero-step rebuild resolve was not cancelled"
  | exception SS.Cancelled _ -> ());
  let after = Session.stats sess in
  Alcotest.(check int) "counted as incremental" (before.Session.incremental + 1)
    after.Session.incremental;
  Alcotest.(check int) "not full" before.Session.full after.Session.full;
  Alcotest.(check bool) "deltas still queued" true (Session.solution sess = None);
  Trace.start ();
  Fun.protect ~finally:Trace.stop (fun () -> check_matches ~ctx:"after cancel" fig1b sess);
  Alcotest.(check (list (pair string string)))
    "the retry rebuilds for the same reason"
    [ ("rebuild", Printf.sprintf "add #%d" id) ]
    (List.filter_map
       (fun (e : Trace.event) ->
         match (e.ph, e.name, List.assoc_opt "path" e.args, List.assoc_opt "reason" e.args) with
         | 'B', "session.resolve", Some (Trace.Str p), Some (Trace.Str r) -> Some (p, r)
         | _ -> None)
       (Trace.events ()));
  Alcotest.(check int) "full only for the first resolve" 1 (Session.stats sess).Session.full

(* An unbudgeted rebuild builds its problem in the old one's arrays.  If
   its solve fails all the same (here an event callback raises), the old
   problem is gone: the deltas stay queued and the next resolve starts
   from scratch, and matches a scratch solve. *)
let failed_rebuild_starts_over () =
  let sess = Session.create ~lattice:fig1b (base_csts ()) in
  check_matches ~ctx:"initial" fig1b sess;
  ignore (Session.add_constraint sess (Helpers.attr_cst "dept" "name"));
  let failing = SS.Config.make ~on_event:(fun _ -> raise Exit) () in
  (match Session.resolve ~config:failing sess with
  | _ -> Alcotest.fail "the failing rebuild returned"
  | exception Exit -> ());
  Alcotest.(check bool) "deltas still queued" true (Session.solution sess = None);
  let before = Session.stats sess in
  check_matches ~ctx:"after the failure" fig1b sess;
  Alcotest.(check int) "the next resolve is full" (before.Session.full + 1)
    (Session.stats sess).Session.full

(* Clearing the bound of an attribute the session has never seen still
   registers it: the next resolve must not be served from the cache. *)
let clear_unknown_bound () =
  let sess = Session.create ~lattice:fig1b (base_csts ()) in
  check_matches ~ctx:"initial" fig1b sess;
  Session.set_lower_bound sess "unseen" None;
  Alcotest.(check bool) "a delta is queued" true (Session.solution sess = None);
  check_matches ~ctx:"cleared bound on a new attribute" fig1b sess

let cycle_retighten_is_patched () =
  (* The non-binding complex constraint keeps the cycle on [Try]. *)
  let sess =
    Session.create ~lattice:fig1b
      [
        Helpers.attr_cst "a" "b";
        Helpers.attr_cst "b" "a";
        Helpers.assoc_cst [ "a"; "b" ] "L1";
        Helpers.level_cst "b" "L2";
        Helpers.attr_cst "c" "d";
      ]
  in
  Session.set_lower_bound sess "a" (Some (lvl "L1"));
  check_matches ~ctx:"initial" fig1b sess;
  (* The re-tighten raises a, so the patch path re-solves the {a, b}
     cycle whole and reuses the unrelated c -> d edge. *)
  Session.set_lower_bound sess "a" (Some (lvl "L4"));
  check_matches ~ctx:"cycle delta" fig1b sess;
  let st = Session.stats sess in
  Alcotest.(check int) "patched" 1 st.Session.patched;
  Alcotest.(check int) "incremental" 1 st.Session.incremental;
  Alcotest.(check int) "full only for the first resolve" 1 st.Session.full;
  Alcotest.(check int) "frozen c and d" 2 st.Session.frozen

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

(* A session sorts each row's lhs when it indexes, as a compile does:
   bounds that make the association [{z, y, x} >= L4], written unsorted,
   infeasible get the error a scratch compile of the policy gives, its
   lhs in id order, from a session made from text and from one made from
   constraints. *)
let indexed_rows_are_sorted () =
  let text = "attrs x, y, z\n{z, y, x} >= L4\n" in
  let level_of_string = Explicit.level_of_string fig1b in
  let bounds = [ ("x", lvl "L1"); ("y", lvl "L1"); ("z", lvl "L1") ] in
  let show = function
    | Ok _ -> "ok"
    | Error i -> Format.asprintf "%a" (SS.pp_inconsistency fig1b) i
  in
  let pr = Result.get_ok (Parse.parse_resolve ~level_of_string text) in
  let scratch =
    SS.solve_with_bounds (SS.compile_exn ~lattice:fig1b ~attrs:pr.Parse.attrs pr.Parse.csts) bounds
  in
  Alcotest.(check bool) "scratch lists the lhs in id order" true
    (Helpers.contains ~needle:"λ(x), λ(y), λ(z)" (show scratch));
  List.iter
    (fun (ctx, sess) ->
      Alcotest.(check string) ctx (show scratch) (show (Session.resolve_with_bounds sess bounds)))
    [
      ("of_rows", Session.of_rows ~lattice:fig1b (Result.get_ok (Parse.rows ~level_of_string text)));
      ("create", Session.create ~lattice:fig1b ~attrs:pr.Parse.attrs pr.Parse.csts);
    ]

(* Removed rows are reclaimed and ids stay stable: on a session opened
   from text (whose lines share level entries), 10 000 cycles that add a
   two-member constraint and remove a random live id keep [tgt] within
   twice the live lhs entries plus a constant, and [levels] too; a
   removed id cannot be removed again, and every resolve equals a scratch
   solve of the snapshot. *)
let removed_rows_are_reclaimed () =
  let rng = Random.State.make [| 31 |] in
  let levels = Explicit.all fig1b in
  let attr () = Printf.sprintf "a%d" (Random.State.int rng 24) in
  let rec pair () =
    let a = attr () and b = attr () in
    if a = b then pair () else [ a; b ]
  in
  let cst () =
    let lhs = pair () in
    Cst.make_exn ~lhs
      ~rhs:
        (match Random.State.int rng 4 with
        | 0 -> Cst.Attr (List.hd lhs)
        | 1 -> Cst.Attr (attr ())
        | _ -> Cst.Level (List.nth levels (Random.State.int rng (List.length levels))))
  in
  let text =
    "attrs a0, a1\n{a0, a1} >= L3\n{a2, a3, a4} >= a5\na5 >= L3\n{a6, a7} >= a6\n{a8, a9} >= L3\n"
  in
  let r = Result.get_ok (Parse.rows ~level_of_string:(Explicit.level_of_string fig1b) text) in
  let sess = Session.of_rows ~lattice:fig1b r in
  let live = ref [ 0; 1; 2; 3; 4 ] in
  check_matches ~ctx:"opened" fig1b sess;
  for cycle = 1 to 10_000 do
    live := Session.add_constraint sess (cst ()) :: !live;
    let victim = List.nth !live (Random.State.int rng (List.length !live)) in
    live := List.filter (fun id -> id <> victim) !live;
    if not (Session.remove_constraint sess victim) then
      Alcotest.failf "cycle %d: #%d not removed" cycle victim;
    if Session.remove_constraint sess victim then
      Alcotest.failf "cycle %d: #%d removed twice" cycle victim;
    let lines, n_ids = Session.lines sess in
    let entries =
      List.fold_left (fun n id -> n + lines.Problem.off.(id + 1) - lines.Problem.off.(id)) 0 !live
    in
    if n_ids <> cycle + 5 then Alcotest.failf "cycle %d: %d ids" cycle n_ids;
    if Array.length lines.Problem.tgt > (2 * entries) + 32 then
      Alcotest.failf "cycle %d: tgt holds %d entries for %d live ones" cycle
        (Array.length lines.Problem.tgt) entries;
    if Array.length lines.Problem.levels > (2 * entries) + 32 then
      Alcotest.failf "cycle %d: %d level entries for %d live lhs entries" cycle
        (Array.length lines.Problem.levels) entries;
    check_matches ~ctx:(Printf.sprintf "cycle %d" cycle) fig1b sess
  done;
  Alcotest.(check bool) "an id never handed out" false (Session.remove_constraint sess 10_005)

(* Bounds are keyed by attribute: setting and clearing one bound
   100 000 times leaves nothing behind.  Set once more, the bound makes
   the same snapshot as on a fresh session that set it once, and the
   rebuild resolve allocates within a constant of that session's and
   equals a scratch solve. *)
let bound_churn_leaves_nothing () =
  let session () =
    let sess =
      Session.create ~lattice:fig1b
        [ Helpers.attr_cst "x" "y"; Helpers.level_cst "y" "L2"; Helpers.attr_cst "z" "x" ]
    in
    Session.set_lower_bound sess "z" (Some (lvl "L3"));
    ignore (Session.resolve sess);
    sess
  in
  let churned = session () and fresh = session () in
  let l4 = Some (lvl "L4") in
  (* Each cycle dirties x once more: it is on the dirty list once. *)
  let w_cycles =
    Helpers.words (fun () ->
        for _ = 1 to 100_000 do
          Session.set_lower_bound churned "x" l4;
          Session.set_lower_bound churned "x" None
        done)
  in
  if w_cycles >= 3. *. 100_000. then
    Alcotest.failf "100 000 bound cycles allocated %.0f words, a cons a cycle at least" w_cycles;
  List.iter (fun sess -> Session.set_lower_bound sess "x" (Some (lvl "L5"))) [ churned; fresh ];
  Alcotest.(check bool) "same snapshot" true (Session.snapshot churned = Session.snapshot fresh);
  let w_fresh = Helpers.words (fun () -> Session.resolve fresh) in
  let w_churned = Helpers.words (fun () -> Session.resolve churned) in
  if w_churned > w_fresh +. 64. then
    Alcotest.failf "a rebuild after 100 000 bound cycles allocated %.0f words, %.0f fresh (bound +64)"
      w_churned w_fresh;
  check_matches ~ctx:"after the cycles" fig1b churned

let untouched_subgraph_is_frozen () =
  (* Two disconnected chains; re-tightening the bound on one must reuse
     the other. *)
  let sess =
    Session.create ~lattice:fig1b
      [
        Helpers.attr_cst "x0" "x1";
        Helpers.level_cst "y1" "L3";
        Helpers.attr_cst "y0" "y1";
      ]
  in
  Session.set_lower_bound sess "x1" (Some (lvl "L2"));
  ignore (Session.resolve sess);
  Session.set_lower_bound sess "x1" (Some (lvl "L4"));
  check_matches ~ctx:"one chain edited" fig1b sess;
  let st = Session.stats sess in
  Alcotest.(check int) "patched" 1 st.Session.patched;
  Alcotest.(check int) "incremental" 1 st.Session.incremental;
  (* x1 rose, so x0 is re-solved too; y0 and y1 are reused. *)
  Alcotest.(check int) "y0 and y1 reused" 2 st.Session.frozen

(* Widen rule (b): a removed row splits a component, and a piece that
   holds no dirty member and reads no changed level must still be
   labeled again.  Over s0 < sc < sf, [a, b, c, d, e] is one cycle, and
   its solve puts [a] and [e] at sf, so that [{a, d} >= sf] holds
   through [a].  Removing [b >= c] (dirty: [b]) splits it into {b},
   then {a, e}, then {d}, then {c}.  [b] stays at s0, so nothing {a, e}
   reads changes; the last-labeled member of {a, d} is [d] in both
   orders, so rule (c) marks nothing.  A scratch solve labels {a, e}
   while [d] is still at its top, takes both down to s0 and leaves
   [{a, d} >= sf] to [d]: reusing {a, e}'s sf would give another
   minimal solution than scratch. *)
let split_component_is_relabeled () =
  let lat =
    Result.get_ok (Minup_lattice.Lattice_file.parse "levels s0, sc, sf\ns0 < sc\nsc < sf\n")
  in
  let r =
    Result.get_ok
      (Parse.rows ~level_of_string:(Explicit.level_of_string lat)
         "{a, d} >= sf\na >= b\nb >= c\nc >= d\n{a, d} >= e\ne >= a\n")
  in
  let sess = Session.of_rows ~lattice:lat r in
  let level a (sol : SS.solution) =
    Explicit.level_to_string lat sol.SS.levels.(Option.get (Minup_constraints.Problem.Names.find_opt r.Parse.attr_index a))
  in
  let before = Session.resolve sess in
  Alcotest.(check (list string)) "a and e carry the association" [ "sf"; "sf"; "s0" ]
    (List.map (fun a -> level a before) [ "a"; "e"; "d" ]);
  Alcotest.(check bool) "remove b >= c" true (Session.remove_constraint sess 2);
  check_matches ~ctx:"split component" lat sess;
  Alcotest.(check (list string)) "d carries it after the split" [ "s0"; "s0"; "sf" ]
    (List.map (fun a -> level a (Session.resolve sess)) [ "a"; "e"; "d" ])

let random_spec lat =
  {
    Gen.n_attrs = 14;
    n_simple = 18;
    n_complex = 7;
    max_lhs = 3;
    n_constants = 6;
    constants = Explicit.all lat;
  }

(* What one random edit asks of the next resolve: nothing, a re-tightened
   bound the compiled problem already has (the patch path), or a
   recompile. *)
type edit = Noop | Retighten | Structural

(* A zero-step budget must cancel a patch-path resolve and leave its
   deltas queued. *)
let cancel_patch ~config ~ctx sess =
  let config = stepless config in
  let patched = (Session.stats sess).Session.patched in
  (match Session.resolve ~config sess with
  | _ -> Alcotest.failf "%s: a zero-step patch resolve was not cancelled" ctx
  | exception SS.Cancelled _ -> ());
  if (Session.stats sess).Session.patched <> patched + 1 then
    Alcotest.failf "%s: the cancelled resolve did not take the patch path" ctx;
  if Option.is_some (Session.solution sess) then
    Alcotest.failf "%s: the cancelled resolve consumed its deltas" ctx

(* A zero-step budget on a structural batch's resolve: cancelled, it
   leaves the deltas queued; a rebuild that relabels nothing takes no
   step, completes, goes to [keep] and must match scratch. *)
let cancel_rebuild ~config ~keep ~ctx lat sess =
  let before = Session.stats sess in
  (match Session.resolve ~config:(stepless config) sess with
  | sol ->
      keep sol;
      if not (same_levels lat sol.SS.levels (scratch ~config lat sess).SS.levels) then
        Alcotest.failf "%s: a stepless rebuild diverges from scratch" ctx
  | exception SS.Cancelled _ ->
      if Option.is_some (Session.solution sess) then
        Alcotest.failf "%s: the cancelled rebuild consumed its deltas" ctx);
  let after = Session.stats sess in
  if
    after.Session.incremental <> before.Session.incremental + 1
    || after.Session.full <> before.Session.full
  then Alcotest.failf "%s: a structural batch did not take the rebuild path" ctx

(* A random editing session: 1–3 deltas between resolves, and every
   resolve must match the scratch solve of the snapshot.  Once per
   session a patch-path resolve is cancelled first.  A third of the
   seeds, of every shape, solve under an upgrade preference, the session
   and the scratch solve alike.  Every solution the session returns is
   kept with a copy of its levels, and none may have changed by the end:
   a later resolve never writes an array an earlier one returned. *)
let random_session seed =
  let rng = Prng.create seed in
  let config =
    if seed / 3 mod 3 = 0 then
      SS.Config.make ~upgrade_preference:(fun a -> Hashtbl.hash (seed, a) mod 5) ()
    else SS.Config.default
  in
  let held = ref [] in
  let keep (sol : SS.solution) = held := (sol.SS.levels, Array.copy sol.SS.levels) :: !held in
  let check_matches ~ctx lat sess = keep (resolve_matches ~config ~ctx lat sess) in
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
  let bounded = Hashtbl.create 8 in
  let levels = Explicit.all lat in
  let fresh = ref 0 in
  let set_bound a l =
    let had = Hashtbl.mem bounded a in
    Session.set_lower_bound sess a l;
    match l with
    | Some _ ->
        Hashtbl.replace bounded a ();
        if had then Retighten else Structural
    | None ->
        Hashtbl.remove bounded a;
        if had then Structural else Noop
  in
  let edit () =
    match Prng.int rng 6 with
    | 0 -> (
        let lhs = Prng.sample rng (1 + Prng.int rng 3) attrs in
        let rhs =
          if Prng.bool rng then Cst.Level (Prng.pick rng levels)
          else Cst.Attr (Prng.pick rng attrs)
        in
        match Cst.make ~lhs ~rhs with
        | Ok c ->
            ids := Session.add_constraint sess c :: !ids;
            Structural
        | Error _ -> Noop)
    | 1 when !ids <> [] ->
        let id = Prng.pick rng !ids in
        ignore (Session.remove_constraint sess id);
        ids := List.filter (fun i -> i <> id) !ids;
        Structural
    | 2 | 3 -> set_bound (Prng.pick rng attrs) (Some (Prng.pick rng levels))
    | 4 -> set_bound (Prng.pick rng attrs) None
    | _ ->
        incr fresh;
        Session.add_attribute sess (Printf.sprintf "z%d" !fresh);
        Structural
  in
  let cancelled = ref false and cancelled_rebuild = ref false in
  check_matches ~ctx:"initial" lat sess;
  for step = 1 to 10 do
    let edits = List.init (1 + Prng.int rng 3) (fun _ -> edit ()) in
    let ctx = Printf.sprintf "seed %d step %d" seed step in
    let retighten_only = List.mem Retighten edits && not (List.mem Structural edits) in
    if (not !cancelled) && retighten_only then begin
      cancelled := true;
      cancel_patch ~config ~ctx sess
    end;
    if (not !cancelled_rebuild) && List.mem Structural edits then begin
      cancelled_rebuild := true;
      cancel_rebuild ~config ~keep ~ctx lat sess
    end;
    let before = Session.stats sess in
    check_matches ~ctx lat sess;
    let after = Session.stats sess in
    (* A batch of re-tightens only takes the patch path, cycle or not. *)
    if
      retighten_only
      && (after.Session.incremental <> before.Session.incremental + 1
         || after.Session.full <> before.Session.full)
    then Alcotest.failf "%s: a re-tighten-only batch did not resolve incrementally" ctx
  done;
  if not !cancelled then begin
    let a = List.hd attrs in
    if set_bound a (Some (List.hd levels)) = Structural then
      check_matches ~ctx:(Printf.sprintf "seed %d first bound" seed) lat sess;
    (* The same attribute re-tightened twice in one batch. *)
    ignore (set_bound a (Some (List.nth levels 1)));
    ignore (set_bound a (Some (List.hd levels)));
    let ctx = Printf.sprintf "seed %d re-tighten" seed in
    cancel_patch ~config ~ctx sess;
    check_matches ~ctx lat sess
  end;
  List.iteri
    (fun i (levels, copy) ->
      if not (same_levels lat levels copy) then
        Alcotest.failf "seed %d: the solution of resolve %d from the end was written since" seed i)
    !held

(* Their rebuilds carry the priorities, or compute them, both; and they
   edit the compiled problem in place, or index the rows again, both. *)
let random_sessions () =
  let carried = ref 0 and edited = ref 0 and rebuilt = ref 0 in
  let computed =
    Helpers.metered "session/priorities_computed" (fun () ->
        for seed = 0 to 24 do
          random_session seed
        done;
        let value name = Minup_obs.Metrics.(counter_value (counter name)) in
        carried := value "session/priorities_kept";
        edited := value "session/index_edited";
        rebuilt := value "session/index_rebuilt")
  in
  if !carried = 0 || computed = 0 then
    Alcotest.failf "rebuilds: %d carried, %d computed; some of each expected" !carried computed;
  if !edited = 0 || !rebuilt = 0 then
    Alcotest.failf "rebuilds: %d edited, %d re-indexed; some of each expected" !edited !rebuilt

(* {2 State model}

   A seeded run of edits checked, after every edit, against a naive
   list-based model of the session state: the attribute universe in
   first-mention order, user constraints in id order, bounds in first-set
   order (a cleared bound that is set again goes to the end), and what
   [remove_constraint] answers.  [snapshot] order is what keeps compiled
   constraint indices stable from one resolve to the next. *)

type model = {
  mutable m_attrs : string list;
  mutable m_entries : (int * Explicit.level Cst.t) list;
  mutable m_next : int;
  mutable m_bounds : (string * Explicit.level) list;
}

let session_state_model () =
  let rng = Prng.create 2024 in
  let levels = Array.of_seq (Explicit.levels fig1b) in
  let level () = levels.(Prng.int rng (Array.length levels)) in
  let n_names = ref 8 in
  let name () =
    (* Mostly known names, sometimes a fresh one. *)
    if Prng.int rng 10 = 0 then incr n_names;
    Printf.sprintf "x%d" (Prng.int rng !n_names)
  in
  let sess = Session.create ~lattice:fig1b [] in
  let m = { m_attrs = []; m_entries = []; m_next = 0; m_bounds = [] } in
  let register a = if not (List.mem a m.m_attrs) then m.m_attrs <- m.m_attrs @ [ a ] in
  let render c = Format.asprintf "%a" (Cst.pp (Explicit.pp_level fig1b)) c in
  let check step =
    let attrs, csts = Session.snapshot sess in
    let expected =
      List.map snd m.m_entries
      @ List.map
          (fun (a, l) -> Cst.make_exn ~lhs:[ a ] ~rhs:(Cst.Level l))
          m.m_bounds
    in
    Alcotest.(check (list string)) (Printf.sprintf "step %d attrs" step) m.m_attrs attrs;
    Alcotest.(check (list string))
      (Printf.sprintf "step %d constraints" step)
      (List.map render expected) (List.map render csts)
  in
  let removed = ref [] in
  for step = 1 to 2_000 do
    (match Prng.int rng 7 with
    | 0 | 1 ->
        let k = 1 + Prng.int rng 3 in
        let lhs = List.sort_uniq compare (List.init k (fun _ -> name ())) in
        let rhs = if Prng.bool rng then Cst.Attr (name ()) else Cst.Level (level ()) in
        let c = Cst.make_exn ~lhs ~rhs in
        List.iter register (Cst.attrs c);
        let id = Session.add_constraint sess c in
        Alcotest.(check int) (Printf.sprintf "step %d id" step) m.m_next id;
        m.m_entries <- m.m_entries @ [ (id, c) ];
        m.m_next <- id + 1
    | 2 -> (
        match m.m_entries with
        | [] -> ()
        | live ->
            let id, _ = List.nth live (Prng.int rng (List.length live)) in
            Alcotest.(check bool) (Printf.sprintf "step %d remove" step) true
              (Session.remove_constraint sess id);
            m.m_entries <- List.filter (fun (i, _) -> i <> id) m.m_entries;
            removed := id :: !removed)
    | 3 ->
        (* Removing again, or an id never handed out, answers false. *)
        let id =
          match !removed with
          | _ :: _ when Prng.bool rng -> List.nth !removed (Prng.int rng (List.length !removed))
          | _ -> if Prng.bool rng then m.m_next + Prng.int rng 3 else -1 - Prng.int rng 3
        in
        Alcotest.(check bool) (Printf.sprintf "step %d re-remove" step) false
          (Session.remove_constraint sess id)
    | 4 ->
        let a = name () and l = level () in
        Session.set_lower_bound sess a (Some l);
        register a;
        m.m_bounds <-
          (if List.mem_assoc a m.m_bounds then
             List.map (fun (b, l') -> if b = a then (b, l) else (b, l')) m.m_bounds
           else m.m_bounds @ [ (a, l) ])
    | 5 ->
        let a =
          match m.m_bounds with
          | _ :: _ when Prng.int rng 4 > 0 ->
              fst (List.nth m.m_bounds (Prng.int rng (List.length m.m_bounds)))
          | _ -> name ()
        in
        Session.set_lower_bound sess a None;
        register a;
        m.m_bounds <- List.remove_assoc a m.m_bounds
    | _ ->
        let a = name () in
        Session.add_attribute sess a;
        register a);
    check step;
    if step mod 250 = 0 then
      check_matches ~ctx:(Printf.sprintf "model step %d" step) fig1b sess
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
  | { Wire.body = Wire.Levels { stats = None; _ } as body; _ } ->
      Alcotest.(check (option (list (pair string string))))
        "assignment"
        (Some [ ("secret", "Secret"); ("name", "Public"); ("salary", "Secret") ])
        (Wire.solution_pairs body)
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
  | { Wire.body = Wire.Levels { stats = Some _; _ } as body; _ } ->
      Alcotest.(check (option (list (pair string string))))
        "assignment after delta"
        (Some [ ("secret", "Secret"); ("name", "Public"); ("salary", "TopSecret") ])
        (Wire.solution_pairs body)
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

(* An error envelope whose detail names [field]. *)
let check_error_names what field (w : Wire.t) =
  match w.Wire.body with
  | Wire.Error { detail } ->
      if not (Helpers.contains ~needle:field detail) then
        Alcotest.failf "%s: error %S does not name %s" what detail field
  | _ -> Alcotest.failf "%s: expected an error, got status %s" what (Wire.status w)

(* Integer fields are checked, never wrapped: a value out of [0, 2^53)
   gets an error naming its field, and the request does nothing. *)
let serve_int_fields () =
  let conn = Serve.create () in
  check_status "open" "ok" (open_req conn "p");
  let req op fields =
    serve_req conn (("op", Json.Str op) :: ("problem", Json.Str "p") :: fields)
  in
  check_error_names "huge id" "\"id\"" (req "remove_constraint" [ ("id", Json.Num 1e300) ]);
  check_error_names "negative id" "\"id\"" (req "remove_constraint" [ ("id", Json.Num (-1.)) ]);
  check_error_names "huge max_steps" "\"max_steps\""
    (req "resolve" [ ("max_steps", Json.Num 1e300) ]);
  check_error_names "negative deadline_ms" "\"deadline_ms\""
    (req "resolve" [ ("deadline_ms", Json.Num (-5.)) ]);
  (* Constraint 0 is still there: removing it succeeds once. *)
  check_status "constraint 0 kept" "ok" (req "remove_constraint" [ ("id", Json.Num 0.) ]);
  check_status "a valid budget" "ok"
    (req "resolve" [ ("max_steps", Json.Num 1000.); ("deadline_ms", Json.Num 60000.) ])

(* Attribute names the policy syntax cannot express are rejected, so no
   solution ever holds one. *)
let serve_attr_names () =
  let conn = Serve.create () in
  check_status "open" "ok" (open_req conn "p");
  let req op attr extra =
    serve_req conn
      (("op", Json.Str op) :: ("problem", Json.Str "p") :: ("attr", Json.Str attr) :: extra)
  in
  List.iter
    (fun attr ->
      check_error_names ("bound on " ^ attr) "attribute name"
        (req "set_lower_bound" attr [ ("level", Json.Str "Secret") ]);
      check_error_names ("add " ^ attr) "attribute name" (req "add_attribute" attr []))
    [ ""; "a b"; "x>=y"; "{a}"; "a,b"; "#c" ];
  check_status "a valid name" "ok" (req "add_attribute" "dept.head-2_x" []);
  match
    Wire.solution_pairs
      (serve_req conn [ ("op", Json.Str "resolve"); ("problem", Json.Str "p") ]).Wire.body
  with
  | Some pairs ->
      Alcotest.(check (list string)) "attributes"
        [ "secret"; "name"; "salary"; "dept.head-2_x" ]
        (List.map fst pairs)
  | None -> Alcotest.fail "resolve: no solution"

(* Serve keeps each session's last solution reply as runs of 64
   attributes and renders again only the runs whose attributes or levels
   changed.  On policies of 63, 64, 65 and 131 attributes (one run less
   one, one run, one more, two runs and three) with random constraints,
   under a problem name that needs escaping, every solution reply must be
   the bytes of the list-based [Wire.Solution] of the pairs a mirror
   session driven by the same deltas returns: the first resolve; an
   unchanged one (cached, then a no-op re-tighten); a level change in the
   first run (A0) and in the last (the last attribute, both constrained
   by their bounds only); a first bound in between; [stats:true]; a
   bounded resolve; names added until a new run opens, with a resolve
   after the first of them too; a constraint over a name not known yet.
   The reply must also read back as the pairs.  The mirror's statistics
   show the cached, patch and rebuild paths were all taken, the added
   constraint's resolve a rebuild. *)
let serve_reply_runs =
  QCheck.Test.make ~count:60 ~name:"serve replies are the Solution bytes as names grow"
    Helpers.seed_arb (fun seed ->
      let rng = Prng.create seed in
      let problem = "q\"uo\\te\tp" in
      let lat = fig1b in
      let level_name () = Printf.sprintf "L%d" (1 + Prng.int rng 6) in
      let n = [| 63; 64; 65; 131 |].(seed mod 4) in
      let a i = Printf.sprintf "A%d" i in
      let inner () = 1 + Prng.int rng (n - 2) in
      let csts =
        List.concat
          (List.init (n - 2) (fun k ->
               let i = k + 1 in
               (if i > 1 && Prng.bool rng then [ Cst.simple (a i) (Cst.Attr (a (1 + Prng.int rng (i - 1)))) ]
                else [])
               @ (if Prng.int rng 3 = 0 then [ Cst.simple (a i) (Cst.Level (lvl (level_name ()))) ]
                  else [])
               @
               if Prng.int rng 8 = 0 then
                 let j = inner () in
                 let j = if j = i then (i mod (n - 2)) + 1 else j in
                 [ Cst.make_exn ~lhs:[ a i; a j ] ~rhs:(Cst.Level (lvl (level_name ()))) ]
               else []))
      in
      let text =
        Parse.render ~level_to_string:(Explicit.level_to_string lat)
          { Parse.attrs = List.init n a; csts; upper_bounds = [] }
      in
      let mirror =
        match Parse.rows ~level_of_string:(Explicit.level_of_string lat) text with
        | Ok rows -> Session.of_rows ~lattice:lat rows
        | Error _ -> QCheck.Test.fail_report "the policy does not parse"
      in
      let conn = Serve.create () in
      let req fields = serve_req conn (("problem", Json.Str problem) :: fields) in
      let ok what w =
        if Wire.status w <> "ok" then QCheck.Test.fail_reportf "%s: status %s" what (Wire.status w)
      in
      let check_reply what (expected : SS.solution) ~stats w =
        let pairs =
          List.map (fun (a, l) -> (a, Explicit.level_to_string lat l)) expected.SS.assignment
        in
        let stats = if stats then Some expected.SS.stats else None in
        let want = Wire.v1 ~problem (Wire.Solution { assignment = pairs; stats }) in
        if Json.to_string (Wire.to_json w) <> Json.to_string (Wire.to_json want) then
          QCheck.Test.fail_reportf "%d attrs, %s: the reply is not the Solution's bytes" n what;
        if Wire.solution_pairs w.Wire.body <> Some pairs then
          QCheck.Test.fail_reportf "%d attrs, %s: the reply does not read back as its pairs" n
            what
      in
      let resolve ?(stats = false) what =
        check_reply what (Session.resolve mirror) ~stats
          (req (("op", Json.Str "resolve") :: (if stats then [ ("stats", Json.Bool true) ] else [])))
      in
      let bound x l =
        Session.set_lower_bound mirror x (Some (lvl l));
        ok ("bound " ^ x)
          (req [ ("op", Json.Str "set_lower_bound"); ("attr", Json.Str x); ("level", Json.Str l) ])
      in
      let other l = Printf.sprintf "L%d" (1 + ((int_of_string (String.sub l 1 1) + Prng.int rng 5) mod 6)) in
      ok "open"
        (req
           [
             ("op", Json.Str "open");
             ("lattice", Json.Str (Minup_lattice.Lattice_file.to_string lat));
             ("constraints", Json.Str text);
           ]);
      let first = level_name () and last = level_name () in
      bound (a 0) first;
      bound (a (n - 1)) last;
      resolve "first resolve";
      resolve "cached";
      bound (a 0) first;
      resolve "no-op re-tighten";
      let first = other first in
      bound (a 0) first;
      resolve "first run changed";
      bound (a (n - 1)) (other last);
      resolve "last run changed";
      bound (a (inner ())) (level_name ());
      resolve "first bound";
      bound (a 0) (other first);
      resolve ~stats:true "stats";
      let bounds = [ (a (inner ()), "L6"); (a 0, "L6") ] in
      (match
         Session.resolve_with_bounds mirror (List.map (fun (x, l) -> (x, lvl l)) bounds)
       with
      | Ok expected ->
          check_reply "bounded" expected ~stats:false
            (req
               [
                 ("op", Json.Str "resolve");
                 ("bounds", Json.Obj (List.map (fun (x, l) -> (x, Json.Str l)) bounds));
               ])
      | Error _ -> QCheck.Test.fail_report "bounded resolve infeasible");
      let added = (64 * ((n + 63) / 64)) - n + 1 in
      for k = 0 to added - 1 do
        let x = Printf.sprintf "N%d" k in
        Session.add_attribute mirror x;
        ok "add_attribute" (req [ ("op", Json.Str "add_attribute"); ("attr", Json.Str x) ]);
        if k = 0 then resolve "one name added"
      done;
      bound (Printf.sprintf "N%d" (added - 1)) "L5";
      resolve "a new run";
      resolve "cached after a new run";
      let before = Session.stats mirror in
      let text = Printf.sprintf "C >= %s" (a (inner ())) in
      (match Parse.parse_resolve ~level_of_string:(Explicit.level_of_string lat) text with
      | Ok { Parse.csts = [ c ]; _ } -> ignore (Session.add_constraint mirror c)
      | _ -> QCheck.Test.fail_reportf "bad constraint %S" text);
      ok "add_constraint" (req [ ("op", Json.Str "add_constraint"); ("constraint", Json.Str text) ]);
      resolve "new name in a constraint";
      let st = Session.stats mirror in
      if
        st.Session.incremental <> before.Session.incremental + 1
        || st.Session.patched <> before.Session.patched
        || st.Session.full <> before.Session.full
      then QCheck.Test.fail_report "the added constraint's resolve was not a rebuild";
      if
        not
          (st.Session.cached >= 2 && st.Session.patched >= 3
          && st.Session.incremental - st.Session.patched >= 4)
      then QCheck.Test.fail_report "the resolves missed the cached, patch or rebuild path";
      true)

(* {2 Sessions opened from text}

   Serve's [open] builds its session from the policy text's rows
   ([Parse.rows], then [Session.of_rows]); [Session.create] builds one
   from [Parse.parse_resolve]'s constraints.  On random policies, with
   every lhs written in a shuffled order, trivial lines (the first, two
   adjacent ones at a random place, the last) and an rhs-only attribute,
   the two sessions and a serve connection that opened the same text are
   driven by the same deltas, the first of which removes the first
   line.  The two sessions
   must agree on every name, snapshot, resolve (levels and counters) and
   [stats], and the serve replies on every level; each session's first
   resolve is bit-identical to compiling and solving its snapshot. *)

let text_policy rng lat =
  let spec = random_spec lat in
  let attrs, csts =
    match Prng.int rng 3 with
    | 0 -> Gen.acyclic rng spec
    | 1 -> Gen.single_scc rng spec
    | _ -> Gen.mixed rng spec ~n_islands:2 ~island_size:4
  in
  let shuffled (c : _ Cst.t) =
    let lhs = Array.of_list c.Cst.lhs in
    Prng.shuffle rng lhs;
    Cst.make_exn ~lhs:(Array.to_list lhs) ~rhs:c.Cst.rhs
  in
  let trivial () =
    let lhs = Prng.sample rng (1 + Prng.int rng 3) attrs in
    Cst.make_exn ~lhs ~rhs:(Cst.Attr (Prng.pick rng lhs))
  in
  let csts = List.map shuffled csts in
  let at = Prng.int rng (List.length csts + 1) in
  let csts =
    (trivial () :: List.filteri (fun i _ -> i < at) csts)
    @ [ trivial (); trivial () ]
    @ List.filteri (fun i _ -> i >= at) csts
  in
  let policy =
    { Parse.attrs = (if Prng.bool rng then attrs else []); csts; upper_bounds = [] }
  in
  Parse.render ~level_to_string:(Explicit.level_to_string lat) policy
  ^ "A2 >= rhs_only\n{A1, A0} >= A1\n"

let same_solution ~ctx lat (a : SS.solution) (b : SS.solution) =
  if not (Array.length a.SS.levels = Array.length b.SS.levels
          && Array.for_all2 (Explicit.equal lat) a.SS.levels b.SS.levels)
  then Alcotest.failf "%s: levels differ" ctx;
  if a.SS.stats <> b.SS.stats then Alcotest.failf "%s: operation counters differ" ctx

let opened_from_text seed =
  let rng = Prng.create seed in
  let lat = fig1b in
  let text = text_policy rng lat in
  let ctx = Printf.sprintf "seed %d" seed in
  let level_of_string = Explicit.level_of_string lat in
  let rows = Result.get_ok (Parse.rows ~level_of_string text) in
  let pr = Result.get_ok (Parse.parse_resolve ~level_of_string text) in
  let a = Session.of_rows ~lattice:lat rows in
  let b = Session.create ~lattice:lat ~attrs:pr.Parse.attrs pr.Parse.csts in
  let conn = Serve.create () in
  let req fields = serve_req conn (("problem", Json.Str "p") :: fields) in
  check_status (ctx ^ ": open") "ok"
    (req
       [
         ("op", Json.Str "open");
         ("lattice", Json.Str (Minup_lattice.Lattice_file.to_string lat));
         ("constraints", Json.Str text);
       ]);
  let agree step =
    let ctx = Printf.sprintf "%s step %d" ctx step in
    let sa = Session.snapshot a and sb = Session.snapshot b in
    if sa <> sb then Alcotest.failf "%s: snapshots differ" ctx;
    List.iteri
      (fun i n ->
        if Session.name a i <> n || Session.name b i <> n then
          Alcotest.failf "%s: name %d differs" ctx i)
      (fst sa);
    if Session.stats a <> Session.stats b then Alcotest.failf "%s: stats differ" ctx
  in
  (* Every resolve of [a] and [b], and the serve reply, agree. *)
  let resolve step =
    let ctx = Printf.sprintf "%s step %d" ctx step in
    let sol_a = Session.resolve a and sol_b = Session.resolve b in
    same_solution ~ctx lat sol_a sol_b;
    if step = 0 then
      List.iter
        (fun (sess, sol) ->
          let attrs, csts = Session.snapshot sess in
          same_solution ~ctx:(ctx ^ ": first resolve vs compile") lat
            (SS.solve (SS.compile_exn ~lattice:lat ~attrs csts))
            sol)
        [ (a, sol_a); (b, sol_b) ];
    let pairs =
      List.mapi (fun i l -> (Session.name a i, Explicit.level_to_string lat l))
        (Array.to_list sol_a.SS.levels)
    in
    Alcotest.(check (option (list (pair string string))))
      (ctx ^ ": serve reply") (Some pairs)
      (Wire.solution_pairs (req [ ("op", Json.Str "resolve") ]).Wire.body);
    agree step
  in
  let ids = ref (List.init (List.length pr.Parse.csts) Fun.id) in
  let next = ref (List.length pr.Parse.csts) in
  let names () = fst (Session.snapshot a) in
  let levels = Explicit.all lat in
  let fresh = ref 0 in
  let remove id =
    ids := List.filter (( <> ) id) !ids;
    Alcotest.(check bool) (ctx ^ ": remove") true (Session.remove_constraint a id);
    Alcotest.(check bool) (ctx ^ ": remove") true (Session.remove_constraint b id);
    check_status (ctx ^ ": remove") "ok"
      (req [ ("op", Json.Str "remove_constraint"); ("id", Json.Num (float_of_int id)) ])
  in
  let delta () =
    match Prng.int rng 7 with
    | 0 ->
        let lhs = Prng.sample rng (1 + Prng.int rng 3) (names ()) in
        let rhs =
          if Prng.bool rng then Cst.Level (Prng.pick rng levels)
          else Cst.Attr (Prng.pick rng (names ()))
        in
        let c = Cst.make_exn ~lhs ~rhs in
        let line =
          String.trim
            (Parse.render ~level_to_string:(Explicit.level_to_string lat)
               { Parse.attrs = []; csts = [ c ]; upper_bounds = [] })
        in
        let id = Session.add_constraint a c in
        Alcotest.(check int) (ctx ^ ": add id") id (Session.add_constraint b c);
        Alcotest.(check int) (ctx ^ ": add id") !next id;
        incr next;
        ids := id :: !ids;
        check_status (ctx ^ ": add") "ok"
          (req [ ("op", Json.Str "add_constraint"); ("constraint", Json.Str line) ])
    | 1 when !ids <> [] -> remove (Prng.pick rng !ids)
    | 2 | 3 ->
        (* A first bound, a re-tightened one or a cleared one. *)
        let x = Prng.pick rng (names ()) in
        let l = if Prng.int rng 4 = 0 then None else Some (Prng.pick rng levels) in
        Session.set_lower_bound a x l;
        Session.set_lower_bound b x l;
        check_status (ctx ^ ": bound") "ok"
          (req
             [
               ("op", Json.Str "set_lower_bound");
               ("attr", Json.Str x);
               ( "level",
                 match l with
                 | Some l -> Json.Str (Explicit.level_to_string lat l)
                 | None -> Json.Null );
             ])
    | 4 ->
        incr fresh;
        let x = Printf.sprintf "new%d" !fresh in
        Session.add_attribute a x;
        Session.add_attribute b x;
        check_status (ctx ^ ": add_attribute") "ok"
          (req [ ("op", Json.Str "add_attribute"); ("attr", Json.Str x) ])
    | _ ->
        (* A resolve cancelled by a zero-step budget, if it solves. *)
        let cancelled sess =
          match Session.resolve ~config:(zero_steps ()) sess with
          | _ -> false
          | exception SS.Cancelled _ -> true
        in
        let ca = cancelled a in
        Alcotest.(check bool) (ctx ^ ": cancelled alike") ca (cancelled b);
        check_status (ctx ^ ": zero-step resolve") (if ca then "fault" else "ok")
          (req [ ("op", Json.Str "resolve"); ("max_steps", Json.Num 0.) ])
  in
  agree 0;
  resolve 0;
  remove 0;
  for step = 1 to 12 do
    for _ = 0 to Prng.int rng 3 do
      delta ()
    done;
    agree step;
    resolve step
  done

let opened_from_text_sessions () =
  for seed = 0 to 39 do
    opened_from_text seed
  done

(* Traced, an [open] shows its policy parse as a [parse.rows] span
   inside [serve.open], the first resolve its indexing as
   [problem.of_rows] inside [session.resolve], and a rebuild that edits
   the compiled problem as [problem.edit] there; nothing compiles from
   names. *)
let serve_spans_its_layers () =
  let conn = Serve.create () in
  let req fields = serve_req conn (("problem", Json.Str "p") :: fields) in
  Trace.start ();
  Fun.protect ~finally:Trace.stop (fun () ->
      check_status "open" "ok" (open_req conn "p");
      check_status "first resolve" "ok" (req [ ("op", Json.Str "resolve") ]);
      check_status "add" "ok"
        (req [ ("op", Json.Str "add_constraint"); ("constraint", Json.Str "name >= Secret") ]);
      check_status "rebuild resolve" "ok" (req [ ("op", Json.Str "resolve") ]));
  (* Each span with the span it sits directly in. *)
  let nested =
    List.fold_left
      (fun (stack, acc) (e : Trace.event) ->
        match (e.ph, stack) with
        | 'B', parent :: _ -> (e.name :: stack, (e.name, parent) :: acc)
        | 'B', [] -> ([ e.name ], (e.name, "") :: acc)
        | _, _ :: rest -> (rest, acc)
        | _, [] -> ([], acc))
      ([], []) (Trace.events ())
    |> snd |> List.rev
  in
  let within name = List.filter_map (fun (n, p) -> if n = name then Some p else None) nested in
  Alcotest.(check (list string)) "parse.rows in" [ "serve.open" ] (within "parse.rows");
  Alcotest.(check (list string)) "problem.of_rows in" [ "session.resolve" ]
    (within "problem.of_rows");
  Alcotest.(check (list string)) "problem.edit in" [ "session.resolve" ] (within "problem.edit");
  Alcotest.(check (list string)) "problem.compile in" [] (within "problem.compile");
  Alcotest.(check (list string)) "compile in" [] (within "compile")

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

(* At the cap, each open evicts the least recently used session — by
   open or by request, whichever came last — one at a time, and counts
   it; re-opening or closing a held name evicts nothing. *)
let serve_lru_order () =
  let module Metrics = Minup_obs.Metrics in
  let conn = Serve.create ~max_sessions:3 () in
  let touch name =
    check_status ("touch " ^ name) "ok"
      (serve_req conn [ ("op", Json.Str "resolve"); ("problem", Json.Str name) ])
  in
  let evicted () = Metrics.counter_value (Metrics.counter "serve/evicted") in
  Metrics.enable ();
  Metrics.clear ();
  Fun.protect ~finally:(fun () ->
      Metrics.disable ();
      Metrics.clear ())
  @@ fun () ->
  List.iter (fun name -> check_status ("open " ^ name) "ok" (open_req conn name)) [ "a"; "b"; "c" ];
  touch "a";
  Alcotest.(check (list string)) "by recency" [ "a"; "c"; "b" ] (Serve.session_names conn);
  check_status "re-open c" "ok" (open_req conn "c");
  Alcotest.(check int) "a re-open at the cap evicts nothing" 0 (evicted ());
  check_status "open d" "ok" (open_req conn "d");
  Alcotest.(check (list string)) "b went first" [ "d"; "c"; "a" ] (Serve.session_names conn);
  touch "a";
  check_status "open e" "ok" (open_req conn "e");
  Alcotest.(check (list string)) "then c" [ "e"; "a"; "d" ] (Serve.session_names conn);
  Alcotest.(check int) "two evictions counted" 2 (evicted ());
  check_status "close d" "ok"
    (serve_req conn [ ("op", Json.Str "close"); ("problem", Json.Str "d") ]);
  check_status "open f" "ok" (open_req conn "f");
  Alcotest.(check (list string)) "a close frees a place" [ "f"; "e"; "a" ]
    (Serve.session_names conn);
  Alcotest.(check int) "still two evictions" 2 (evicted ());
  List.iter
    (fun name ->
      check_status (name ^ " is gone") "error"
        (serve_req conn [ ("op", Json.Str "resolve"); ("problem", Json.Str name) ]))
    [ "b"; "c"; "d" ]

(* The [index] and [why] arguments of each traced [session.resolve]
   span of [f ()]'s resolves. *)
let indexing f =
  Trace.start ();
  Fun.protect ~finally:Trace.stop f;
  List.concat_map
    (fun (e : Trace.event) ->
      if e.ph = 'B' && e.name = "session.resolve" then
        List.filter_map
          (fun k -> match List.assoc_opt k e.args with Some (Trace.Str v) -> Some v | _ -> None)
          [ "index"; "why" ]
      else [])
    (Trace.events ())

(* A rebuild edits the compiled problem in place unless a budget or an
   upgrade preference keeps it alive, a cancelled rebuild indexed the
   rows since it was built, the edits would shift more than a re-index
   touches, or its arrays have no room; traced, it says which, and every
   resolve matches scratch.  Completed rebuilds count in
   [session/index_edited] or [session/index_rebuilt]. *)
let rebuild_says_how_it_indexed () =
  let sess = Session.create ~lattice:fig1b (base_csts ()) in
  Session.set_lower_bound sess "dept" (Some (lvl "L1"));
  ignore (Session.resolve sess);
  let check what want edit =
    Alcotest.(check (list string)) what want
      (indexing (fun () ->
           edit ();
           check_matches ~ctx:what fig1b sess))
  in
  let budget =
    { SS.Config.default with budget = Some (Minup_core.Solver.budget ~max_steps:1_000_000 ()) }
  in
  let edited =
    Helpers.metered "session/index_edited" (fun () ->
        check "an add" [ "edited" ] (fun () ->
            ignore (Session.add_constraint sess (Helpers.attr_cst "dept" "rank")));
        check "a remove and a first bound" [ "edited" ] (fun () ->
            assert (Session.remove_constraint sess 1);
            Session.set_lower_bound sess "name" (Some (lvl "L2")));
        check "a cleared bound and a new attribute" [ "edited" ] (fun () ->
            Session.set_lower_bound sess "dept" None;
            Session.add_attribute sess "fresh"));
  in
  Alcotest.(check int) "three edited" 3 edited;
  Alcotest.(check (list string)) "under a budget" [ "rebuilt"; "budget" ]
    (indexing (fun () ->
         ignore (Session.add_constraint sess (Helpers.level_cst "fresh" "L2"));
         ignore (resolve_matches ~config:budget ~ctx:"budget" fig1b sess)));
  check "two removes from the front" [ "rebuilt"; "2 edits" ] (fun () ->
      assert (Session.remove_constraint sess 0);
      assert (Session.remove_constraint sess 2));
  (* With no bound row, an added row shifts nothing, but a problem of
     two rows has room for 16 more. *)
  let sparse = Session.create ~lattice:fig1b [ Helpers.level_cst "salary" "L3" ] in
  ignore (Session.resolve sparse);
  let rebuilt =
    Helpers.metered "session/index_rebuilt" (fun () ->
        Alcotest.(check (list string)) "forty adds" [ "rebuilt"; "no room" ]
          (indexing (fun () ->
               for i = 1 to 40 do
                 ignore
                   (Session.add_constraint sparse (Helpers.level_cst (Printf.sprintf "x%d" i) "L1"))
               done;
               check_matches ~ctx:"forty adds" fig1b sparse)))
  in
  Alcotest.(check int) "one re-indexed" 1 rebuilt;
  ignore (Session.add_constraint sess (Helpers.level_cst "x1" "L4"));
  (match Session.resolve ~config:(zero_steps ()) sess with
  | _ -> Alcotest.fail "a zero-step rebuild was not cancelled"
  | exception SS.Cancelled _ -> ());
  check "after a cancelled rebuild" [ "rebuilt"; "cancelled" ] ignore

(* 100 000 pairs that add a constraint and remove it, taken in by one
   resolve; then an add and a remove of an old row: that rebuild edits
   the compiled problem, finding the removed row by binary search (no
   walk of the ids handed out, no [problem.of_rows] span), and equals
   scratch. *)
let churned_rebuild_is_edited () =
  let sess = Session.create ~lattice:fig1b (base_csts ()) in
  Session.set_lower_bound sess "dept" (Some (lvl "L1"));
  ignore (Session.resolve sess);
  for _ = 1 to 100_000 do
    let id = Session.add_constraint sess (Helpers.attr_cst "rank" "salary") in
    assert (Session.remove_constraint sess id)
  done;
  check_matches ~ctx:"after the pairs" fig1b sess;
  Trace.start ();
  Fun.protect ~finally:Trace.stop (fun () ->
      ignore (Session.add_constraint sess (Helpers.level_cst "rank" "L3"));
      assert (Session.remove_constraint sess 1);
      check_matches ~ctx:"edited after the pairs" fig1b sess);
  let spans name =
    List.length
      (List.filter (fun (e : Trace.event) -> e.ph = 'B' && e.name = name) (Trace.events ()))
  in
  Alcotest.(check int) "no problem.of_rows span" 0 (spans "problem.of_rows");
  Alcotest.(check int) "one problem.edit span" 1 (spans "problem.edit")

let suite =
  [
    case "delta sequence matches scratch" delta_sequence_matches_scratch;
    case "stats classify resolve paths" stats_classify_paths;
    case "cycle re-tighten is patched" cycle_retighten_is_patched;
    case "a cancelled rebuild keeps its deltas" cancelled_rebuild;
    case "a failed in-place rebuild starts over from scratch" failed_rebuild_starts_over;
    case "a cleared bound on an unseen attribute registers it" clear_unknown_bound;
    case "bounded catch-up obeys budget" bounded_catch_up_obeys_budget;
    case "indexed rows are sorted as a compile sorts them" indexed_rows_are_sorted;
    case "removed rows are reclaimed; ids stay stable" removed_rows_are_reclaimed;
    case "a bound set and cleared 100 000 times leaves nothing behind" bound_churn_leaves_nothing;
    case "untouched subgraph is frozen" untouched_subgraph_is_frozen;
    case "a split component's untouched piece is labeled again" split_component_is_relabeled;
    case "random sessions match scratch" random_sessions;
    case "state matches a list model" session_state_model;
    case "wire round-trips" wire_roundtrips;
    case "wire rejects bad envelopes" wire_rejects;
    case "serve basic flow" serve_basic_flow;
    case "serve faults and infeasible" serve_faults_and_infeasible;
    case "serve errors" serve_errors;
    case "serve rejects out-of-range integer fields" serve_int_fields;
    case "serve rejects inexpressible attribute names" serve_attr_names;
    Helpers.qcheck serve_reply_runs;
    case "a session opened from text = one created from its constraints"
      opened_from_text_sessions;
    case "a traced open and rebuild span their parse and indexing" serve_spans_its_layers;
    case "serve LRU eviction" serve_lru_eviction;
    case "serve evicts in recency order at max_sessions" serve_lru_order;
    case "a rebuild carries its priorities or says why not" priorities_carried_or_computed;
    case "a rebuild says how it indexed its problem" rebuild_says_how_it_indexed;
    case "a rebuild after 100 000 add/remove pairs edits in place" churned_rebuild_is_edited;
  ]
