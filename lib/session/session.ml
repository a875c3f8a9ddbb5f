module Cst = Minup_constraints.Cst
module Problem = Minup_constraints.Problem
module Priorities = Minup_constraints.Priorities
module Trace = Minup_obs.Trace

module Make (L : Minup_lattice.Lattice_intf.S) = struct
  module Solver = Minup_core.Solver.Make (L)

  type stats = {
    resolves : int;
    cached : int;
    patched : int;
    incremental : int;
    full : int;
    frozen : int;
  }

  (* Which session-level object a kept (compiled) constraint came from:
     the key survives recompilation, which is what lets the session match
     constraints across compiles (bound patching, absorber comparison). *)
  type key = K_user of int | K_bound of string

  type compiled = {
    problem : Solver.problem;
    keys : key array;  (** per compiled constraint index *)
    solution : Solver.solution;
  }

  type delta =
    | D_add of L.level Cst.t
    | D_remove of L.level Cst.t
    | D_bound of { attr : string; patched : bool }
        (** [patched] — the attribute already had a bound when this delta
            was queued, so the compiled constraint can be re-leveled in
            place *)
    | D_attr of string

  type t = {
    lattice : L.t;
    mutable attrs : string list;  (** interning order, append-only *)
    attr_set : (string, unit) Hashtbl.t;
    mutable entries : (int * L.level Cst.t) list;  (** id order *)
    mutable next_id : int;
    bounds : (string, L.level) Hashtbl.t;
    mutable bound_order : string list;  (** first-set order *)
    mutable pending : delta list;  (** reversed *)
    mutable compiled : compiled option;
    mutable stats : stats;
  }

  let lattice t = t.lattice

  let register t a =
    if not (Hashtbl.mem t.attr_set a) then begin
      Hashtbl.add t.attr_set a ();
      t.attrs <- t.attrs @ [ a ]
    end

  let add_constraint t c =
    List.iter (register t) (Cst.attrs c);
    let id = t.next_id in
    t.next_id <- id + 1;
    t.entries <- t.entries @ [ (id, c) ];
    t.pending <- D_add c :: t.pending;
    id

  let create ~lattice ?(attrs = []) csts =
    let t =
      {
        lattice;
        attrs = [];
        attr_set = Hashtbl.create 64;
        entries = [];
        next_id = 0;
        bounds = Hashtbl.create 16;
        bound_order = [];
        pending = [];
        compiled = None;
        stats =
          { resolves = 0; cached = 0; patched = 0; incremental = 0; full = 0; frozen = 0 };
      }
    in
    List.iter (register t) attrs;
    List.iter (fun c -> ignore (add_constraint t c)) csts;
    t

  let remove_constraint t id =
    match List.assoc_opt id t.entries with
    | None -> false
    | Some c ->
        t.entries <- List.filter (fun (i, _) -> i <> id) t.entries;
        t.pending <- D_remove c :: t.pending;
        true

  let set_lower_bound t attr lvl =
    register t attr;
    match lvl with
    | None ->
        if Hashtbl.mem t.bounds attr then begin
          Hashtbl.remove t.bounds attr;
          t.bound_order <- List.filter (fun a -> a <> attr) t.bound_order;
          t.pending <- D_bound { attr; patched = false } :: t.pending
        end
    | Some l ->
        let existing = Hashtbl.mem t.bounds attr in
        Hashtbl.replace t.bounds attr l;
        if not existing then t.bound_order <- t.bound_order @ [ attr ];
        t.pending <- D_bound { attr; patched = existing } :: t.pending

  let add_attribute t a =
    if not (Hashtbl.mem t.attr_set a) then begin
      register t a;
      t.pending <- D_attr a :: t.pending
    end

  (* The compile input, with the session key of every constraint.  Bound
     constraints come after user constraints so user constraint indices
     are as stable as possible; within each group the order is the
     session's insertion order, so recompiles of an unchanged session are
     literally identical. *)
  let keyed_csts t =
    List.map (fun (id, c) -> (K_user id, c)) t.entries
    @ List.map
        (fun a ->
          (K_bound a, Cst.make_exn ~lhs:[ a ] ~rhs:(Cst.Level (Hashtbl.find t.bounds a))))
        t.bound_order

  let snapshot t = (t.attrs, List.map snd (keyed_csts t))

  let compile_now t =
    let keyed = keyed_csts t in
    (* Mirror of {!Problem.compile}'s kept/dropped partition: compiled
       constraint index [ci] is the position among the non-trivial
       constraints, so the keys of the kept ones, in order, address the
       compiled array. *)
    let kept = List.filter (fun (_, c) -> not (Cst.is_trivial c)) keyed in
    let keys = Array.of_list (List.map fst kept) in
    let problem =
      Solver.compile_exn ~lattice:t.lattice ~attrs:t.attrs (List.map snd keyed)
    in
    (problem, keys)

  (* The member of a complex constraint's lhs the Bigloop considers last —
     minimal priority, ties broken towards the larger id (sets run in
     decreasing priority, members in ascending id).  Only that member runs
     [Minlevel] and thereby reads its peers, so it is the one whose value
     an absorber change invalidates. *)
  let absorber (prio : Priorities.t) (c : _ Problem.cst) =
    Array.fold_left
      (fun best a ->
        let pa = prio.Priorities.priority.(a)
        and pb = prio.Priorities.priority.(best) in
        if pa < pb || (pa = pb && a > best) then a else best)
      c.Problem.lhs.(0) c.Problem.lhs

  (* Transitive closure of "whose level may differ from the previous
     solve": seeds are the attributes the deltas touch directly.  A dirty
     attribute [x] taints

     - the whole lhs of every constraint whose rhs is [x] (its members'
       levels are computed from [x]'s), and
     - the whole lhs of every complex constraint containing [x] (the
       absorbing member reads its peers; in a cycle every member does).

     Taken per-constraint this is deliberately all-or-nothing across a
     complex lhs: it guarantees the solver's aggregate bookkeeping sees
     either a fully frozen lhs (no Minlevel runs) or a fully re-solved one
     (the same member absorbs as in a scratch solve).  Any superset of the
     truly-affected attributes is sound — clean attributes keep their
     levels by induction over the dependency order. *)
  let close_dirty (prob : _ Problem.t) seeds =
    let n = Problem.n_attrs prob in
    let dirty = Array.make n false in
    let stack = ref [] in
    let mark a =
      if not dirty.(a) then begin
        dirty.(a) <- true;
        stack := a :: !stack
      end
    in
    List.iter mark seeds;
    let mark_lhs ci = Array.iter mark prob.Problem.csts.(ci).Problem.lhs in
    let continue = ref true in
    while !continue do
      match !stack with
      | [] -> continue := false
      | x :: rest ->
          stack := rest;
          List.iter mark_lhs prob.Problem.incoming.(x);
          List.iter
            (fun ci -> if prob.Problem.complex.(ci) then mark_lhs ci)
            prob.Problem.constr_of.(x)
    done;
    dirty

  let any_dirty_cycle (problem : Solver.problem) dirty =
    let n = Array.length dirty in
    let rec go a =
      a < n
      && ((dirty.(a) && Priorities.in_cycle problem.Solver.prio problem.Solver.prob a)
         || go (a + 1))
    in
    go 0

  let count_frozen dirty =
    Array.fold_left (fun acc d -> if d then acc else acc + 1) 0 dirty

  let attr_ids_of_delta (prob : _ Problem.t) = function
    | D_add c | D_remove c ->
        List.filter_map (Problem.attr_id prob) (Cst.attrs c)
    | D_bound { attr; _ } -> Option.to_list (Problem.attr_id prob attr)
    | D_attr a -> Option.to_list (Problem.attr_id prob a)

  let finish t problem keys solution =
    (* Deltas are consumed only here, on success: a cancelled solve leaves
       them queued, so the next resolve retries instead of serving the
       stale cached solution. *)
    t.pending <- [];
    t.compiled <- Some { problem; keys; solution };
    solution

  let full_resolve ~config t =
    let problem, keys = compile_now t in
    t.stats <- { t.stats with full = t.stats.full + 1 };
    finish t problem keys (Solver.solve ~config problem)

  (* The re-solve both delta paths share: close the seeds into the dirty
     cone, then re-run the Bigloop over that cone only, freezing every
     clean attribute of the previous universe at its previous level — or
     solve in full if the cone reaches a cycle. *)
  let resolve_dirty ~config t (old : compiled) problem keys seeds =
    let dirty = close_dirty problem.Solver.prob seeds in
    let n_old = Array.length old.solution.Solver.levels in
    let s = t.stats in
    let solution =
      if any_dirty_cycle problem dirty then begin
        t.stats <- { s with full = s.full + 1 };
        Solver.solve ~config problem
      end
      else begin
        t.stats <-
          { s with incremental = s.incremental + 1; frozen = s.frozen + count_frozen dirty };
        Solver.solve_incremental ~config
          ~frozen:(fun a ->
            if a < n_old && not dirty.(a) then
              Some old.solution.Solver.levels.(a)
            else None)
          problem
      end
    in
    finish t problem keys solution

  (* Every pending delta re-tightens a bound that already existed at the
     last compile: patch the Rlevel right-hand sides in place and keep the
     compiled arrays and the priority assignment.  The constraint graph is
     untouched (level right-hand sides contribute no edge). *)
  let patch_resolve ~config t (old : compiled) pending =
    let ci_of_bound = Hashtbl.create 16 in
    Array.iteri
      (fun ci -> function
        | K_bound a -> Hashtbl.replace ci_of_bound a ci
        | K_user _ -> ())
      old.keys;
    let prob0 = old.problem.Solver.prob in
    let prob', seeds =
      List.fold_left
        (fun (prob, seeds) d ->
          match d with
          | D_bound { attr; _ } ->
              let ci = Hashtbl.find ci_of_bound attr in
              let l = Hashtbl.find t.bounds attr in
              (Problem.set_rlevel prob ci l, Problem.attr_id_exn prob attr :: seeds)
          | _ -> assert false)
        (prob0, []) pending
    in
    let problem = Solver.reuse_priorities old.problem prob' in
    t.stats <- { t.stats with patched = t.stats.patched + 1 };
    resolve_dirty ~config t old problem old.keys seeds

  let general_resolve ~config t (old : compiled) pending =
    let problem, keys = compile_now t in
    let prob' = problem.Solver.prob in
    let n_old = Array.length old.solution.Solver.levels in
    let n_new = Problem.n_attrs prob' in
    let seeds = ref [] in
    List.iter
      (fun d -> seeds := attr_ids_of_delta prob' d @ !seeds)
      pending;
    for a = n_old to n_new - 1 do
      seeds := a :: !seeds
    done;
    (* Attribute ids are stable (the attrs list is append-only and always
       passed to compile), so constraints present in both compiles can be
       compared directly.  If a complex constraint's absorbing member
       changed — remote edits can renumber priorities of untouched
       attributes — the member that runs Minlevel differs from last time,
       so the whole lhs must be re-solved even though no value it reads
       changed. *)
    let old_ci = Hashtbl.create 64 in
    Array.iteri (fun ci k -> Hashtbl.replace old_ci k ci) old.keys;
    let old_prob = old.problem.Solver.prob in
    Array.iteri
      (fun ci k ->
        if prob'.Problem.complex.(ci) then
          match Hashtbl.find_opt old_ci k with
          | None -> ()
          | Some oci ->
              if
                absorber old.problem.Solver.prio old_prob.Problem.csts.(oci)
                <> absorber problem.Solver.prio prob'.Problem.csts.(ci)
              then
                Array.iter
                  (fun a -> seeds := a :: !seeds)
                  prob'.Problem.csts.(ci).Problem.lhs)
      keys;
    resolve_dirty ~config t old problem keys !seeds

  let resolve ?(config = Solver.Config.default) t =
    Trace.with_span ~cat:"session" "session.resolve" @@ fun () ->
    t.stats <- { t.stats with resolves = t.stats.resolves + 1 };
    match (t.pending, t.compiled) with
    | [], Some c ->
        t.stats <- { t.stats with cached = t.stats.cached + 1 };
        c.solution
    | pending_rev, old -> (
        let pending = List.rev pending_rev in
        match old with
        | None -> full_resolve ~config t
        | Some old ->
            let all_patched =
              List.for_all
                (function D_bound { patched = true; _ } -> true | _ -> false)
                pending
            in
            if all_patched then patch_resolve ~config t old pending
            else general_resolve ~config t old pending)

  let resolve_with_bounds ?(config = Solver.Config.default) t ubounds =
    (* The catch-up resolve runs under the caller's budget too, but keeps
       the default solution-selecting fields, which must not vary between
       resolves of one session. *)
    if t.pending <> [] || t.compiled = None then
      ignore
        (resolve ~config:{ Solver.Config.default with budget = config.Solver.Config.budget } t);
    let problem = (Option.get t.compiled).problem in
    Solver.solve_with_bounds ~config problem ubounds

  let solution t = if t.pending = [] then Option.map (fun c -> c.solution) t.compiled else None

  let stats t = t.stats
end
