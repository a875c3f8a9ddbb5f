module Cst = Minup_constraints.Cst
module Problem = Minup_constraints.Problem
module Trace = Minup_obs.Trace
module Names = Problem.Names

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

  type compiled = {
    problem : Solver.problem;
    bound_ci : int Names.t;
        (** bounded attribute ↦ compiled index of its bound constraint *)
    solution : Solver.solution;
  }

  (* What the deltas queued since the last successful resolve ask of the
     next one.  A structural delta absorbs everything queued after it. *)
  type pending =
    | Clean
    | Retightened of string list
        (** only re-tightened bounds, each on an attribute that was already
            bounded at the last compile *)
    | Structural

  (* Id-addressed append-only slots: [items.(i)] for [i < len] is the
     value pushed as the [i]-th, or [None] once removed (a tombstone).
     Push is amortized O(1), removal O(1), and a walk visits the live
     values in push order in time linear in [len]. *)
  type 'a slots = { mutable items : 'a option array; mutable len : int }

  let slots () = { items = [||]; len = 0 }

  let push s x =
    if s.len = Array.length s.items then begin
      let items = Array.make (max 16 (2 * s.len)) None in
      Array.blit s.items 0 items 0 s.len;
      s.items <- items
    end;
    s.items.(s.len) <- Some x;
    s.len <- s.len + 1;
    s.len - 1

  let fold_live f s init =
    let acc = ref init in
    for i = s.len - 1 downto 0 do
      match s.items.(i) with Some x -> acc := f i x !acc | None -> ()
    done;
    !acc

  type t = {
    lattice : L.t;
    mutable attrs_rev : string list;  (** interning order, reversed *)
    attr_set : unit Names.t;
    entries : L.level Cst.t slots;  (** user constraints; slot = id *)
    bounds : (int * L.level) Names.t;
        (** attr ↦ (slot in [bound_order], level) *)
    bound_order : string slots;  (** bounded attributes, first-set order *)
    mutable pending : pending;
    mutable compiled : compiled option;
    mutable stats : stats;
  }

  let lattice t = t.lattice

  let register t a =
    if not (Names.mem t.attr_set a) then begin
      Names.add t.attr_set a ();
      t.attrs_rev <- a :: t.attrs_rev
    end

  (* [Cst.attrs] order, without building its list. *)
  let register_cst t (c : _ Cst.t) =
    List.iter (register t) c.lhs;
    match c.rhs with Cst.Attr a -> register t a | Cst.Level _ -> ()

  let add_constraint t c =
    register_cst t c;
    t.pending <- Structural;
    push t.entries c

  let create ~lattice ?(attrs = []) csts =
    let t =
      {
        lattice;
        attrs_rev = [];
        attr_set = Names.create 64;
        entries = slots ();
        bounds = Names.create 16;
        bound_order = slots ();
        pending = Clean;
        compiled = None;
        stats =
          { resolves = 0; cached = 0; patched = 0; incremental = 0; full = 0; frozen = 0 };
      }
    in
    List.iter (register t) attrs;
    List.iter (fun c -> ignore (add_constraint t c)) csts;
    t

  let remove_constraint t id =
    if id < 0 || id >= t.entries.len then false
    else
      match t.entries.items.(id) with
      | None -> false
      | Some _ ->
          t.entries.items.(id) <- None;
          t.pending <- Structural;
          true

  let set_lower_bound t attr lvl =
    register t attr;
    match (lvl, Names.find_opt t.bounds attr) with
    | None, None -> ()
    | None, Some (slot, _) ->
        Names.remove t.bounds attr;
        t.bound_order.items.(slot) <- None;
        t.pending <- Structural
    | Some l, Some (slot, _) -> (
        Names.replace t.bounds attr (slot, l);
        match t.pending with
        | Clean -> t.pending <- Retightened [ attr ]
        | Retightened attrs -> t.pending <- Retightened (attr :: attrs)
        | Structural -> ())
    | Some l, None ->
        Names.replace t.bounds attr (push t.bound_order attr, l);
        t.pending <- Structural

  let add_attribute t a =
    if not (Names.mem t.attr_set a) then begin
      register t a;
      t.pending <- Structural
    end

  let bound_level t a = snd (Names.find t.bounds a)

  (* Bound constraints come after user constraints, which is where
     [scratch] looks for them; within each group the order is the
     session's insertion order, so recompiles of an unchanged session are
     literally identical. *)
  let snapshot t =
    ( List.rev t.attrs_rev,
      fold_live (fun _ c acc -> c :: acc) t.entries
        (fold_live
           (fun _ a acc -> Cst.make_exn ~lhs:[ a ] ~rhs:(Cst.Level (bound_level t a)) :: acc)
           t.bound_order []) )

  let finish t compiled =
    (* Deltas are consumed only here, on success: a cancelled solve leaves
       them queued, so the next resolve retries instead of serving the
       stale cached solution. *)
    t.pending <- Clean;
    t.compiled <- Some compiled;
    compiled.solution

  (* Compile the snapshot and solve it from scratch.  Bound constraints are
     never trivial, so the compile keeps all of them, last, in
     [bound_order]. *)
  let scratch ~config t =
    let attrs, csts = snapshot t in
    let problem = Solver.compile_exn ~lattice:t.lattice ~attrs csts in
    let bound_ci = Names.create (Names.length t.bounds) in
    ignore
      (fold_live
         (fun _ a ci ->
           Names.replace bound_ci a ci;
           ci - 1)
         t.bound_order
         (Problem.n_csts problem.Solver.prob - 1));
    t.stats <- { t.stats with full = t.stats.full + 1 };
    finish t { problem; bound_ci; solution = Solver.solve ~config problem }

  (* Every pending delta re-tightens a bound the compiled problem already
     has: write the new Rlevel right-hand sides into it in place (a level
     right-hand side contributes no edge, so the priorities still hold),
     then re-solve with the previous levels, which every priority set whose
     inputs kept their levels takes unchanged at its turn. *)
  let patch ~config t (old : compiled) attrs =
    let prob = old.problem.Solver.prob in
    List.iter
      (fun a -> Problem.set_rlevel prob (Names.find old.bound_ci a) (bound_level t a))
      attrs;
    let s = t.stats in
    t.stats <- { s with patched = s.patched + 1; incremental = s.incremental + 1 };
    let solution =
      Solver.solve_incremental ~config ~prev:old.solution
        ~dirty:(List.map (Problem.attr_id_exn prob) attrs)
        old.problem
    in
    t.stats <- { t.stats with frozen = t.stats.frozen + solution.Solver.reused };
    finish t { old with solution }

  let resolve ?(config = Solver.Config.default) t =
    (* The path the resolve takes, as a span argument, built only when
       tracing so the untraced path allocates nothing. *)
    let args =
      if not (Trace.enabled ()) then None
      else
        let path =
          match (t.pending, t.compiled) with
          | Clean, Some _ -> "cached"
          | Retightened _, Some _ -> "patch"
          | _ -> "scratch"
        in
        Some [ ("path", Trace.Str path) ]
    in
    Trace.with_span ?args ~cat:"session" "session.resolve" @@ fun () ->
    t.stats <- { t.stats with resolves = t.stats.resolves + 1 };
    match (t.pending, t.compiled) with
    | Clean, Some c ->
        t.stats <- { t.stats with cached = t.stats.cached + 1 };
        c.solution
    | Retightened attrs, Some old -> patch ~config t old attrs
    | _ -> scratch ~config t

  let solution t =
    match (t.pending, t.compiled) with Clean, Some c -> Some c.solution | _ -> None

  let resolve_with_bounds ?(config = Solver.Config.default) t ubounds =
    (* The catch-up resolve runs under the caller's budget too, but keeps
       the default solution-selecting fields, which must not vary between
       resolves of one session. *)
    if Option.is_none (solution t) then
      ignore
        (resolve ~config:{ Solver.Config.default with budget = config.Solver.Config.budget } t);
    let problem = (Option.get t.compiled).problem in
    Solver.solve_with_bounds ~config problem ubounds

  let stats t = t.stats
end
