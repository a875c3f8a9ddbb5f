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
    bound_ci : int array;
        (** bound slot ↦ compiled index of its row; a slot past the end
            was first set after this compile *)
    solution : Solver.solution;
  }

  (* A structural delta's kind, as a traced resolve names it; it comes
     with a constraint id (add, remove) or an attribute id. *)
  type delta = Add | Remove | New_attribute | First_bound | Cleared_bound

  (* What the deltas queued since the last successful resolve ask of the
     next one: nothing, a patch (only re-tightened bounds, each on an
     attribute that was already bounded at the last compile), or a
     rebuild, named by the first structural delta, which absorbs
     everything queued after it. *)
  type pending = Clean | Patch | Rebuild of delta * int

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

  let iter_live f s =
    for i = 0 to s.len - 1 do
      match s.items.(i) with Some x -> f i x | None -> ()
    done

  (* The row of a trivial constraint, which compile drops. *)
  let no_row : L.level Problem.cst = { lhs = [||]; rhs = Problem.Rattr (-1) }

  type t = {
    lattice : L.t;
    mutable names : string array;  (** attribute id ↦ name, [n] of them *)
    mutable n : int;
    index : int Names.t;  (** name ↦ attribute id: registration order *)
    entries : L.level Cst.t slots;  (** user constraints; slot = id *)
    mutable rows : L.level Problem.cst array;
        (** [rows.(id)]: constraint [id]'s compiled row, from the first
            compile on: it harvests them, and each later constraint is
            interned when added *)
    bounds : (int * L.level) slots;  (** (attribute id, level), first-set order *)
    bound_slot : (int, int) Hashtbl.t;  (** bounded attribute id ↦ slot *)
    mutable pending : pending;
    mutable dirty : int list;
        (** attributes whose own rows changed since the last resolve *)
    mutable compiled : compiled option;
    mutable stats : stats;
  }

  let lattice t = t.lattice

  let name t i =
    if i < 0 || i >= t.n then invalid_arg "Session.name: unknown attribute id";
    t.names.(i)

  (* Append the new attribute [a]; its id. *)
  let add_name t a =
    let i = t.n in
    if i = Array.length t.names then begin
      let names = Array.make (max 64 (2 * i)) "" in
      Array.blit t.names 0 names 0 i;
      t.names <- names
    end;
    t.names.(i) <- a;
    t.n <- i + 1;
    Names.add t.index a i;
    i

  (* [mem] first, not [find] under a handler: most mentions are of known
     names, and this is [create]'s inner loop. *)
  let register t a = if not (Names.mem t.index a) then ignore (add_name t a)

  let structural t d x =
    match t.pending with Rebuild _ -> () | Clean | Patch -> t.pending <- Rebuild (d, x)

  let touch t a = t.dirty <- a :: t.dirty
  let touch_lhs t (row : _ Problem.cst) = Array.iter (touch t) row.lhs

  (* Once a compile has harvested the rows, a new constraint is interned
     at once: its names are registered first, in [Cst.attrs] order. *)
  let add_constraint t (c : _ Cst.t) =
    List.iter (register t) c.lhs;
    (match c.rhs with Cst.Attr a -> register t a | Cst.Level _ -> ());
    let id = push t.entries c in
    if Option.is_some t.compiled then begin
      if id >= Array.length t.rows then begin
        let rows = Array.make (max 16 (2 * id)) no_row in
        Array.blit t.rows 0 rows 0 (Array.length t.rows);
        t.rows <- rows
      end;
      if not (Cst.is_trivial c) then begin
        let row = Problem.row ~intern:(Names.find t.index) c in
        t.rows.(id) <- row;
        touch_lhs t row
      end
    end;
    structural t Add id;
    id

  let create ~lattice ?(attrs = []) csts =
    let t =
      {
        lattice;
        names = Array.make (List.length attrs) "";
        n = 0;
        index = Names.create 64;
        entries = slots ();
        rows = [||];
        bounds = slots ();
        bound_slot = Hashtbl.create 16;
        pending = Clean;
        dirty = [];
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
          if id < Array.length t.rows then touch_lhs t t.rows.(id);
          structural t Remove id;
          true

  (* [a]'s id.  An attribute registered by a delta that adds no row is
     still a structural delta: the solution gains it, at ⊥. *)
  let attribute t a =
    if Names.mem t.index a then Names.find t.index a
    else begin
      let i = add_name t a in
      structural t New_attribute i;
      i
    end

  let add_attribute t a = ignore (attribute t a)

  let set_lower_bound t attr lvl =
    let a = attribute t attr in
    match (lvl, Hashtbl.find_opt t.bound_slot a) with
    | None, None -> ()
    | None, Some slot ->
        Hashtbl.remove t.bound_slot a;
        t.bounds.items.(slot) <- None;
        touch t a;
        structural t Cleared_bound a
    | Some l, Some slot ->
        t.bounds.items.(slot) <- Some (a, l);
        touch t a;
        (match t.pending with Clean -> t.pending <- Patch | Patch | Rebuild _ -> ())
    | Some l, None ->
        Hashtbl.replace t.bound_slot a (push t.bounds (a, l));
        touch t a;
        structural t First_bound a

  (* Bound constraints come after user constraints, which is where
     [scratch] and [rebuild] put them; within each group the order is the
     session's insertion order, so recompiles of an unchanged session are
     literally identical. *)
  let snapshot t =
    ( List.init t.n (Array.get t.names),
      fold_live (fun _ c acc -> c :: acc) t.entries
        (fold_live
           (fun _ (a, l) acc -> Cst.make_exn ~lhs:[ t.names.(a) ] ~rhs:(Cst.Level l) :: acc)
           t.bounds []) )

  let finish t compiled =
    (* Deltas are consumed only here, on success: a cancelled solve leaves
       them queued, so the next resolve retries instead of serving the
       stale cached solution. *)
    t.pending <- Clean;
    t.dirty <- [];
    t.compiled <- Some compiled;
    compiled.solution

  (* Re-solve [problem] from [old]'s solution with the queued dirty
     attributes.  The resolve counts before the solve, so a cancelled one
     counts too; its reused attributes count once it completes. *)
  let resolve_from ~config t (old : compiled) ~patch problem =
    let s = t.stats in
    t.stats <-
      {
        s with
        patched = (if patch then s.patched + 1 else s.patched);
        incremental = s.incremental + 1;
      };
    let solution =
      Solver.solve_incremental ~config ~prev:(old.problem, old.solution) ~dirty:t.dirty
        problem
    in
    t.stats <- { t.stats with frozen = t.stats.frozen + solution.Solver.reused };
    solution

  (* The first resolve: compile the snapshot and solve it from scratch,
     then harvest each kept user constraint's row, which compile lays out
     first, in id order; the bound rows follow. *)
  let scratch ~config t =
    let attrs, csts = snapshot t in
    let problem = Solver.compile_exn ~lattice:t.lattice ~attrs csts in
    let kept = problem.Solver.prob.Problem.csts and ci = ref 0 in
    t.rows <- Array.make t.entries.len no_row;
    iter_live
      (fun id c ->
        if not (Cst.is_trivial c) then begin
          t.rows.(id) <- kept.(!ci);
          incr ci
        end)
      t.entries;
    let bound_ci = Array.make t.bounds.len (-1) in
    iter_live
      (fun slot _ ->
        bound_ci.(slot) <- !ci;
        incr ci)
      t.bounds;
    t.stats <- { t.stats with full = t.stats.full + 1 };
    finish t { problem; bound_ci; solution = Solver.solve ~config problem }

  (* Every pending delta re-tightens a bound the compiled problem already
     has: write the new Rlevel right-hand sides into it in place (a level
     right-hand side contributes no edge, so the priorities still hold),
     then re-solve with the previous levels, which every priority set whose
     inputs kept their levels takes unchanged at its turn. *)
  let patch ~config t (old : compiled) =
    let prob = old.problem.Solver.prob in
    List.iter
      (fun a ->
        let slot = Hashtbl.find t.bound_slot a in
        match t.bounds.items.(slot) with
        | Some (_, l) -> Problem.set_rlevel prob old.bound_ci.(slot) l
        | None -> assert false)
      t.dirty;
    finish t { old with solution = resolve_from ~config t old ~patch:true old.problem }

  (* Any other delta: index the live rows — user rows in id order, then
     the bound rows, as compile lays out the snapshot — into a new
     problem over the session's attributes, so its priorities are a
     scratch compile's, and re-solve it from the old problem's solution.
     The old problem is not touched: a cancelled rebuild leaves it as it
     was, with the deltas queued. *)
  let rebuild ~config t (old : compiled) =
    let m = ref 0 in
    iter_live (fun id _ -> if t.rows.(id) != no_row then incr m) t.entries;
    iter_live (fun _ _ -> incr m) t.bounds;
    let csts = Array.make !m no_row and ci = ref 0 in
    let add row =
      csts.(!ci) <- row;
      incr ci
    in
    iter_live (fun id _ -> if t.rows.(id) != no_row then add t.rows.(id)) t.entries;
    let bound_ci = Array.make t.bounds.len (-1) in
    iter_live
      (fun slot (a, l) ->
        bound_ci.(slot) <- !ci;
        add { Problem.lhs = [| a |]; rhs = Problem.Rlevel l })
      t.bounds;
    let problem =
      Solver.prepare ~lattice:t.lattice
        (Problem.of_rows ~attr_names:(Array.sub t.names 0 t.n) ~attr_index:t.index csts)
    in
    let solution = resolve_from ~config t old ~patch:false problem in
    finish t { problem; bound_ci; solution }

  (* The path a resolve takes and the delta that chose it, as span
     arguments; built only when tracing. *)
  let path_args t =
    let name a = t.names.(a) in
    let path, reason =
      match (t.compiled, t.pending) with
      | None, _ -> ("scratch", "first resolve")
      | Some _, Clean -> ("cached", "no delta")
      | Some _, Patch ->
          ("patch", "re-tightened " ^ name (List.nth t.dirty (List.length t.dirty - 1)))
      | Some _, Rebuild (d, x) ->
          ( "rebuild",
            match d with
            | Add -> Printf.sprintf "add #%d" x
            | Remove -> Printf.sprintf "remove #%d" x
            | New_attribute -> "new attribute " ^ name x
            | First_bound -> "first bound on " ^ name x
            | Cleared_bound -> "cleared bound on " ^ name x )
    in
    [ ("path", Trace.Str path); ("reason", Trace.Str reason) ]

  let resolve ?(config = Solver.Config.default) t =
    let args = if Trace.enabled () then Some (path_args t) else None in
    Trace.with_span ?args ~cat:"session" "session.resolve" @@ fun () ->
    t.stats <- { t.stats with resolves = t.stats.resolves + 1 };
    match (t.compiled, t.pending) with
    | None, _ -> scratch ~config t
    | Some c, Clean ->
        t.stats <- { t.stats with cached = t.stats.cached + 1 };
        c.solution
    | Some old, Patch -> patch ~config t old
    | Some old, Rebuild _ -> rebuild ~config t old

  let solution t =
    match (t.compiled, t.pending) with Some c, Clean -> Some c.solution | _ -> None

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
