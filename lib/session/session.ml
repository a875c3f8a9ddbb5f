module Cst = Minup_constraints.Cst
module Parse = Minup_constraints.Parse
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

  type t = {
    lattice : L.t;
    index : Names.t;  (** name ↔ attribute id: registration order *)
    mutable exact_names : string array;
        (** the names of [index] exactly, once a problem has needed them:
            still the session's while [index] has as many *)
    mutable off : int array;
        (** user constraint id [i] ↦ its lhs ids as written,
            [tgt.(off.(i)) .. tgt.(off.(i+1) - 1)]: [n_ids + 1] offsets *)
    mutable tgt : int array;
    mutable dead : int;  (** entries of [tgt] that removed ids still hold *)
    mutable rhs : int array;
        (** id ↦ its rhs code, as a store encodes it
            ([Problem.rhs_is_attr]), into [levels]; [removed] once
            removed *)
    mutable levels : L.level array;  (** level right-hand sides, [n_levels] of them *)
    mutable n_levels : int;
    mutable kept : bool array;
        (** id ↦ its row is in the problem: neither trivially satisfied
            (rhs ∈ lhs) nor removed *)
    mutable n_ids : int;
    bounds : (int * L.level) slots;  (** (attribute id, level), first-set order *)
    bound_slot : (int, int) Hashtbl.t;  (** bounded attribute id ↦ slot *)
    mutable pending : pending;
    mutable dirty : int list;
        (** attributes whose own rows changed since the last resolve *)
    mutable compiled : compiled option;
    workspace : Solver.workspace;  (** the last incremental solve's state *)
    mutable stats : stats;
  }

  let lattice t = t.lattice

  let name t i =
    if i < 0 || i >= Names.length t.index then invalid_arg "Session.name: unknown attribute id";
    (Names.names t.index).(i)

  (* [a]'s id, registered first if it is new. *)
  let intern t a = Names.add t.index a

  let structural t d x =
    match t.pending with Rebuild _ -> () | Clean | Patch -> t.pending <- Rebuild (d, x)

  let touch t a = t.dirty <- a :: t.dirty

  let touch_lhs t id =
    for i = t.off.(id) to t.off.(id + 1) - 1 do
      touch t t.tgt.(i)
    done

  (* A removed line's rhs code: neither an attribute nor a level. *)
  let removed = min_int

  (* The ids of [names], interned into [tgt] from [i]. *)
  let rec fill t i = function
    | [] -> ()
    | a :: rest ->
        t.tgt.(i) <- intern t a;
        fill t (i + 1) rest

  (* [a], full at [len] entries, doubled (16 at least), [fill] beyond. *)
  let grow a len fill =
    let b = Array.make (max 16 (2 * len)) fill in
    Array.blit a 0 b 0 len;
    b

  (* The rhs code of the level [l], appended to [levels]. *)
  let push_level t l =
    if t.n_levels = Array.length t.levels then t.levels <- grow t.levels t.n_levels l;
    t.levels.(t.n_levels) <- l;
    t.n_levels <- t.n_levels + 1;
    Problem.level_code (t.n_levels - 1)

  (* Move the live lines' lhs entries, in id order, to the front of
     [dst] ([t.tgt] itself, or a larger array: entries only move down),
     a removed id keeping an empty range, and the level entries they
     read to the front of a fresh [levels]: ids do not change. *)
  let repack t dst =
    let moved = Array.make t.n_levels (-1) and levels = ref [||] in
    let fill = ref 0 and j = ref 0 in
    for id = 0 to t.n_ids - 1 do
      let s = t.off.(id) and e = t.off.(id + 1) and r = t.rhs.(id) in
      t.off.(id) <- !fill;
      if r <> removed then begin
        Array.blit t.tgt s dst !fill (e - s);
        fill := !fill + e - s;
        if not (Problem.rhs_is_attr r) then begin
          let l = Problem.rhs_level_index r in
          if moved.(l) < 0 then begin
            if !j = 0 then levels := Array.make t.n_levels t.levels.(l);
            !levels.(!j) <- t.levels.(l);
            moved.(l) <- !j;
            incr j
          end;
          t.rhs.(id) <- Problem.level_code moved.(l)
        end
      end
    done;
    t.off.(t.n_ids) <- !fill;
    t.tgt <- dst;
    t.dead <- 0;
    t.levels <- !levels;
    t.n_levels <- !j

  (* Room in [tgt] for [k] more lhs entries.  When it is full, the live
     entries are repacked, in place if they fill at most half of it
     (then the dead ones outnumber them), else into an array twice their
     size: [tgt] never grows past twice the live entries, plus a
     constant. *)
  let reserve t k =
    let fill = t.off.(t.n_ids) in
    if fill + k > Array.length t.tgt then begin
      let want = (2 * (fill - t.dead + k)) + 16 in
      repack t (if want <= Array.length t.tgt then t.tgt else Array.make want 0)
    end

  (* The next constraint id, its lhs the [k] entries just written past
     the last line in [tgt], its rhs code [rhs], [kept] or not: each
     id-indexed array doubles when full (a parsed policy's may differ in
     length). *)
  let push_row t k rhs kept =
    let id = t.n_ids in
    if id + 2 > Array.length t.off then t.off <- grow t.off (id + 1) 0;
    if id = Array.length t.rhs then t.rhs <- grow t.rhs id (-1);
    if id = Array.length t.kept then t.kept <- grow t.kept id false;
    t.off.(id + 1) <- t.off.(id) + k;
    t.rhs.(id) <- rhs;
    t.kept.(id) <- kept;
    t.n_ids <- id + 1;
    id

  (* [c] interned under the next id, its names registered in [Cst.attrs]
     order. *)
  let push_cst t (c : _ Cst.t) =
    let k = List.length c.lhs in
    reserve t k;
    fill t t.off.(t.n_ids) c.lhs;
    let kept = not (Cst.is_trivial c) in
    match c.rhs with
    | Cst.Level l -> push_row t k (push_level t l) kept
    | Cst.Attr a -> push_row t k (intern t a) kept

  (* Every constraint is interned when added; only once a resolve has
     compiled do its lhs count as dirty. *)
  let add_constraint t c =
    let id = push_cst t c in
    if t.kept.(id) && Option.is_some t.compiled then touch_lhs t id;
    structural t Add id;
    id

  (* A session over [lines], its first [n_ids] the user constraints. *)
  let empty ~lattice ~index ~n_ids { Problem.off; tgt; rhs; levels; kept } =
    {
      lattice;
      index;
      exact_names = [||];
      off;
      tgt;
      dead = 0;
      rhs;
      levels;
      n_levels = Array.length levels;
      kept;
      n_ids;
      bounds = slots ();
      bound_slot = Hashtbl.create 16;
      pending = Clean;
      dirty = [];
      compiled = None;
      workspace = Solver.workspace ();
      stats = { resolves = 0; cached = 0; patched = 0; incremental = 0; full = 0; frozen = 0 };
    }

  let create ~lattice ?(attrs = []) csts =
    let m = List.length csts in
    let size = List.fold_left (fun n (c : _ Cst.t) -> n + List.length c.lhs) 0 csts in
    let t =
      empty ~lattice ~index:(Names.create (max 64 (List.length attrs))) ~n_ids:0
        { Problem.off = Array.make (m + 1) 0; tgt = Array.make size 0; rhs = Array.make m (-1);
          levels = [||]; kept = Array.make m false }
    in
    List.iter (fun a -> ignore (intern t a)) attrs;
    List.iter (fun c -> ignore (add_constraint t c)) csts;
    t

  (* The session adopts [r]'s names, index and lines whole: it copies
     nothing and looks up no name. *)
  let of_rows ~lattice (r : L.level Parse.rows) =
    empty ~lattice ~index:r.attr_index ~n_ids:(Array.length r.lines.kept) r.lines

  let remove_constraint t id =
    if id < 0 || id >= t.n_ids || t.rhs.(id) = removed then false
    else begin
      if t.kept.(id) && Option.is_some t.compiled then touch_lhs t id;
      t.kept.(id) <- false;
      t.rhs.(id) <- removed;
      t.dead <- t.dead + t.off.(id + 1) - t.off.(id);
      structural t Remove id;
      true
    end

  (* [a]'s id.  An attribute registered by a delta that adds no row is
     still a structural delta: the solution gains it, at ⊥. *)
  let attribute t a =
    let n = Names.length t.index in
    let i = Names.add t.index a in
    if i = n then structural t New_attribute i;
    i

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
     [index] puts them; within each group the order is the session's
     insertion order, so recompiles of an unchanged session are literally
     identical.  Each lhs is listed as written. *)
  let snapshot t =
    let names = Names.names t.index in
    let name a = names.(a) in
    let rec users id acc =
      if id < 0 then acc
      else if t.rhs.(id) = removed then users (id - 1) acc
      else
        let r = t.rhs.(id) in
        let rhs =
          if Problem.rhs_is_attr r then Cst.Attr (name r)
          else Cst.Level t.levels.(Problem.rhs_level_index r)
        in
        let lhs = List.init (t.off.(id + 1) - t.off.(id)) (fun i -> name t.tgt.(t.off.(id) + i)) in
        users (id - 1) (Cst.make_exn ~lhs ~rhs :: acc)
    in
    ( List.init (Names.length t.index) name,
      users (t.n_ids - 1)
        (fold_live
           (fun _ (a, l) acc -> Cst.make_exn ~lhs:[ name a ] ~rhs:(Cst.Level l) :: acc)
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
      Solver.solve_incremental ~config ~workspace:t.workspace
        ~prev:(old.problem, old.solution) ~dirty:t.dirty problem
    in
    t.stats <- { t.stats with frozen = t.stats.frozen + solution.Solver.reused };
    solution

  let view t = { Problem.off = t.off; tgt = t.tgt; rhs = t.rhs; levels = t.levels; kept = t.kept }

  (* The live rows — user rows in id order, then the bound rows, as
     compile lays out the snapshot — as a problem over the session's
     attributes, so its priorities are a scratch compile's; and each
     bound slot's index among the rows.  [room] is where the arrays go:
     [Spare] or [Reuse] of the problem being replaced. *)
  let index ~room t =
    (* The index's names are append-only, and a full array of them is
       never written again, so it can be shared; an exact copy stays exact
       until a name is added. *)
    let attr_names =
      let names = Names.names t.index and n = Names.length t.index in
      if Array.length names = n then names
      else begin
        if Array.length t.exact_names <> n then t.exact_names <- Array.sub names 0 n;
        t.exact_names
      end
    in
    let prob =
      Problem.of_lines ~room ~attr_names ~attr_index:t.index ~count:t.n_ids
        ~bounds:(fun f -> iter_live (fun _ (a, l) -> f a l) t.bounds)
        (view t)
    in
    let bound_ci = Array.make t.bounds.len (-1) and ci = ref (Problem.n_csts prob) in
    for slot = t.bounds.len - 1 downto 0 do
      if Option.is_some t.bounds.items.(slot) then begin
        decr ci;
        bound_ci.(slot) <- !ci
      end
    done;
    (Solver.prepare ~lattice:t.lattice prob, bound_ci)

  (* The first resolve: index the rows and solve from scratch. *)
  let scratch ~config t =
    let problem, bound_ci = index ~room:Problem.Spare t in
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

  (* Any other delta: index the live rows into a new problem and re-solve
     it from the old problem's solution.  A solve that nothing can stop
     (no budget) and that reads nothing of the old problem but its
     priorities (no upgrade preference, which schedules the old problem
     again) builds the new problem in the old one's arrays; should it
     fail all the same, the old problem is gone and the next resolve
     starts from scratch.  Otherwise the old problem is not touched: a
     cancelled rebuild leaves it as it was, with the deltas queued. *)
  let rebuild ~config t (old : compiled) =
    let reuse =
      Option.is_none config.Solver.Config.budget
      && Option.is_none config.Solver.Config.upgrade_preference
    in
    let room = if reuse then Problem.Reuse old.problem.Solver.prob else Problem.Spare in
    match
      let problem, bound_ci = index ~room t in
      let solution = resolve_from ~config t old ~patch:false problem in
      finish t { problem; bound_ci; solution }
    with
    | solution -> solution
    | exception e when reuse ->
        t.compiled <- None;
        raise e

  (* The path a resolve takes and the delta that chose it, as span
     arguments; built only when tracing. *)
  let path_args t =
    let name a = (Names.names t.index).(a) in
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
  let lines t = (view t, t.n_ids)
end
