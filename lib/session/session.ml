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

  type compiled = { problem : Solver.problem; solution : Solver.solution }

  (* A structural delta's kind, as a traced resolve names it; it comes
     with a constraint id (add, remove) or an attribute id. *)
  type delta = Add | Remove | New_attribute | First_bound | Cleared_bound

  (* What the deltas queued since the last successful resolve ask of the
     next one: nothing, a patch (only re-tightened bounds, each on an
     attribute that was already bounded at the last compile), or a
     rebuild, named by the first structural delta, which absorbs
     everything queued after it. *)
  type pending = Clean | Patch | Rebuild of delta * int

  (* The lower bounds, keyed by attribute id.  [a] is bounded iff
     [next.(a) <> unbound] (or [a] is past the arrays), and then
     [level.(a)] is its bound.  The bounded attributes form one list in
     first-set order, from [first] through [next] and back from [last]
     through [prev] (-1 past either end): clearing a bound unlinks it,
     setting it again appends it at [last], and re-tightening it keeps
     its place.  [row.(a)] is the index of [a]'s bound row in the
     problem the last indexing built, which is the compiled one whenever
     a patch reads it: a resolve that fails after indexing leaves its
     rebuild queued. *)
  type 'l bounds = {
    mutable level : 'l array;
    mutable next : int array;
    mutable prev : int array;
    mutable row : int array;
    mutable first : int;
    mutable last : int;
  }

  let unbound = -2
  let bounded b a = a < Array.length b.next && b.next.(a) <> unbound

  (* [a, l] at the end of the list, each array doubled (16 at least)
     first if [a] is past it. *)
  let append b a l =
    let len = Array.length b.next in
    if a >= len then begin
      let size = max 16 (2 * (a + 1)) in
      let widen arr fill =
        let w = Array.make size fill in
        Array.blit arr 0 w 0 len;
        w
      in
      b.level <- widen b.level l;
      b.next <- widen b.next unbound;
      b.prev <- widen b.prev (-1);
      b.row <- widen b.row (-1)
    end;
    b.level.(a) <- l;
    b.next.(a) <- -1;
    b.prev.(a) <- b.last;
    if b.last < 0 then b.first <- a else b.next.(b.last) <- a;
    b.last <- a

  let unlink b a =
    let p = b.prev.(a) and q = b.next.(a) in
    if p < 0 then b.first <- q else b.next.(p) <- q;
    if q < 0 then b.last <- p else b.prev.(q) <- p;
    b.next.(a) <- unbound

  (* [f a l] for each bound, in first-set order. *)
  let iter_bounds f b =
    let rec from a =
      if a >= 0 then begin
        f a b.level.(a);
        from b.next.(a)
      end
    in
    from b.first

  type t = {
    lattice : L.t;
    index : Names.t;  (** name ↔ attribute id: registration order *)
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
    bounds : L.level bounds;
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
      off;
      tgt;
      dead = 0;
      rhs;
      levels;
      n_levels = Array.length levels;
      kept;
      n_ids;
      bounds = { level = [||]; next = [||]; prev = [||]; row = [||]; first = -1; last = -1 };
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
    let a = attribute t attr and b = t.bounds in
    match (lvl, bounded b a) with
    | None, false -> ()
    | None, true ->
        unlink b a;
        touch t a;
        structural t Cleared_bound a
    | Some l, true ->
        b.level.(a) <- l;
        touch t a;
        (match t.pending with Clean -> t.pending <- Patch | Patch | Rebuild _ -> ())
    | Some l, false ->
        append b a l;
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
    let b = t.bounds in
    let rec bounds a acc =
      if a < 0 then acc
      else bounds b.prev.(a) (Cst.make_exn ~lhs:[ name a ] ~rhs:(Cst.Level b.level.(a)) :: acc)
    in
    (List.init (Names.length t.index) name, users (t.n_ids - 1) (bounds b.last []))

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
     attributes, so its priorities are a scratch compile's; each bound's
     row index goes into [row].  [room] is where the arrays go: [Spare]
     or [Reuse] of the problem being replaced. *)
  let index ~room t =
    let b = t.bounds in
    let prob =
      Problem.of_lines ~room ~attr_index:t.index ~count:t.n_ids
        ~bounds:(fun f -> iter_bounds f b)
        (view t)
    in
    let rec rows a ci =
      if a >= 0 then begin
        b.row.(a) <- ci;
        rows b.prev.(a) (ci - 1)
      end
    in
    rows b.last (Problem.n_csts prob - 1);
    Solver.prepare ~lattice:t.lattice prob

  (* The first resolve: index the rows and solve from scratch. *)
  let scratch ~config t =
    let problem = index ~room:Problem.Spare t in
    t.stats <- { t.stats with full = t.stats.full + 1 };
    finish t { problem; solution = Solver.solve ~config problem }

  (* Every pending delta re-tightens a bound the compiled problem already
     has: write the new Rlevel right-hand sides into it in place (a level
     right-hand side contributes no edge, so the priorities still hold),
     then re-solve with the previous levels, which every priority set whose
     inputs kept their levels takes unchanged at its turn. *)
  let patch ~config t (old : compiled) =
    let prob = old.problem.Solver.prob and b = t.bounds in
    List.iter (fun a -> Problem.set_rlevel prob b.row.(a) b.level.(a)) t.dirty;
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
      let problem = index ~room t in
      let solution = resolve_from ~config t old ~patch:false problem in
      finish t { problem; solution }
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
