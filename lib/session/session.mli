(** Long-lived solving sessions with incremental re-solving.

    A session owns a constraint problem as {e mutable editor state} — an
    append-only attribute universe, user constraints addressed by dense
    integer ids, and per-attribute lower bounds — plus the last compiled
    {!Minup_core.Solver.Make.problem} and its solution.  Edits
    ({!Make.add_constraint}, {!Make.remove_constraint},
    {!Make.set_lower_bound}, {!Make.add_attribute}) are cheap: they queue
    deltas.  {!Make.resolve} applies the queued deltas and re-solves, in
    one of four ways:

    - no deltas ([cached]): the cached solution is returned as-is;
    - only re-tightened lower bounds on attributes that were already
      bounded at the last compile ([patch]): each new level is written
      into the compiled problem in place
      ({!Minup_constraints.Problem.set_rlevel}) and the priority
      assignment is kept — no copy, no re-interning, no DFS;
    - any other delta — a constraint added or removed, a new attribute,
      a first or cleared bound ([rebuild]): a new problem is built from
      the session's interned lines, flattened into a store and indexed
      ({!Minup_constraints.Problem.of_lines}: user rows in id order, then
      the bound rows, as a compile of
      {!Make.snapshot} lays them out) and its priorities are exactly a
      scratch compile's: carried over from the compiled problem
      ({!Minup_constraints.Priorities.carry}) when every edge the deltas
      added or removed was checked, as it was queued, to leave them
      unchanged — always so for rows with a level right-hand side, first
      and cleared bounds and new attributes with no row from an old
      attribute into them — else computed afresh.  No name is looked
      up and no snapshot is built.  The session's problems keep an eighth
      more room than they need, and a rebuild whose solve has no budget
      and no upgrade preference writes the new problem into the old
      one's arrays ({!Minup_constraints.Problem.room}): only a rebuild
      that outgrows them allocates a store and indexes;
    - the first resolve ([scratch]): the rows are indexed the same way
      and solved from scratch.  Every constraint has had its row since it
      was added ({!Make.create}, {!Make.of_rows}, {!Make.add_constraint}),
      so no resolve compiles from names.

    [patch] and [rebuild] then re-solve from the previous solution
    ({!Minup_core.Solver.Make.solve_incremental}) with the attributes
    whose own rows changed dirty: at its [Bigloop] turn, a priority set
    none of whose inputs changed level takes its previous levels
    unchanged, so a re-solve stops where levels stop changing.  A set
    that is labeled again — cyclic or not — is labeled exactly as in a
    scratch solve.  Traced, each resolve's [session.resolve] span names
    its path and, as [reason], the delta that chose it ([first resolve],
    [no delta], [re-tightened x], [add #17], [remove #3],
    [new attribute y], [first bound on x], [cleared bound on x]).  A
    rebuild's also says, as [priorities], whether they were [kept],
    [shifted] past new attributes or [computed], and when computed, as
    [refused], the first delta that refused the carry and why
    ([add #12: A7 finishes after A3]).  With metrics on, completed
    rebuilds count in [session/priorities_kept] (kept or shifted) and
    [session/priorities_computed].

    Incrementality is {e never} visible in results: every resolve returns
    exactly (bit-identical levels) what a from-scratch
    {!Minup_core.Solver.Make.solve} of the current problem
    ({!Make.snapshot}) would return.  Which path was taken shows up only
    in {!Make.stats}, in the trace and in the solve's operation counters.

    Sessions are single-domain values: no internal locking.

    {b Costs.}  The editor state is flat: attribute names live only in
    one name ↔ id table ({!Minup_constraints.Problem.Names}), which the
    session's problems share and read their names from; user
    constraints as flat {!Minup_constraints.Problem.lines} — one array
    of every constraint's interned lhs as written, addressed by id
    through an offsets array, plus its rhs code and whether its row is
    kept — and bounds in arrays keyed by attribute id: each bound's
    level and row, and the links of one list of the bounded attributes
    in first-set order, which a cleared bound leaves and a bound set
    again rejoins at the end.  A removed
    constraint's lhs entries stay in the lines until the lhs array
    fills; then the live entries are repacked (ids unchanged, a removed
    id keeping an empty range), in place when they fill at most half of
    it (the dead ones then outnumber them), else into an array twice
    their size, so the array holds at most twice the live entries plus a
    constant; the level entries removed lines held are dropped with
    them.  With [k] the size of the constraint involved:
    - {!Make.create}: linear in its input (attributes plus total
      constraint size), one name lookup per mention;
    - {!Make.of_rows}: O(1): it adopts the parsed lines and name index
      whole, trivial lines included, and builds no store;
    - {!Make.add_constraint}: O(k) amortized (the row is interned at
      once, into the lines' arrays, and each of its edges checked for
      the carry), plus, when the lhs array is full, a repack linear in
      the ids handed out and the entries it holds;
    - {!Make.remove_constraint}: O(k) (the removed row's lhs is noted
      dirty, each attribute once per resolve, and its edges checked);
    - {!Make.set_lower_bound}, {!Make.add_attribute}: O(1) amortized;
    - {!Make.snapshot}: linear in the attributes, the constraint size,
      the constraint ids handed out and the bounds set now;
    - the first {!Make.resolve}: the rebuild path's indexing, then a
      scratch solve;
    - the patch path: no compile and no copy; O(1) per queued bound
      change (an in-place write), then the incremental solve;
    - the rebuild path: linear in the attributes, the live rows' size
      and the constraint ids handed out (the indexing — each kept
      line's range copied into the store, then one counting and one
      filling pass for the two indexes, and one walk of the bounds to
      note their rows — and, unless carried, the two priority DFS
      passes; no name is looked up or copied), then the incremental
      solve.  Carried priorities cost nothing when the universe is the
      same, and a copy of their arrays plus the passes over the new
      attributes alone when it grew; a solve over carried, unchanged
      priorities skips the pass over every set and complex row that
      compares them with the old ones;
    - the incremental solve: O(what changed), with no pass over all
      attributes or sets.  It visits only the priority sets that are
      dirty or read a changed level, each of which first rebuilds the
      counts and aggregates of its members' complex rows (O(lhs) per
      row, at most once per run of skipped sets), plus O(log s) per
      visited set of s pushed to order them.  The session keeps the
      solve state ({!Minup_core.Solver.Make.type-workspace}) from one
      resolve to the next.  A solve that changes no level returns the
      previous solution's levels and assignment themselves; one that
      changes levels copies the levels once and builds, of its
      assignment, only the pairs up to the last attribute whose level
      changed, sharing the rest with the previous solution's.  A
      re-tighten that changes no level visits one set, counts the same
      lattice operations and allocates the same few hundred words at
      2k, 8k and 32k attributes.  On 2k and 8k attributes a rebuild
      resolve that computes its priorities allocates about two fifths
      of a scratch compile and solve of the snapshot: its priorities
      and its solve state; one that keeps them, only the latter. *)

module Make (L : Minup_lattice.Lattice_intf.S) : sig
  (** The session's own solver instance.  Exposed so callers can name the
      types of {!resolve}'s inputs and outputs — and, critically, match
      the {e runtime identity} of its [Cancelled] exception: functor
      applications are generative, so a [Cancelled] raised from inside
      {!resolve} is catchable only as [Make(L).Solver.Cancelled]. *)
  module Solver : module type of Minup_core.Solver.Make (L)

  type t

  (** How past resolves were served; [frozen] totals the attributes whose
      previous levels were reused (not re-solved) across incremental
      resolves.  A patch resolve counts in [patched] and [incremental], a
      rebuild resolve in [incremental] only, so [incremental - patched]
      counts the rebuilds.  A cancelled resolve counts in its path too. *)
  type stats = {
    resolves : int;
    cached : int;  (** no pending deltas: cached solution returned *)
    patched : int;  (** bound-patch path: compile and priorities reused *)
    incremental : int;
        (** patch and rebuild resolves, each re-solved from the previous
            solution *)
    full : int;  (** scratch solves: the first resolve only *)
    frozen : int;
  }

  (** [create ~lattice ?attrs csts] — a fresh session over the given
      constraints.  Nothing is compiled or solved until the first
      {!resolve}.  Attributes are interned in [attrs]-then-first-mention
      order and constraint ids are assigned in list order, [0..]. *)
  val create :
    lattice:L.t -> ?attrs:string list -> L.level Minup_constraints.Cst.t list -> t

  (** [of_rows ~lattice r] — the session {!create} makes from
      [Parse.parse_resolve]'s [attrs] and [csts] on the same text, built
      from {!Minup_constraints.Parse.rows}' result instead: the same ids,
      the same {!snapshot}, the same resolves.  The session takes over
      [r]'s lines and name index.  [r]'s upper bounds are not part of
      it: a session's bounds are lower bounds, set by {!set_lower_bound}. *)
  val of_rows : lattice:L.t -> L.level Minup_constraints.Parse.rows -> t

  val lattice : t -> L.t

  (** [name t i] is the name of attribute id [i] (ids in registration
      order, append-only; a solution's [levels] are indexed by them).
      Raises [Invalid_argument] for an id not handed out. *)
  val name : t -> int -> string

  (** [add_constraint t c] queues [c] and returns its fresh id. *)
  val add_constraint : t -> L.level Minup_constraints.Cst.t -> int

  (** [remove_constraint t id] — [false] if no live constraint has [id].
      Attributes mentioned only by the removed constraint stay in the
      universe (ids are append-only, so solutions keep their shape). *)
  val remove_constraint : t -> int -> bool

  (** [set_lower_bound t attr (Some l)] requires [λ(attr) ⊒ l] — the basic
      constraint [attr >= l], replaced in place if [attr] already has a
      bound (that replacement is the patch fast path).  [None] clears the
      bound.  Unknown attributes are registered first. *)
  val set_lower_bound : t -> string -> L.level option -> unit

  (** Register an attribute (a no-op if already present).  Unconstrained
      attributes classify at ⊥.  Any delta that registers a new
      attribute — {!set_lower_bound} clearing the bound of an unseen one
      included — queues a rebuild. *)
  val add_attribute : t -> string -> unit

  (** Apply queued deltas and (re-)solve.  [config] defaults to
      {!Solver.Config.default}; the fields that select {e which} minimal
      solution is returned ([residual], [upgrade_preference]) must be the
      same at every resolve of one session, or reuse of previous levels is
      unsound.  A [budget] applies to whatever solving actually happens on
      this call.  Raises [Solver.Cancelled] like the underlying solve,
      leaving the deltas queued: a cancelled rebuild leaves the compiled
      problem as it was, and a cancelled patch has written its bounds
      into it, which the retry writes again.  Any other exception from
      an unbudgeted rebuild (an [on_event] callback's, say) leaves the
      deltas queued too, but the old problem's arrays held the new one,
      so the next resolve solves from scratch. *)
  val resolve : ?config:Solver.Config.t -> t -> Solver.solution

  (** Apply queued deltas (with a catch-up {!resolve} if any are
      pending), then run the §6 upper-bounded solve on the compiled
      problem.  [config] applies to the bounded solve; its [budget] also
      covers the catch-up resolve, which otherwise runs under
      {!Solver.Config.default}.  A cancelled catch-up raises
      [Solver.Cancelled] and leaves the deltas queued.  The bounded
      solution is not cached — it is not the session's minimal solution. *)
  val resolve_with_bounds :
    ?config:Solver.Config.t ->
    t ->
    (string * L.level) list ->
    (Solver.solution, Solver.inconsistency) result

  (** The exact compile input the session's state denotes:
      [(attrs, csts)] such that a from-scratch
      [Solver.compile ~attrs csts] + [solve] reproduces {!resolve}'s
      answer.  User constraints in id order, then bound constraints in
      first-set order. *)
  val snapshot : t -> string list * L.level Minup_constraints.Cst.t list

  (** The last resolve's solution, if any resolve has happened and no
      deltas are pending. *)
  val solution : t -> Solver.solution option

  val stats : t -> stats

  (** [lines t] — the session's user constraints as it holds them, and
      the number of ids handed out: line [id] is constraint [id], not
      [kept] if it is trivially satisfied or removed (a removed line's
      range is empty once its entries are reclaimed).  These are the
      session's own arrays, not a copy, and the next edit may replace or
      rewrite them. *)
  val lines : t -> L.level Minup_constraints.Problem.lines * int
end
