(** Long-lived solving sessions with incremental re-solving.

    A session owns a constraint problem as {e mutable editor state} — an
    append-only attribute universe, user constraints addressed by dense
    integer ids, and per-attribute lower bounds — plus the last compiled
    {!Minup_core.Solver.Make.problem} and its solution.  Edits
    ({!Make.add_constraint}, {!Make.remove_constraint},
    {!Make.set_lower_bound}, {!Make.add_attribute}) are cheap: they queue
    deltas.  {!Make.resolve} applies the queued deltas and re-solves, in
    one of three ways:

    - no deltas: the cached solution is returned as-is;
    - only re-tightened lower bounds on attributes that were already
      bounded at the last compile: each new level is written into the
      compiled problem in place ({!Minup_constraints.Problem.set_rlevel})
      and the priority assignment is kept — no copy, no re-interning, no
      DFS.  The solver then runs from the previous solution with the
      patched attributes dirty
      ({!Minup_core.Solver.Make.solve_incremental}): at its [Bigloop]
      turn, a priority set none of whose inputs changed level takes its
      previous levels unchanged, so a re-solve stops where levels stop
      changing.  A set that is labeled again — cyclic or not — is
      labeled exactly as in a scratch solve;
    - anything else (a constraint added or removed, a new attribute, a
      first or cleared bound): the snapshot is compiled and solved from
      scratch.

    Incrementality is {e never} visible in results: every resolve returns
    exactly (bit-identical levels) what a from-scratch
    {!Minup_core.Solver.Make.solve} of the current problem
    ({!Make.snapshot}) would return.  Which path was taken shows up only
    in {!Make.stats} and in the solve's operation counters.

    Sessions are single-domain values: no internal locking.

    {b Costs.}  The editor state is flat: the attribute universe is a list
    kept in reverse plus a hash set, user constraints and bounded
    attributes live in id-addressed append-only arrays where removal
    leaves a tombstone, and bounds are a hash table.  With [k] the size
    of the constraint involved:
    - {!Make.create}: linear in its input (attributes plus total
      constraint size);
    - {!Make.add_constraint}: O(k) amortized;
    - {!Make.remove_constraint}, {!Make.set_lower_bound},
      {!Make.add_attribute}: O(1) amortized;
    - {!Make.snapshot}, and the compile of a {!Make.resolve} after a
      structural delta: linear in the attributes, the constraint size and
      the number of constraint ids and bounded attributes ever handed out
      (tombstones included), plus the compile itself;
    - the patch path of {!Make.resolve}: no compile and no copy; O(1)
      per queued bound change (an in-place write), then linear in the
      attributes plus the constraint rows of the reused sets (each reused
      member is finalized, with no step), plus the solve of the sets
      labeled again. *)

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
      resolves.  Every patch resolve counts in both [patched] and
      [incremental], so the two always move together. *)
  type stats = {
    resolves : int;
    cached : int;  (** no pending deltas: cached solution returned *)
    patched : int;  (** bound-patch path: compile and priorities reused *)
    incremental : int;  (** patch re-solved from the previous solution *)
    full : int;
        (** scratch solves: the first resolve and every resolve after a
            structural delta *)
    frozen : int;
  }

  (** [create ~lattice ?attrs csts] — a fresh session over the given
      constraints.  Nothing is compiled or solved until the first
      {!resolve}.  Attributes are interned in [attrs]-then-first-mention
      order and constraint ids are assigned in list order, [0..]. *)
  val create :
    lattice:L.t -> ?attrs:string list -> L.level Minup_constraints.Cst.t list -> t

  val lattice : t -> L.t

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
      attributes classify at ⊥. *)
  val add_attribute : t -> string -> unit

  (** Apply queued deltas and (re-)solve.  [config] defaults to
      {!Solver.Config.default}; the fields that select {e which} minimal
      solution is returned ([residual], [upgrade_preference]) must be the
      same at every resolve of one session, or reuse of previous levels is
      unsound.  A [budget] applies to whatever solving actually happens on
      this call.  Raises [Solver.Cancelled] like the underlying solve. *)
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
end
