(** Long-lived solving sessions with incremental re-solving.

    A session owns a constraint problem as {e mutable editor state} — an
    append-only attribute universe, user constraints addressed by dense
    integer ids, and per-attribute lower bounds — plus the last compiled
    {!Minup_core.Solver.Make.problem} and its solution.  Edits
    ({!Make.add_constraint}, {!Make.remove_constraint},
    {!Make.set_lower_bound}, {!Make.add_attribute}) are cheap: they queue
    deltas.  {!Make.resolve} applies the queued deltas and re-solves,
    reusing as much of the previous resolve as the deltas allow:

    - no deltas: the cached solution is returned as-is;
    - only re-tightened lower bounds on attributes that were already
      bounded: the compiled problem is patched in place
      ({!Minup_constraints.Problem.set_rlevel}) and the priority
      assignment is reused — no re-interning, no DFS;
    - otherwise the problem is recompiled, but attributes whose constraint
      neighbourhood is untouched keep their previous levels: the session
      computes the {e dirty closure} of the deltas and re-runs the solver
      only over it ({!Minup_core.Solver.Make.solve_incremental});
    - if the dirty closure reaches a constraint cycle, the session falls
      back to a full solve — forward lowering through a cycle depends on
      global state that per-attribute freezing cannot reproduce.

    Incrementality is {e never} visible in results: every resolve returns
    exactly (bit-identical levels) what a from-scratch
    {!Minup_core.Solver.Make.solve} of the current problem
    ({!Make.snapshot}) would return.  Which path was taken shows up only
    in {!Make.stats} and in the solve's operation counters.

    Sessions are single-domain values: no internal locking. *)

module Make (L : Minup_lattice.Lattice_intf.S) : sig
  (** The session's own solver instance.  Exposed so callers can name the
      types of {!resolve}'s inputs and outputs — and, critically, match
      the {e runtime identity} of its [Cancelled] exception: functor
      applications are generative, so a [Cancelled] raised from inside
      {!resolve} is catchable only as [Make(L).Solver.Cancelled]. *)
  module Solver : module type of Minup_core.Solver.Make (L)

  type t

  (** How past resolves were served; [frozen] totals the attributes whose
      levels were reused (not re-solved) across incremental resolves. *)
  type stats = {
    resolves : int;
    cached : int;  (** no pending deltas: cached solution returned *)
    patched : int;  (** bound-patch path: compile and priorities reused *)
    incremental : int;  (** re-solved with frozen clean attributes *)
    full : int;  (** full solves (first resolve, or cycle fallback) *)
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
