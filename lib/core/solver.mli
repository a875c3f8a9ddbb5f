(** Algorithm 3.1 — minimal classification generation.

    [Make (L)] runs the paper's algorithm over any lattice
    implementation.  Given a compiled constraint problem, {!Make.solve}
    computes a classification [λ : A → L] that satisfies every constraint
    and is pointwise minimal (Definition 2.2): no attribute can be assigned
    a strictly lower level (even jointly with others) while preserving
    satisfaction.

    The implementation has the paper's structure: one function per step,
    all over one per-solve state, and one entry path for every mode
    ({!Make.solve}, {!Make.solve_incremental}, {!Make.solve_with_bounds}):

    - priorities are computed by {!Minup_constraints.Priorities} (the
      two-pass DFS of [Main]) when the problem is compiled;
    - [Bigloop] walks priority sets in decreasing order (or in the order
      an upgrade preference schedules); attributes whose constraints all
      have finalized right-hand sides are labeled by {e back-propagation}
      (one [lub] per simple constraint, one [Minlevel] per complex
      constraint whose turn has come);
    - attributes entangled in constraint cycles are labeled by {e forward
      lowering}: starting from their current (initially [⊤]) level, each
      cover below ([DSet]) is attempted via [Try], which propagates the
      candidate lowering through the cycle and either fails or returns a
      consistent set of simultaneous lowerings;
    - except for a {e simple-only} cyclic set, none of whose members is
      in the lhs of a complex constraint.  Such a set has a unique least
      solution (definite inequalities over a finite semilattice, Rehof &
      Mogensen 1999): every member gets the lub [v] of the set's final
      right-hand sides — the level [Try] would reach one cover at a time —
      with no [Try] call.

    Determinism: priority sets are processed in decreasing priority (or
    the preference's schedule), the members of a set in ascending
    attribute id (declaration order) unless an upgrade preference orders
    them, lattice covers in the order {!Lattice_intf.S.covers_below}
    yields them, and [Try]'s worklist is FIFO — identical inputs produce
    identical classifications and traces. *)

(** {2 Cooperative cancellation budgets}

    A budget bounds a single solve: a wall-clock deadline, a cap on
    {e scheduling steps} (one per [Bigloop] attribute visit, one per [Try]
    worklist pop — the [N_C·H·B] units of Thm. 5.2 made finite), or both.
    The solver checks the budget once per scheduling iteration and, when it
    is exceeded, raises {!Make.Cancelled} carrying the partial assignment
    computed so far.  Budgets are mutable single-use values: create one per
    solve.

    The clock is injectable ([now], defaulting to
    {!Minup_obs.Clock.now_ns}) so tests and the fault simulator can warp
    time deterministically instead of sleeping. *)

type budget

(** Raises [Invalid_argument] if either bound is negative.  A budget with
    neither bound never cancels but still counts steps (useful with
    {!charge}-based fault injection, which needs [max_steps] to trip). *)
val budget :
  ?deadline_ms:int -> ?max_steps:int -> ?now:(unit -> int64) -> unit -> budget

(** [charge b k] burns [k] steps of the budget without doing work
    (saturating, no-op for [k <= 0]).  The fault simulator's budget-blowout
    faults are exactly this; the cancellation itself happens at the
    solver's next check. *)
val charge : budget -> int -> unit

module Make (L : Minup_lattice.Lattice_intf.S) : sig
  type problem = private {
    lat : L.t;
    prob : L.level Minup_constraints.Problem.t;
    prio : Minup_constraints.Priorities.t;
  }

  (** [prepare ~lattice prob] — [prob] with its priorities
      ({!Minup_constraints.Priorities.compute}).  Whether a cyclic
      priority set is simple-only is decided at its turn, from
      [prob]'s [constr_of] and [complex_idx]. *)
  val prepare : lattice:L.t -> L.level Minup_constraints.Problem.t -> problem

  (** Compile constraints into an indexed problem (see
      {!Minup_constraints.Problem.compile}) and {!prepare} it. *)
  val compile :
    lattice:L.t ->
    ?attrs:string list ->
    L.level Minup_constraints.Cst.t list ->
    (problem, Minup_constraints.Problem.error) result

  val compile_exn :
    lattice:L.t ->
    ?attrs:string list ->
    L.level Minup_constraints.Cst.t list ->
    problem

  (** Trace events, emitted in execution order; replaying them reconstructs
      the classification table of Fig. 2(b). *)
  type event =
    | Consider of { attr : string; priority : int }
        (** [Bigloop] turns to this attribute *)
    | Back_assigned of { attr : string; level : L.level }
        (** labeled by back-propagation *)
    | Try_lower of {
        attr : string;
        target : L.level;
        lowered : (string * L.level) list option;
      }
        (** a forward-lowering attempt; [None] means the attempt failed *)
    | Finalized of { attr : string; level : L.level }
        (** a cyclic attribute's level will no longer change.  A member of
            a simple-only set emits [Consider] and then [Finalized] at the
            set's lub, with no [Try_lower] in between. *)

  type solution = {
    levels : L.level array;  (** by attribute id *)
    assignment : (string * L.level) list;
        (** (name, level) of each attribute, in attribute id order.  An
            {!solve_incremental} builds pairs only up to the last id whose
            level is not physically its [prev]'s (or that [prev] lacks) and
            shares [prev]'s own list after it; with no such id, it is
            [prev]'s list itself. *)
    stats : Instr.t;
    reused : int;
        (** attributes whose level {!solve_incremental} took from its
            [prev] solution instead of labeling them; 0 in every other
            mode *)
  }

  type cancel_reason =
    | Deadline of { deadline_ms : int; elapsed_ms : float }
    | Steps of { max_steps : int }

  (** What a cancelled solve had already established.  [partial] lists the
      attributes whose levels were final at cancellation (in declaration
      order); levels of unfinished attributes are meaningless and are not
      reported. *)
  type progress = {
    partial : (string * L.level) list;
    n_finalized : int;
    n_attrs : int;
    steps : int;
  }

  (** Raised by {!solve} / {!solve_with_bounds} when the {!type-budget} is
      exceeded.  Cancellation is cooperative: the check runs once per
      scheduling iteration, so a raising callback or a stuck lattice
      operation is not interrupted — but every path through the algorithm
      passes a check at least once per attribute.  Deadline checks are
      amortized — the clock is polled every 64 scheduling steps, plus one
      unconditional poll when the [Bigloop] completes — so [elapsed_ms]
      can overshoot the deadline slightly, and a solve shorter than 64
      steps only notices its deadline at that final poll. *)
  exception Cancelled of { reason : cancel_reason; progress : progress }

  (** The {!Fault.t} a cancelled solve reports: a [Deadline] becomes
      [Deadline_exceeded], a [Steps] budget becomes [Budget_exhausted]
      with the steps taken.  The one home of this mapping — the batch
      engine and [mlsclassify serve] both report cancellations through it. *)
  val fault_of_cancelled : cancel_reason -> progress -> Fault.t

  (** {2 Configuration}

      Every knob of a solve — the event stream, the lattice shortcuts, the
      schedule bias, the self-check toggle, the budget — lives in one
      {!Config.t} record instead of a trail of optional arguments.  Build
      one with {!Config.make} (or update {!Config.default}) and pass it to
      {!solve} / {!solve_with_bounds} / {!solve_incremental}. *)

  module Config : sig
    type t = {
      on_event : (event -> unit) option;
          (** trace callback, invoked in execution order; with [None] no
              event value is built *)
      residual : (L.t -> target:L.level -> others:L.level -> L.level) option;
          (** replaces the [Minlevel] lattice walk with a direct
              computation of the least level [m] such that
              [lub m others ⊒ target] (footnote 4; see e.g.
              {!Minup_lattice.Compartment.residual}).  It must agree with
              that specification or minimality is lost. *)
      upgrade_preference : (string -> int) option;
          (** biases {e which} minimal solution is returned: when a complex
              constraint leaves a choice of attribute to upgrade,
              attributes with a higher preference value are favored as
              upgrade targets (§3.1 notes the particular minimal solution
              depends on the order of constraint evaluation; this exposes
              that order).  The preference selects among the valid
              sink-first schedules of the SCC condensation, so the result
              is a minimal solution either way; it is best-effort where
              the constraint structure forces an order.  Called once per
              attribute per solve. *)
      check_aggregate : bool;
          (** cross-check, at every [Minlevel] call, the incremental
              lhs-lub aggregate against the reference refold of the whole
              left-hand side, raising [Invalid_argument] on the first
              divergence.  The reference fold is uninstrumented, so the
              returned {!Instr} counters are unaffected.  For tests. *)
      budget : budget option;
          (** bounds the solve (see {!type-budget}); the solve raises
              {!Cancelled} if it is exceeded.  Budgeted and unbudgeted
              solves share one per-step check; without a budget it never
              fires and reads no clock, and the {!Instr} counters are
              bit-identical either way. *)
    }

    (** No events, no residual, no preference, no self-check, no budget. *)
    val default : t

    val make :
      ?on_event:(event -> unit) ->
      ?residual:(L.t -> target:L.level -> others:L.level -> L.level) ->
      ?upgrade_preference:(string -> int) ->
      ?check_aggregate:bool ->
      ?budget:budget ->
      unit ->
      t
  end

  (** [solve ?config problem] — Algorithm 3.1 under [config]
      (default {!Config.default}).  With {!Minup_obs.Trace} on, every
      solve emits [solve], [schedule] and [bigloop] spans and, per cyclic
      priority set, one [try_lower] span, or one [collapse] span (with its
      [size]) for a simple-only set; with {!Minup_obs.Metrics} on, a solve
      that completes adds its [solver/*] and [instr/*] metrics to the
      registry once, at its end ([solver/collapsed_sets] counts the
      simple-only sets, [solver/try_iters_per_scc] samples the others,
      [solver/reused_attrs] adds {!solution.reused}, and an incremental
      solve adds the sets it visited to [solver/visited_sets]). *)
  val solve : ?config:Config.t -> problem -> solution

  (** The solve state one caller's incremental solves hand on to each
      other.  A single-domain value: one solve at a time uses it.  An
      empty one (a fresh {!workspace}) makes the solve allocate its arrays
      anew, as a solve without history would. *)
  type workspace

  (** A workspace that holds nothing yet. *)
  val workspace : unit -> workspace

  (** [solve_incremental ?config ~workspace ~prev:(pp, sol) ~dirty problem] —
      exactly the levels {!solve} [problem] would return, given [sol], an
      earlier solution of [pp], and [dirty], the attribute ids whose own
      constraints (the rows with them in their lhs) changed since [sol].
      [pp] is either [problem] itself, possibly patched in place since by
      {!Minup_constraints.Problem.set_rlevel}, or another compiled
      problem whose attributes are a prefix of [problem]'s (same ids, same
      names) and whose rows that [problem] keeps appear there in the same
      relative order — what a session's rebuild produces.

      The [Bigloop] takes the priority sets in {!solve}'s order.  A set's
      levels depend only on the levels of the sets labeled before it, on
      its own constraints and, for a complex constraint, on which lhs
      member is labeled last (that member runs [Minlevel]; Try sees the
      others at their final level or at [⊤]).  So at its turn a set with
      no dirty or stale member takes [sol]'s levels: it is finalized as a
      visit would leave it (feeding the lhs-lub aggregates of its complex
      constraints), with no step, span, event or [solver/*] tally.  Any
      other set is labeled as in {!solve}; then every member whose new
      level differs from [sol]'s ([L.equal], uncounted), or that [pp]
      lacks, makes stale the lhs members of the constraints whose rhs it
      is and its peers in every complex lhs it is in.  Only the sets
      with a dirty or stale member are visited, in that order (a heap of
      their turns): a skipped set costs nothing at all.

      When [pp] is not [problem] (physically), the solve first widens
      [dirty] with
      - (a) every attribute [pp] lacks;
      - (b) every member of a priority set of [problem] whose attributes
        from [pp] are not exactly one priority set of [pp] (a merged or
        split component; a set that gained an attribute is labeled whole
        through (a));
      - (c) every lhs member of each complex constraint whose
        last-labeled member differs between the two problems' [Bigloop]
        orders — the orders actually taken, an upgrade preference's
        schedule included.
      The priorities of the two problems may order their sets
      differently; only such a swap of two sets that share a complex lhs
      can move a level, and (c) catches it.

      Every counter, aggregate and unlabeled count is then what a scratch
      solve has at the same step, so the same member runs [Minlevel] and
      the levels are bit-identical to {!solve}'s.  With every attribute
      dirty it is {!solve}: same levels, events and counters.  [reused]
      counts the sets' members that took [sol]'s level; [stats] count only
      the work performed.  [sol]'s [assignment] must be the one the
      solve that returned [sol] built: the result shares its tail (see
      {!solution}).

      The solve takes the per-attribute, per-set and per-complex-row
      arrays the last solve that completed with [workspace] left there,
      when they are long enough, fills none of them, and leaves its own
      there when it completes.  Its λ is the workspace's, which holds
      the levels the last solve returned: when [sol] is that solution no
      level is copied.  A solve that changes no level returns [sol]'s
      [levels] and [assignment] themselves and allocates no O(n) array;
      one that changes levels returns one copy of λ and [assignment]'s
      pairs up to the last changed id.  A returned [levels] array is
      never written again.  Arrays the solve must make, it makes of
      exact size.  A solve that raises leaves the workspace empty, so
      the next one makes its arrays anew.
      Results do not depend on the workspace.  Raises [Invalid_argument]
      if [sol] has another number of attributes than [pp], or [pp] more
      than [problem]. *)
  val solve_incremental :
    ?config:Config.t ->
    workspace:workspace ->
    prev:problem * solution ->
    dirty:int list ->
    problem ->
    solution

  (** [find problem solution attr]. *)
  val find : problem -> solution -> string -> L.level option

  (** [satisfies problem levels] — do the levels satisfy every constraint? *)
  val satisfies : problem -> L.level array -> bool

  (** {2 Upper-bound constraints (§6)} *)

  type inconsistency =
    | Unknown_attr of string
        (** an upper bound names an attribute absent from the problem *)
    | Unsatisfiable of {
        cst : L.level Minup_constraints.Cst.t;
        bound : L.level;
      }
        (** a level-rhs constraint whose left-hand side, even at its derived
            upper bounds ([bound] is their lub), cannot dominate the target *)

  val pp_inconsistency :
    L.t -> Format.formatter -> inconsistency -> unit

  (** The preprocessing pass: push upper bounds through the constraint
      graph ([glb] where bounds meet, [lub] across complex left-hand
      sides), returning each attribute's maximum allowed level, or the
      first inconsistency. *)
  val derive_upper_bounds :
    problem -> (string * L.level) list -> (L.level array, inconsistency) result

  (** Solve under upper-bound constraints: preprocess, then run the
      modified [Bigloop] starting from the derived bounds (which must
      invoke [Minlevel] for every attribute of every complex constraint,
      as satisfaction can no longer be assumed while a left-hand side
      neighbour is unlabeled). *)
  val solve_with_bounds :
    ?config:Config.t ->
    problem ->
    (string * L.level) list ->
    (solution, inconsistency) result
end
