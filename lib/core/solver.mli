(** Algorithm 3.1 — minimal classification generation.

    [Make (L)] instantiates the paper's algorithm over any lattice
    implementation.  Given a compiled constraint problem, {!Make.solve}
    computes a classification [λ : A → L] that satisfies every constraint
    and is pointwise minimal (Definition 2.2): no attribute can be assigned
    a strictly lower level (even jointly with others) while preserving
    satisfaction.

    The implementation follows the paper's structure exactly:

    - priorities are computed by {!Minup_constraints.Priorities} (the
      two-pass DFS of [Main]);
    - [Bigloop] walks priority sets in decreasing order; attributes whose
      constraints all have finalized right-hand sides are labeled by
      {e back-propagation} (one [lub] per simple constraint, one [Minlevel]
      per complex constraint whose turn has come);
    - attributes entangled in constraint cycles are labeled by {e forward
      lowering}: starting from their current (initially [⊤]) level, each
      cover below is attempted via [Try], which propagates the candidate
      lowering through the cycle and either fails or returns a consistent
      set of simultaneous lowerings.

    Determinism: priority sets are processed in ascending attribute-id
    (declaration) order, lattice covers in the order {!Lattice_intf.S.covers_below}
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

  (** Compile constraints into an indexed problem (see
      {!Minup_constraints.Problem.compile}) and precompute priorities. *)
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
        (** a cyclic attribute's level will no longer change *)

  type solution = {
    levels : L.level array;  (** by attribute id *)
    assignment : (string * L.level) list;  (** by attribute name *)
    stats : Instr.t;
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
      (default {!Config.default}). *)
  val solve : ?config:Config.t -> problem -> solution

  (** [solve_incremental ?config ~frozen problem] — like {!solve}, but
      attributes for which [frozen] returns [Some l] are pinned at [l]:
      they are finalized up front (feeding the lhs-lub aggregates of their
      complex constraints), skipped by the [Bigloop], and emit no events.

      This is the re-solve primitive behind [Minup_session]: the caller
      promises that every frozen level is exactly what a full {!solve} of
      this problem would compute, that the non-frozen attributes are
      dependency-closed (no frozen attribute's level depends on a
      non-frozen one) and acyclic.  Under that contract the result is
      bit-identical in [levels] to a full solve; outside it the result is
      unspecified.  The returned [stats] count only the work actually
      performed. *)
  val solve_incremental :
    ?config:Config.t -> frozen:(int -> L.level option) -> problem -> solution

  (** [reuse_priorities problem prob'] rebuilds the compiled problem around
      [prob'] while keeping the already-computed priorities — sound only
      when the constraint {e graph} is unchanged (same attributes, same
      lhs → rhs-attribute edges), e.g. when only level right-hand sides
      were replaced via {!Minup_constraints.Problem.set_rlevel}.
      Unchecked: with a structurally different [prob'] the solve result is
      unspecified. *)
  val reuse_priorities :
    problem -> L.level Minup_constraints.Problem.t -> problem

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
