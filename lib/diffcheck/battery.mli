(** The differential property battery.

    One case = a lattice plus a constraint set (and optional upper
    bounds).  {!Make.run} pushes the case through every implementation
    that claims to agree with the solver and records each disagreement:

    - the solver's output satisfies every constraint;
    - it is pointwise minimal, exactly — by the polynomial
      {!Minup_core.Explain} replay on every case, and cross-checked
      against the exhaustive {!Minup_core.Verify} enumeration whenever
      the candidate space fits under a cap;
    - the backtracking baseline ({!Minup_baselines.Backtrack}) and the
      solver never strictly undercut one another (minimal solutions need
      not be unique, but two minimal solutions are incomparable);
    - the Qian-style baseline ({!Minup_baselines.Qian}) satisfies the
      constraints and never beats the solver;
    - {!Minup_core.Engine.Make.solve_batch} is bit-identical (levels
      {e and} [Instr] counters) to sequential solves;
    - a {e supervised} batch with a seeded fault planted through
      [Minup_faultsim] (raise / virtual-clock stall / step-budget
      blowout, rotating per case) returns [Error] at exactly the planted
      index, retries it exactly as configured, leaves every other copy
      bit-identical to the sequential solve, and produces the same
      outcome labels at [jobs = 1] and [jobs = 2];
    - the {!Minup_constraints.Parse} render/parse round-trip preserves
      the policy, and the {!Minup_obs.Json} print/parse round-trip
      preserves a document built from the solution (compact and pretty);
    - with bounds: a returned solution respects them and is still
      minimal; a reported inconsistency is confirmed against the
      exhaustive oracle on small cases;
    - a {!Minup_session.Session} fed a deterministic pseudo-random delta
      sequence (add/remove constraint, set/clear lower bound, new
      attribute) answers every [resolve] bit-identically to a
      from-scratch compile-and-solve of its snapshot — incrementality
      must never be visible in results.  A failing sequence is shrunk
      to a minimal failing subsequence before being reported;
    - {!Minup_core.Wire} envelopes built from the case (solution with
      and without stats, fault, infeasible, error, acks) survive the
      [to_json] → [to_string] → [parse] → [of_json] round trip, compact
      and pretty.

    A {!mutation} injects a deliberate bug into the solver's output so
    the harness (and its shrinker) can be proven to catch one. *)

type mutation =
  | Overclassify  (** raise the first non-top attribute to ⊤ *)
  | Underclassify  (** drop the first non-bottom attribute to ⊥ *)

type failure = { property : string; detail : string }

module Make (L : Minup_lattice.Lattice_intf.S) : sig
  (** The properties' names, in the order {!run} checks them and the
      summary's [checks:] line lists them.  A failure's
      [property] is its property's name, except that bounded mode's two
      outcomes, [bounded_ok] and [bounded_infeasible], share the label
      [bounded].  [minimal], [oracle], [backtrack] and [qian] judge only a
      solution that satisfies its constraints. *)
  val checks : string array

  (** Run the full battery on one case.  Returns the disagreements found
      (empty = the case passed), in the order of {!checks}, and adds one
      to [counts.(i)] when property [checks.(i)] applied to the case
      (oracles and baselines apply only when the case is small enough,
      bounded mode only when it has bounds, the supervised and session
      properties only when it has attributes).

      [fault] plants an extra, {e unexpected} runtime fault (of the given
      kind) into the supervised-batch property, which must then fail —
      the supervision analogue of [mutation]: it proves the harness
      catches engine-level misbehavior, not just wrong levels. *)
  val run :
    ?mutation:mutation ->
    ?fault:Minup_faultsim.kind ->
    ?counts:int array ->
    lat:L.t ->
    attrs:string list ->
    csts:L.level Minup_constraints.Cst.t list ->
    bounds:(string * L.level) list ->
    unit ->
    failure list
end
