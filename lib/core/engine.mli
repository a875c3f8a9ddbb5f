(** Parallel batch-solving engine with per-task supervision.

    Algorithm 3.1 solves one problem on one core; classification pipelines
    (schema sweeps, workload benchmarks, impact analyses over many candidate
    constraint sets) solve thousands of {e independent} problems.  The
    engine fans a batch of compiled problems out over OCaml 5 domains:
    workers claim problems off a shared atomic counter, so skewed problem
    sizes cannot idle a domain, and every result is stored at its input
    index, so the output is deterministic — [solutions.(i)] is exactly what
    solving [problems.(i)] produces, whatever the interleaving.

    {b Domains.}  The calling domain runs one worker; the other
    [jobs - 1] run on the process's helper domains ({!Pool}).  A helper is
    spawned the first time a batch needs one more than are parked and is
    kept for the life of the process, parked (blocked, not spinning)
    between batches, so back-to-back batches spawn nothing.  The number of
    helpers follows peak concurrent demand: [jobs - 1] for one batch at a
    time, more when batches run at once from several domains or from
    inside another fan-out (a batch never waits for a busy helper).  If a
    spawn fails, the helpers already taken are parked again and the
    spawn's exception is raised before any task runs.

    {b Supervision.}  Each task is isolated: a solve that raises, overruns
    its wall-clock deadline, or exhausts its scheduling-step budget yields
    [Error fault] {e at its own index} and nothing else — completed
    solutions elsewhere in the batch are never discarded.  A {!policy}
    configures the per-task deadline and step budget (enforced
    cooperatively by {!Solver.Make.solve}'s budget checks), bounded retries
    with capped exponential backoff and deterministic seeded jitter, and
    the failure mode: keep-going (the default — every task runs, faults
    are reported per index) or fail-fast ([fail_fast = true] — the pool
    stops claiming new tasks at the first fault and the {e lowest-index}
    error is re-raised with its original backtrace, deterministically in
    every interleaving).

    [Sys.Break] (SIGINT under [Sys.catch_break]) and [Out_of_memory] are
    never classified as task faults: they abort the pool and re-raise, so
    a user interrupt is not silently recorded as a batch failure.

    Problems may share a lattice value: lattice state is read-only during
    solving except for {!Minup_lattice.Explicit}'s lub/glb memo, whose
    single-word slots are safe under unsynchronised concurrent use.

    There is no [?on_event] here: trace callbacks from concurrent solves
    would interleave nondeterministically.  Solve traced problems one at a
    time with {!Solver.Make.solve} — or use the structured tracer: with
    {!Minup_obs.Trace} enabled, every worker emits a [worker] span (with
    its solve count and cumulative queue-wait time) and a [solve_task] span
    per attempt (tagged with its attempt number) on its own per-domain
    track, and with {!Minup_obs.Metrics} enabled the engine records
    per-worker solve counters ([engine/workerN/solves]), the queue-wait
    distribution ([engine/queue_wait_ns]), and the supervision counters
    [engine/retries], [engine/deadline_exceeded], [engine/budget_exhausted],
    [engine/injected] and [engine/solver_errors] (registered at batch start,
    so they report 0 rather than vanish).  All are disabled by default and
    cost one branch per site when off. *)

(** [Domain.recommended_domain_count ()], floored at 1 — the default worker
    count. *)
val default_jobs : unit -> int

(** Supervision policy, applied to every task of a batch. *)
type policy = {
  deadline_ms : int option;  (** per-task (per-attempt) wall-clock budget *)
  max_steps : int option;  (** per-task scheduling-step budget *)
  retries : int;  (** extra attempts after a failed one (0 = none) *)
  backoff_ms : int;
      (** base backoff before retry [k] is [backoff_ms · 2^(k-1)] … *)
  backoff_max_ms : int;  (** … capped here *)
  seed : int;
      (** seeds the deterministic backoff jitter (uniform in [0.5, 1) of
          the nominal delay, derived from (seed, task, attempt)) *)
  fail_fast : bool;
      (** stop claiming tasks at the first fault and re-raise the
          lowest-index error instead of returning a report *)
}

(** Keep-going, no deadline, no step budget, no retries
    ([backoff_ms = 1], [backoff_max_ms = 100], [seed = 0] so enabling
    retries alone gives sane pacing). *)
val default_policy : policy

(** A fault-injection hook (see [Minup_faultsim]): invoked once per solver
    scheduling event of the task it instruments, with the ability to burn
    budget steps ([charge]) or warp the budget's virtual clock forward
    ([warp_ms]) — or to raise {!Fault.Injection} outright.  Both [charge]
    and [warp_ms] are no-ops when the policy configures no budget. *)
type hook = charge:(int -> unit) -> warp_ms:(int -> unit) -> unit

module Make (L : Minup_lattice.Lattice_intf.S) : sig
  (** The solver instance the engine drives.  Compile problems and run
      sequential (or traced) solves through this module; its [problem] and
      [solution] types are the ones the batch API uses. *)
  module Solver : module type of Solver.Make (L)

  type report = {
    solutions : (Solver.solution, Fault.t) result array;
        (** [solutions.(i)] is the outcome of [problems.(i)] — a solution,
            or the fault of its final attempt *)
    attempts : int array;  (** attempts made per task (≥ 1) *)
    stats : Instr.t;
        (** component-wise sum over the {e successful} solves *)
    jobs : int;  (** worker count actually used *)
    retries : int;  (** total retry attempts across the batch *)
    failed : int;  (** number of [Error] outcomes *)
  }

  (** The solutions of an all-[Ok] report, in input order.

      @raise Invalid_argument
        naming the first failed index if any task faulted. *)
  val ok_exn : report -> Solver.solution array

  (** [solve_batch ?policy ?instrument ?jobs problems] solves every
      problem under [policy] (default {!default_policy}) and returns the
      per-task outcomes in input order.  [jobs] defaults to
      {!default_jobs}[ ()] and is clamped to the batch size; [jobs = 1]
      solves inline on the calling domain and takes no helper.  Larger
      [jobs] take [jobs - 1] parked helpers, spawning only those the pool
      lacks (see {e Domains} above); a fail-fast or [Sys.Break] exception
      from a task on a helper is re-raised here once every worker of the
      batch has finished.  Every solve runs under
      {!Solver.Config.default} plus the attempt's budget and hook: a
      batch has no residual or upgrade preference.

      [instrument i] is consulted once per {e attempt} of task [i]; a
      [Some hook] plants the hook on that attempt's solver event stream
      (fault injection — see {!type-hook}).

      With [policy.fail_fast = true] the first fault aborts the batch: the
      faulting task's original exception is re-raised (with its
      backtrace), and it is deterministically the lowest-index fault of
      any interleaving.

      @raise Invalid_argument
        if [jobs < 1], [policy.retries < 0] or a backoff field is
        negative. *)
  val solve_batch :
    ?policy:policy ->
    ?instrument:(int -> hook option) ->
    ?jobs:int ->
    Solver.problem array ->
    report
end
