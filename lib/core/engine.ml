module Trace = Minup_obs.Trace
module Metrics = Minup_obs.Metrics
module Clock = Minup_obs.Clock

let default_jobs () = max 1 (Domain.recommended_domain_count ())

type policy = {
  deadline_ms : int option;
  max_steps : int option;
  retries : int;
  backoff_ms : int;
  backoff_max_ms : int;
  seed : int;
  fail_fast : bool;
}

let default_policy =
  {
    deadline_ms = None;
    max_steps = None;
    retries = 0;
    backoff_ms = 1;
    backoff_max_ms = 100;
    seed = 0;
    fail_fast = false;
  }

type hook = charge:(int -> unit) -> warp_ms:(int -> unit) -> unit

(* splitmix64 finalizer — the backoff jitter must be deterministic given
   (seed, task, attempt) so retrying runs are reproducible; it must not
   depend on global PRNG state other workers also draw from. *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0.5, 1) — "equal jitter": spreads retry wake-ups while
   keeping at least half the nominal delay. *)
let jitter ~seed ~task ~attempt =
  let z =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int seed) 0x9e3779b97f4a7c15L)
         (Int64.add
            (Int64.mul (Int64.of_int task) 0x9e3779b9L)
            (Int64.of_int attempt)))
  in
  0.5 +. (Int64.to_float (Int64.shift_right_logical z 11) /. 0x1p53 *. 0.5)

module Make (L : Minup_lattice.Lattice_intf.S) = struct
  (* Captured before the functor application below shadows [Solver]: the
     budget type lives outside the functor. *)
  let make_budget = Solver.budget
  let charge_budget = Solver.charge

  module Solver = Solver.Make (L)

  type report = {
    solutions : (Solver.solution, Fault.t) result array;
    attempts : int array;
    stats : Instr.t;
    jobs : int;
    retries : int;
    failed : int;
  }

  let ok_exn report =
    Array.mapi
      (fun i r ->
        match r with
        | Ok s -> s
        | Error f ->
            invalid_arg
              (Format.asprintf "Engine.ok_exn: task %d failed: %a" i Fault.pp
                 f))
      report.solutions

  (* Exceptions the supervisor must never swallow as a per-task fault:
     they concern the whole process (user interrupt, resource exhaustion),
     not the task that happened to be running when they struck. *)
  let passthrough = function
    | Sys.Break | Out_of_memory -> true
    | _ -> false

  let classify = function
    | Fault.Injection description -> Fault.Injected { description }
    | Solver.Cancelled { reason; progress } ->
        Solver.fault_of_cancelled reason progress
    | e -> Fault.Solver_error { exn = Printexc.to_string e }

  (* Work distribution is a single atomic counter: workers claim the next
     unsolved index until the batch is exhausted (or a fail-fast abort
     stops further claims).  Dynamic (rather than striped) assignment
     keeps all domains busy when problem sizes are skewed; results land at
     their input index, so the output order is the input order no matter
     which domain solved what.

     Claims are monotonic: if index [i] was ever claimed, every index
     below [i] was claimed before it, and a claimed task always runs to
     completion (the abort flag is only consulted *between* claims).  So
     once the fan-out returns the completed tasks form an exact prefix of
     the input, which is what makes fail-fast deterministic: the
     lowest-index error in that prefix is the same in every
     interleaving. *)
  let solve_batch ?(policy = default_policy) ?instrument ?jobs problems =
    let n = Array.length problems in
    let jobs =
      match jobs with
      | Some j when j < 1 -> invalid_arg "Engine.solve_batch: jobs < 1"
      | Some j -> min j (max 1 n)
      | None -> min (default_jobs ()) (max 1 n)
    in
    if policy.retries < 0 then invalid_arg "Engine.solve_batch: retries < 0";
    if policy.backoff_ms < 0 || policy.backoff_max_ms < 0 then
      invalid_arg "Engine.solve_batch: negative backoff";
    (* Latched once per batch, like the solver: the disabled path is a
       branch per site, with no clocks or atomics touched. *)
    let tracing = Trace.enabled () in
    let metering = Metrics.enabled () in
    let observing = tracing || metering in
    (* Supervision counters are resolved (and thereby registered) up
       front, so a metered batch reports them even when their value is 0 —
       a benchmark's phase_metrics must show [engine/retries = 0], not
       omit the key. *)
    let mfault =
      if metering then
        Some
          ( Metrics.counter "engine/retries",
            Metrics.counter "engine/deadline_exceeded",
            Metrics.counter "engine/budget_exhausted",
            Metrics.counter "engine/injected",
            Metrics.counter "engine/solver_errors" )
      else None
    in
    let count_fault f =
      match mfault with
      | None -> ()
      | Some (_, dl, bg, inj, err) ->
          Metrics.incr
            (match (f : Fault.t) with
            | Deadline_exceeded _ -> dl
            | Budget_exhausted _ -> bg
            | Injected _ -> inj
            | Solver_error _ -> err)
    in
    let need_budget = policy.deadline_ms <> None || policy.max_steps <> None in
    (* One supervised attempt.  The fault-injection hook (if any) rides the
       solver's event stream: each scheduling event invokes it with the
       ability to burn budget steps or warp the budget's virtual clock —
       or to raise {!Fault.Injection} outright. *)
    let run_attempt ~worker ~attempt i =
      if tracing then
        Trace.begin_span ~cat:"engine"
          ~args:
            [
              ("problem", Trace.Int i);
              ("worker", Trace.Int worker);
              ("attempt", Trace.Int attempt);
            ]
          "solve_task";
      let finish () =
        if tracing then Trace.end_span ~cat:"engine" "solve_task"
      in
      let hook = match instrument with None -> None | Some f -> f i in
      let warp = ref 0L in
      let budget =
        if need_budget then
          Some
            (make_budget ?deadline_ms:policy.deadline_ms
               ?max_steps:policy.max_steps
               ~now:(fun () -> Int64.add (Clock.now_ns ()) !warp)
               ())
        else None
      in
      let on_event =
        match hook with
        | None -> None
        | Some h ->
            let charge k =
              match budget with Some b -> charge_budget b k | None -> ()
            in
            let warp_ms ms =
              warp := Int64.add !warp (Int64.mul (Int64.of_int ms) 1_000_000L)
            in
            Some (fun _ev -> h ~charge ~warp_ms)
      in
      match
        Solver.solve ~config:(Solver.Config.make ?on_event ?budget ()) problems.(i)
      with
      | s ->
          finish ();
          Ok s
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          finish ();
          if passthrough e then Printexc.raise_with_backtrace e bt
          else begin
            let f = classify e in
            count_fault f;
            Error (f, e, bt)
          end
    in
    let backoff_sleep ~task ~attempt =
      let base = policy.backoff_ms * (1 lsl min (attempt - 1) 20) in
      let delay_ms = min policy.backoff_max_ms base in
      if delay_ms > 0 then
        Unix.sleepf
          (float_of_int delay_ms
          *. jitter ~seed:policy.seed ~task ~attempt
          /. 1000.)
    in
    let attempts = Array.make n 0 in
    let rec run_task ~worker i =
      let attempt = attempts.(i) + 1 in
      attempts.(i) <- attempt;
      match run_attempt ~worker ~attempt i with
      | Ok _ as ok -> ok
      | Error _ as err when attempt > policy.retries ->
          err
      | Error _ ->
          (match mfault with
          | Some (r, _, _, _, _) -> Metrics.incr r
          | None -> ());
          backoff_sleep ~task:i ~attempt;
          run_task ~worker i
    in
    (* Per-worker load-balance diagnostics: how many solves each worker
       claimed, and how long it spent claiming work off the shared queue
       (one histogram sample per worker = the distribution across the
       pool). *)
    let record_worker ~worker ~solved ~wait_ns =
      if metering then begin
        Metrics.add
          (Metrics.counter (Printf.sprintf "engine/worker%d/solves" worker))
          solved;
        Metrics.observe
          (Metrics.histogram "engine/queue_wait_ns")
          (Int64.to_int wait_ns)
      end
    in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let abort = Atomic.make false in
    let fatal = Atomic.make None in
    let worker w =
      if tracing then
        Trace.begin_span ~cat:"engine"
          ~args:[ ("worker", Trace.Int w) ]
          "worker";
      let solved = ref 0 in
      let wait_ns = ref 0L in
      let continue = ref true in
      while !continue do
        if Atomic.get abort then continue := false
        else begin
          let t_claim = if observing then Clock.now_ns () else 0L in
          let i = Atomic.fetch_and_add next 1 in
          if observing then
            wait_ns := Int64.add !wait_ns (Clock.elapsed_ns ~since:t_claim);
          if i >= n then continue := false
          else begin
            match run_task ~worker:w i with
            | r ->
                results.(i) <- Some r;
                incr solved;
                (match r with
                | Error _ when policy.fail_fast -> Atomic.set abort true
                | _ -> ())
            | exception e ->
                (* A passthrough exception (only those escape [run_task]):
                   park it for the supervisor, stop the whole pool, and
                   keep this worker's spans balanced. *)
                let bt = Printexc.get_raw_backtrace () in
                ignore (Atomic.compare_and_set fatal None (Some (e, bt)));
                Atomic.set abort true;
                continue := false
          end
        end
      done;
      record_worker ~worker:w ~solved:!solved ~wait_ns:!wait_ns;
      if tracing then
        Trace.end_span ~cat:"engine"
          ~args:
            [
              ("solves", Trace.Int !solved);
              ("queue_wait_ns", Trace.Int (Int64.to_int !wait_ns));
            ]
          "worker"
    in
    (* The calling domain is worker number [jobs - 1]; the other
       [jobs - 1] run on the process's parked helpers — with [jobs = 1]
       the caller does everything and no helper is taken. *)
    Pool.run jobs worker;
    (match Atomic.get fatal with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    if policy.fail_fast then
      (* Completed tasks form a prefix of the input (see above), so the
         first stored error is the lowest-index error of any
         interleaving. *)
      Array.iteri
        (fun _ r ->
          match r with
          | Some (Error (_, e, bt)) -> Printexc.raise_with_backtrace e bt
          | _ -> ())
        results;
    let solutions =
      Array.map
        (function
          | Some (Ok s) -> Ok s
          | Some (Error (f, _, _)) -> Error f
          | None ->
              (* Unreachable: abort is only set on fail-fast (raised
                 above) or fatal (raised above); otherwise every index was
                 claimed and completed. *)
              assert false)
        results
    in
    let stats =
      Instr.sum
        (Array.map
           (function Ok s -> s.Solver.stats | Error _ -> Instr.create ())
           solutions)
    in
    let failed =
      Array.fold_left
        (fun acc -> function Ok _ -> acc | Error _ -> acc + 1)
        0 solutions
    in
    let retries =
      Array.fold_left (fun acc k -> acc + max 0 (k - 1)) 0 attempts
    in
    { solutions; attempts; stats; jobs; retries; failed }
end
