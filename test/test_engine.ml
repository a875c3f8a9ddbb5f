(* The batch engine must be a drop-in for a sequential solve loop: same
   solutions, same per-problem counters, same order — whatever the worker
   count.  The workloads below mix shapes (acyclic / one big SCC / SCC
   islands) and lattices so the parity check covers both solver paths
   (back-propagation and forward lowering).

   The second half exercises the supervision layer: per-task fault
   isolation, deterministic fail-fast, deadlines and step budgets
   (cooperative cancellation), retry accounting, and jobs-invariance of a
   batch with seeded injected faults. *)

open Minup_lattice
module E0 = Minup_core.Engine
module Engine = Minup_core.Engine.Make (Explicit)
module Fault = Minup_core.Fault
module Faultsim = Minup_faultsim
module S = Helpers.S
module Gen = Minup_workload.Gen_constraints
module Gen_lattice = Minup_workload.Gen_lattice
module Instr = Minup_core.Instr
module ET = Minup_core.Engine.Make (Total)
module ST = ET.Solver
module Metrics = Minup_obs.Metrics

let case = Helpers.case

let lattices =
  lazy
    [|
      Gen_lattice.diamond_stack 3;
      Gen_lattice.chain_product [ 3; 2 ];
      Minup_core.Paper.fig1b;
    |]

let random_problem rng i =
  let lats = Lazy.force lattices in
  let lat = lats.(i mod Array.length lats) in
  let constants = Explicit.all lat in
  let spec =
    {
      Gen.n_attrs = 18 + (i mod 11);
      n_simple = 26;
      n_complex = 9;
      max_lhs = 4;
      n_constants = 7;
      constants;
    }
  in
  let attrs, csts =
    match i mod 3 with
    | 0 -> Gen.acyclic rng spec
    | 1 -> Gen.single_scc rng spec
    | _ -> Gen.mixed rng spec ~n_islands:3 ~island_size:4
  in
  S.compile_exn ~lattice:lat ~attrs csts

let fields (s : Instr.t) =
  [
    s.Instr.lub;
    s.Instr.glb;
    s.Instr.leq;
    s.Instr.minlevel_calls;
    s.Instr.try_calls;
    s.Instr.try_iterations;
    s.Instr.constraint_checks;
  ]

let stats_eq name a b = Alcotest.(check (list int)) name (fields a) (fields b)

(* 60 randomized workloads, solved sequentially and at jobs = 4: identical
   levels, identical per-problem counters, aggregate = component-wise sum. *)
let parity_jobs4 () =
  let rng = Minup_workload.Prng.create 4242 in
  let problems = Array.init 60 (fun i -> random_problem rng i) in
  let seq = Array.map S.solve problems in
  let report = Engine.solve_batch ~jobs:4 problems in
  Alcotest.(check int) "solution count" 60 (Array.length report.Engine.solutions);
  Alcotest.(check int) "jobs used" 4 report.Engine.jobs;
  Alcotest.(check int) "no failures" 0 report.Engine.failed;
  let sols = Engine.ok_exn report in
  Array.iteri
    (fun i (p : S.solution) ->
      let q = sols.(i) in
      Alcotest.(check (array int))
        (Printf.sprintf "levels of problem %d" i)
        p.S.levels q.S.levels;
      stats_eq (Printf.sprintf "stats of problem %d" i) p.S.stats q.S.stats)
    seq;
  stats_eq "aggregate stats"
    (Instr.sum (Array.map (fun (s : S.solution) -> s.S.stats) seq))
    report.Engine.stats;
  Alcotest.(check bool) "aggregate counted work" true
    (Instr.lattice_ops report.Engine.stats > 0)

(* [count] problems of [shape] at [n] attributes over the 16-level ladder,
   seeded [seed0], [seed0 + 1], ... *)
let ladder_batch shape seed0 count n =
  Array.init count (fun i ->
      let attrs, csts = shape (seed0 + i) n in
      ST.compile_exn ~lattice:Helpers.ladder16 ~attrs csts)

let check_same name (expect : ST.solution array) (got : ST.solution array) =
  Array.iteri
    (fun i (p : ST.solution) ->
      Alcotest.(check (array int))
        (Printf.sprintf "%s: levels of problem %d" name i)
        p.ST.levels got.(i).ST.levels;
      stats_eq (Printf.sprintf "%s: stats of problem %d" name i) p.ST.stats
        got.(i).ST.stats)
    expect

(* The benchmark's batch shapes over the 16-level ladder — 12 acyclic
   problems of 300 attributes and 12 single cycles of 60 — at jobs = 2
   against a sequential solve loop. *)
let parity_ladder_batches () =
  List.iter
    (fun (name, problems) ->
      let report = ET.solve_batch ~jobs:2 problems in
      Alcotest.(check int) (name ^ ": jobs used") 2 report.ET.jobs;
      check_same name (Array.map ST.solve problems) (ET.ok_exn report))
    [
      ("acyclic", ladder_batch Helpers.acyclic_shape 2_000 12 300);
      ("cyclic", ladder_batch Helpers.cycle_shape 3_000 12 60);
    ]

(* Degenerate shapes: empty batch, singleton batch with excess workers
   (jobs clamps to the batch size), inline jobs=1 path, bad jobs, bad
   policy. *)
let edge_cases () =
  let empty = Engine.solve_batch ~jobs:4 [||] in
  Alcotest.(check int) "empty batch" 0 (Array.length empty.Engine.solutions);
  let rng = Minup_workload.Prng.create 7 in
  let p = random_problem rng 0 in
  let one = Engine.solve_batch ~jobs:8 [| p |] in
  Alcotest.(check int) "jobs clamped" 1 one.Engine.jobs;
  let seq = S.solve p in
  Alcotest.(check (array int)) "clamped still solves" seq.S.levels
    (Engine.ok_exn one).(0).S.levels;
  let inline = Engine.solve_batch ~jobs:1 [| p; p |] in
  Alcotest.(check int) "inline path" 1 inline.Engine.jobs;
  Alcotest.(check (array int)) "inline solves" seq.S.levels
    (Engine.ok_exn inline).(1).S.levels;
  Alcotest.check_raises "jobs < 1 rejected"
    (Invalid_argument "Engine.solve_batch: jobs < 1") (fun () ->
      ignore (Engine.solve_batch ~jobs:0 [| p |]));
  Alcotest.check_raises "retries < 0 rejected"
    (Invalid_argument "Engine.solve_batch: retries < 0") (fun () ->
      ignore
        (Engine.solve_batch
           ~policy:{ E0.default_policy with E0.retries = -1 }
           [| p |]))

exception Boom

(* An [instrument] whose hook raises [Boom] at every task's first solver
   event. *)
let boom _ = Some (fun ~charge:_ ~warp_ms:_ -> raise Boom)

let ff = { E0.default_policy with E0.fail_fast = true }

module Trace = Minup_obs.Trace

(* The span-nesting contract dev/validate_trace.exe enforces: every E pops
   a same-name B on its tid, and every tid's stack is empty at the end. *)
let check_balanced_spans events =
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun (e : Trace.event) ->
      match e.ph with
      | 'B' ->
          Hashtbl.replace stacks e.tid
            (e.name :: Option.value (Hashtbl.find_opt stacks e.tid) ~default:[])
      | 'E' -> (
          match Hashtbl.find_opt stacks e.tid with
          | Some (top :: rest) when top = e.name ->
              Hashtbl.replace stacks e.tid rest
          | _ -> Alcotest.failf "unmatched E %S on tid %d" e.name e.tid)
      | _ -> ())
    events;
  Hashtbl.iter
    (fun tid -> function
      | [] -> ()
      | names ->
          Alcotest.failf "tid %d ends with unclosed span(s): %s" tid
            (String.concat ", " names))
    stacks

(* Regression: a raising fail-fast solve on the jobs=1 path must close the
   open "worker" span on the way out, or the exported trace fails the B/E
   nesting validation. *)
let traced_exn_balanced () =
  let rng = Minup_workload.Prng.create 31 in
  let problems = Array.init 3 (fun i -> random_problem rng i) in
  Trace.start ();
  Fun.protect ~finally:Trace.stop (fun () ->
      Alcotest.check_raises "inline-path exception resurfaces" Boom (fun () ->
          ignore (Engine.solve_batch ~instrument:boom ~policy:ff ~jobs:1 problems)));
  check_balanced_spans (Trace.events ());
  Alcotest.(check bool) "a worker span was traced" true
    (List.exists
       (fun (e : Trace.event) -> e.ph = 'B' && e.name = "worker")
       (Trace.events ()))

(* Under fail-fast (the old engine contract) a solve raising inside a
   worker domain must resurface in the caller, not vanish or deadlock. *)
let exn_propagates () =
  let rng = Minup_workload.Prng.create 99 in
  let problems = Array.init 6 (fun i -> random_problem rng i) in
  Alcotest.check_raises "worker exception resurfaces" Boom (fun () ->
      ignore (Engine.solve_batch ~instrument:boom ~policy:ff ~jobs:3 problems))

(* The helper pool.  A batch runs [jobs - 1] workers on parked helper
   domains that outlive it; these cases pin that the steady state spawns
   nothing, that a raising batch leaves the pool fit for the next one,
   and that concurrent and nested batches share it. *)

let sequential_parity name problems (report : Engine.report) =
  Array.iteri
    (fun i (p : S.solution) ->
      let q = (Engine.ok_exn report).(i) in
      Alcotest.(check (array int))
        (Printf.sprintf "%s: levels of problem %d" name i)
        p.S.levels q.S.levels;
      stats_eq (Printf.sprintf "%s: stats of problem %d" name i) p.S.stats q.S.stats)
    (Array.map S.solve problems)

(* The distinct tids of the traced [worker] spans. *)
let worker_tids events =
  List.sort_uniq compare
    (List.filter_map
       (fun (e : Trace.event) -> if e.ph = 'B' && e.name = "worker" then Some e.tid else None)
       events)

(* Domain ids are never reused, so a batch that spawned its workers
   would put each batch's helper on a fresh tid. *)
let pool_steady_state () =
  let rng = Minup_workload.Prng.create 17 in
  let problems = Array.init 6 (fun i -> random_problem rng i) in
  Trace.start ();
  Fun.protect ~finally:Trace.stop (fun () ->
      for _ = 1 to 20 do
        ignore (Engine.solve_batch ~jobs:2 problems)
      done);
  let events = Trace.events () in
  check_balanced_spans events;
  Alcotest.(check int) "40 worker spans" 40
    (List.length
       (List.filter (fun (e : Trace.event) -> e.ph = 'B' && e.name = "worker") events));
  Alcotest.(check int) "on two tids: the caller and one parked helper" 2
    (List.length (worker_tids events))

(* A batch that re-raises leaves every helper parked and usable. *)
let pool_after_raise () =
  let rng = Minup_workload.Prng.create 99 in
  let problems = Array.init 6 (fun i -> random_problem rng i) in
  let plan = [ { Faultsim.task = 1; at_event = 0; kind = Faultsim.Raise } ] in
  (match
     Engine.solve_batch ~policy:ff ~instrument:(Faultsim.instrument plan) ~jobs:3 problems
   with
  | _ -> Alcotest.fail "fail-fast: expected a raise"
  | exception Fault.Injection _ -> ());
  sequential_parity "after a fail-fast re-raise" problems
    (Engine.solve_batch ~jobs:3 problems);
  Alcotest.check_raises "worker exception resurfaces" Boom (fun () ->
      ignore (Engine.solve_batch ~instrument:boom ~policy:ff ~jobs:3 problems));
  sequential_parity "after Boom" problems (Engine.solve_batch ~jobs:3 problems)

(* Two domains batching at once each take their own helper. *)
let pool_concurrent_batches () =
  let rng = Minup_workload.Prng.create 5 in
  let problems = Array.init 8 (fun i -> random_problem rng i) in
  let loop () = List.init 10 (fun _ -> Engine.solve_batch ~jobs:2 problems) in
  let a = Domain.spawn loop and b = Domain.spawn loop in
  let reports = Domain.join a @ Domain.join b in
  List.iteri
    (fun k r -> sequential_parity (Printf.sprintf "concurrent batch %d" k) problems r)
    reports

(* Selfcheck fans its cases out on the pool, and each case's battery runs
   jobs=2 batches inside that fan-out: a helper running a case takes a
   second helper and never waits for a busy one.  At most three helpers
   are ever busy at once (the selfcheck one and one per nested batch), so
   the nested batches' workers stay on at most four tids. *)
let pool_nested_selfcheck () =
  let module Selfcheck = Minup_diffcheck.Selfcheck in
  Trace.start ();
  let s =
    Fun.protect ~finally:Trace.stop (fun () ->
        Selfcheck.run ~seed:42 ~cases:12 ~jobs:2 ())
  in
  Alcotest.(check int) "no failures" 0 s.Selfcheck.total_failures;
  let events = Trace.events () in
  check_balanced_spans events;
  let tids = List.length (worker_tids events) in
  if tids < 2 || tids > 4 then
    Alcotest.failf "nested batch workers on %d tids (expected 2 to 4)" tids

(* Keep-going (the default policy): the same universally-raising hook
   yields a full report — every task its own [Error], nothing raised, and
   no completed work discarded. *)
let keep_going_isolates () =
  let rng = Minup_workload.Prng.create 99 in
  let problems = Array.init 6 (fun i -> random_problem rng i) in
  let report = Engine.solve_batch ~instrument:boom ~jobs:3 problems in
  Alcotest.(check int) "all failed" 6 report.Engine.failed;
  Array.iter
    (function
      | Ok _ -> Alcotest.fail "expected a fault"
      | Error f ->
          Alcotest.(check string) "classified as solver error" "solver_error"
            (Fault.label f))
    report.Engine.solutions

(* An injected fault surfaces only at its planted index; every other task
   keeps its solution bit-identical to a sequential solve. *)
let fault_isolated () =
  let rng = Minup_workload.Prng.create 11 in
  let problems = Array.init 8 (fun i -> random_problem rng i) in
  let seq = Array.map S.solve problems in
  let plan =
    [
      { Faultsim.task = 2; at_event = 0; kind = Faultsim.Raise };
      { Faultsim.task = 5; at_event = 3; kind = Faultsim.Raise };
    ]
  in
  let report =
    Engine.solve_batch ~instrument:(Faultsim.instrument plan) ~jobs:3 problems
  in
  Alcotest.(check int) "two failures" 2 report.Engine.failed;
  Array.iteri
    (fun i -> function
      | Ok (s : S.solution) ->
          Alcotest.(check bool)
            (Printf.sprintf "task %d not planted" i)
            false (i = 2 || i = 5);
          Alcotest.(check (array int))
            (Printf.sprintf "task %d bit-identical" i)
            seq.(i).S.levels s.S.levels;
          stats_eq (Printf.sprintf "task %d stats" i) seq.(i).S.stats s.S.stats
      | Error f ->
          Alcotest.(check bool)
            (Printf.sprintf "task %d planted" i)
            true (i = 2 || i = 5);
          Alcotest.(check string) "injected" "injected" (Fault.label f))
    report.Engine.solutions

(* Fail-fast determinism: with faults planted at tasks 3, 6 and 9, the
   re-raised exception names task 3 — the lowest input index — whatever
   the worker count or interleaving. *)
let fail_fast_lowest_index () =
  let rng = Minup_workload.Prng.create 23 in
  let problems = Array.init 12 (fun i -> random_problem rng i) in
  let plan =
    List.map
      (fun task -> { Faultsim.task; at_event = 0; kind = Faultsim.Raise })
      [ 9; 3; 6 ]
  in
  List.iter
    (fun jobs ->
      match
        Engine.solve_batch ~policy:ff
          ~instrument:(Faultsim.instrument plan)
          ~jobs problems
      with
      | _ -> Alcotest.failf "jobs=%d: expected a raise" jobs
      | exception Fault.Injection d ->
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d: lowest index wins" jobs)
            "raise at event 0 of task 3" d)
    [ 1; 4 ]

(* Deadline and step-budget faults, driven deterministically: a stall
   warps the budget's virtual clock (no real sleeping), a blowout burns
   the step budget.  Both must be classified as their own fault kinds at
   their own indices. *)
let budget_faults () =
  let rng = Minup_workload.Prng.create 37 in
  let problems = Array.init 6 (fun i -> random_problem rng i) in
  let plan =
    [
      { Faultsim.task = 1; at_event = 0; kind = Faultsim.Stall 60_000 };
      { Faultsim.task = 4; at_event = 0; kind = Faultsim.Blowout };
    ]
  in
  let policy =
    {
      E0.default_policy with
      E0.deadline_ms = Some 10_000;
      max_steps = Some 10_000_000;
    }
  in
  let report =
    Engine.solve_batch ~policy
      ~instrument:(Faultsim.instrument plan)
      ~jobs:2 problems
  in
  Array.iteri
    (fun i -> function
      | Ok _ ->
          Alcotest.(check bool)
            (Printf.sprintf "task %d clean" i)
            false (i = 1 || i = 4)
      | Error f ->
          let expect = if i = 1 then "deadline" else "budget" in
          Alcotest.(check string)
            (Printf.sprintf "task %d kind" i)
            expect (Fault.label f))
    report.Engine.solutions;
  (* Payloads carry the configured budgets. *)
  (match report.Engine.solutions.(1) with
  | Error (Fault.Deadline_exceeded { deadline_ms; elapsed_ms }) ->
      Alcotest.(check int) "deadline payload" 10_000 deadline_ms;
      Alcotest.(check bool) "elapsed past the deadline" true
        (elapsed_ms > 10_000.)
  | _ -> Alcotest.fail "task 1 should be a deadline fault");
  match report.Engine.solutions.(4) with
  | Error (Fault.Budget_exhausted { max_steps; steps }) ->
      Alcotest.(check int) "budget payload" 10_000_000 max_steps;
      Alcotest.(check bool) "steps past the budget" true (steps > max_steps)
  | _ -> Alcotest.fail "task 4 should be a budget fault"

(* Retry accounting: a deterministic fault fails every attempt, so a
   2-retry policy makes exactly 3 attempts at the planted index and 1
   everywhere else. *)
let retries_accounted () =
  let rng = Minup_workload.Prng.create 53 in
  let problems = Array.init 5 (fun i -> random_problem rng i) in
  let plan = [ { Faultsim.task = 2; at_event = 0; kind = Faultsim.Raise } ] in
  let policy = { E0.default_policy with E0.retries = 2; backoff_ms = 0 } in
  let report =
    Engine.solve_batch ~policy
      ~instrument:(Faultsim.instrument plan)
      ~jobs:2 problems
  in
  Alcotest.(check int) "one failure" 1 report.Engine.failed;
  Alcotest.(check int) "total retries" 2 report.Engine.retries;
  Array.iteri
    (fun i attempts ->
      Alcotest.(check int)
        (Printf.sprintf "attempts at task %d" i)
        (if i = 2 then 3 else 1)
        attempts)
    report.Engine.attempts

(* The acceptance batch: raise + stall + blowout planted by a seeded plan,
   identical outcome labels and bit-identical successes at jobs=1 and
   jobs=4. *)
let jobs_invariant_faults () =
  let rng = Minup_workload.Prng.create 61 in
  let problems = Array.init 10 (fun i -> random_problem rng i) in
  let plan = Faultsim.plan ~seed:42 ~tasks:10 ~faults:3 in
  Alcotest.(check int) "plan plants 3 sites" 3 (List.length plan);
  let kinds = List.map (fun s -> s.Faultsim.kind) plan in
  Alcotest.(check bool) "all three kinds planted" true
    (List.mem Faultsim.Raise kinds
    && List.mem Faultsim.Blowout kinds
    && List.exists (function Faultsim.Stall _ -> true | _ -> false) kinds);
  let targets = Faultsim.targets plan in
  let policy =
    {
      E0.default_policy with
      E0.deadline_ms = Some 10_000;
      max_steps = Some 10_000_000;
      retries = 1;
      backoff_ms = 0;
    }
  in
  let run jobs =
    Engine.solve_batch ~policy ~instrument:(Faultsim.instrument plan) ~jobs
      problems
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check int) "failed = planted (jobs=1)" 3 r1.Engine.failed;
  Array.iteri
    (fun i o1 ->
      match (o1, r4.Engine.solutions.(i)) with
      | Ok (a : S.solution), Ok b ->
          Alcotest.(check bool)
            (Printf.sprintf "task %d unplanted" i)
            false (List.mem i targets);
          Alcotest.(check (array int))
            (Printf.sprintf "task %d levels jobs-invariant" i)
            a.S.levels b.S.levels;
          stats_eq (Printf.sprintf "task %d stats jobs-invariant" i) a.S.stats
            b.S.stats
      | Error f, Error g ->
          Alcotest.(check bool)
            (Printf.sprintf "task %d planted" i)
            true (List.mem i targets);
          Alcotest.(check string)
            (Printf.sprintf "task %d fault kind jobs-invariant" i)
            (Fault.label f) (Fault.label g)
      | _ -> Alcotest.failf "task %d: outcome differs between jobs=1 and 4" i)
    r1.Engine.solutions

(* Cooperative cancellation at the solver level: a step budget trips with
   partial progress attached; a warped clock trips the deadline without
   any real waiting. *)
let solver_budget_cancels () =
  let rng = Minup_workload.Prng.create 5 in
  let p = random_problem rng 1 in
  (match S.solve
     ~config:
       (S.Config.make ~budget:(Minup_core.Solver.budget ~max_steps:3 ()) ())
     p with
  | _ -> Alcotest.fail "expected a step-budget cancellation"
  | exception S.Cancelled { reason = S.Steps { max_steps }; progress } ->
      Alcotest.(check int) "max_steps payload" 3 max_steps;
      Alcotest.(check bool) "charged past the budget" true (progress.S.steps > 3);
      Alcotest.(check bool) "partial progress is partial" true
        (progress.S.n_finalized < progress.S.n_attrs)
  | exception S.Cancelled _ -> Alcotest.fail "wrong cancel reason");
  (* Each clock read advances 10 virtual ms: the solve can never finish a
     5 ms deadline, and no wall-clock time is involved. *)
  let t = ref 0L in
  let now () =
    t := Int64.add !t 10_000_000L;
    !t
  in
  match S.solve
    ~config:
      (S.Config.make
         ~budget:(Minup_core.Solver.budget ~deadline_ms:5 ~now ())
         ())
    p with
  | _ -> Alcotest.fail "expected a deadline cancellation"
  | exception S.Cancelled { reason = S.Deadline { deadline_ms; elapsed_ms }; _ }
    ->
      Alcotest.(check int) "deadline payload" 5 deadline_ms;
      Alcotest.(check bool) "virtual time elapsed" true (elapsed_ms >= 10.)
  | exception S.Cancelled _ -> Alcotest.fail "wrong cancel reason"

(* A budget generous enough to never trip must not change the result or
   the Instr counters (budget steps are counted separately), and must cost
   no more than its amortized checks: budgeted and plain solves share one
   per-step check, which leaves the hot loop only every 64 steps. *)
let generous =
  {
    E0.default_policy with
    E0.deadline_ms = Some 3_600_000;
    max_steps = Some max_int;
    retries = 2;
  }

(* Four tasks each of the 2k acyclic and the 600-attribute cycle shape:
   the cycle with one complex constraint, solved by [Try], and the bare
   cycle, solved by one lub. *)
let supervised_shapes =
  lazy
    [
      ("acyclic 2k", ladder_batch Helpers.acyclic_shape 4_000 4 2_000);
      ("cycle 600", ladder_batch Helpers.complex_cycle_shape 4_000 4 600);
      ("bare cycle 600", ladder_batch Helpers.cycle_shape 4_000 4 600);
    ]

(* Supervised batches equal unsupervised ones, take one attempt per task,
   and report zero fault counters. *)
let supervision_transparent () =
  let shapes = Lazy.force supervised_shapes in
  List.iter
    (fun (name, problems) ->
      List.iter
        (fun jobs ->
          let name = Printf.sprintf "%s, jobs=%d" name jobs in
          let plain = ET.solve_batch ~jobs problems in
          let sup = ET.solve_batch ~policy:generous ~jobs problems in
          check_same name (ET.ok_exn plain) (ET.ok_exn sup);
          stats_eq (name ^ ": aggregate stats") plain.ET.stats sup.ET.stats;
          Alcotest.(check (array int))
            (name ^ ": one attempt per task")
            (Array.make (Array.length problems) 1)
            sup.ET.attempts;
          Alcotest.(check int) (name ^ ": retries") 0 sup.ET.retries;
          Alcotest.(check int) (name ^ ": failed") 0 sup.ET.failed)
        [ 1; 2 ])
    shapes;
  Metrics.enable ();
  Metrics.clear ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Metrics.clear ())
    (fun () ->
      ignore
        (ET.solve_batch ~policy:generous ~jobs:2
           (List.assoc "acyclic 2k" shapes));
      let counters =
        match Metrics.to_json () with
        | Minup_obs.Json.Obj fields -> (
            match List.assoc_opt "counters" fields with
            | Some (Minup_obs.Json.Obj cs) -> cs
            | _ -> [])
        | _ -> []
      in
      List.iter
        (fun key ->
          match List.assoc_opt key counters with
          | Some (Minup_obs.Json.Num 0.) -> ()
          | Some _ -> Alcotest.failf "%s is not 0" key
          | None -> Alcotest.failf "%s is missing from the metrics" key)
        [ "engine/retries"; "engine/deadline_exceeded"; "engine/budget_exhausted" ])

(* What supervision costs on top of a plain batch at jobs = 1: a few
   words per task (the budget and its closures), never words per step. *)
let supervision_allocation () =
  let small, large = Lazy.force Helpers.acyclic_2k_8k in
  List.iter
    (fun (attrs, csts) ->
      let n = List.length attrs and tasks = 4 in
      let problems =
        Array.make tasks (ST.compile_exn ~lattice:Helpers.ladder16 ~attrs csts)
      in
      let plain = Helpers.words (fun () -> ET.solve_batch ~jobs:1 problems) in
      let sup =
        Helpers.words (fun () -> ET.solve_batch ~policy:generous ~jobs:1 problems)
      in
      let per_attr = (sup -. plain) /. float_of_int (n * tasks) in
      if per_attr > 0.25 then
        Alcotest.failf
          "%d attrs: supervision allocated %.2f words per attribute per task \
           (bound 0.25)"
          n per_attr)
    [ small; large ]

(* A budgeted solve reads its clock once at the start, once per 64 steps
   (a step is a Bigloop attribute visit or a Try worklist pop) and once
   at the end. *)
let supervision_clock_reads () =
  List.iter
    (fun (name, p) ->
      let reads = ref 0 in
      let now () =
        incr reads;
        0L
      in
      let budget =
        Minup_core.Solver.budget ~deadline_ms:3_600_000 ~max_steps:max_int ~now ()
      in
      let sol = ST.solve ~config:(ST.Config.make ~budget ()) p in
      let steps =
        Minup_constraints.Problem.n_attrs p.ST.prob
        + sol.ST.stats.Instr.try_iterations
      in
      Alcotest.(check int) (name ^ ": clock reads") ((steps / 64) + 2) !reads)
    (List.map (fun (name, problems) -> (name, problems.(0)))
       (Lazy.force supervised_shapes))

let budget_transparent () =
  let rng = Minup_workload.Prng.create 71 in
  let problems = Array.init 4 (fun i -> random_problem rng i) in
  Array.iter
    (fun p ->
      let plain = S.solve p in
      let budgeted =
        S.solve
          ~config:
            (S.Config.make
               ~budget:
                 (Minup_core.Solver.budget ~deadline_ms:3_600_000
                    ~max_steps:max_int ())
               ())
          p
      in
      Alcotest.(check (array int))
        "levels unchanged under a loose budget" plain.S.levels
        budgeted.S.levels;
      stats_eq "counters unchanged under a loose budget" plain.S.stats
        budgeted.S.stats)
    problems;
  supervision_transparent ();
  supervision_allocation ();
  supervision_clock_reads ()

let fault_json_roundtrip () =
  List.iter
    (fun f ->
      match Fault.of_json (Fault.to_json f) with
      | Ok f' ->
          Alcotest.(check bool)
            (Format.asprintf "round-trip of %a" Fault.pp f)
            true (f = f')
      | Error e -> Alcotest.failf "round-trip rejected: %s" e)
    [
      Fault.Solver_error { exn = "Boom" };
      Fault.Deadline_exceeded { deadline_ms = 10; elapsed_ms = 12.345 };
      Fault.Deadline_exceeded { deadline_ms = 0; elapsed_ms = 0.125 };
      Fault.Budget_exhausted { max_steps = 5; steps = 6 };
      Fault.Injected { description = "stall 60000ms at event 1 of task 0" };
    ];
  match Fault.of_json (Minup_obs.Json.Str "nope") with
  | Ok _ -> Alcotest.fail "non-object accepted"
  | Error _ -> ()

let suite =
  [
    case "jobs=4 parity on 60 random workloads" parity_jobs4;
    case "jobs=2 parity on the ladder batch shapes" parity_ladder_batches;
    case "edge cases: empty, clamp, inline, bad jobs, bad policy" edge_cases;
    case "fail-fast worker exception propagates" exn_propagates;
    case "traced jobs=1 exception keeps spans balanced" traced_exn_balanced;
    case "pool: back-to-back batches spawn nothing" pool_steady_state;
    case "pool: a re-raising batch leaves the pool usable" pool_after_raise;
    case "pool: concurrent batches from two domains" pool_concurrent_batches;
    case "pool: selfcheck's nested batches share the pool" pool_nested_selfcheck;
    case "keep-going isolates every fault" keep_going_isolates;
    case "injected fault isolated at its index" fault_isolated;
    case "fail-fast re-raises the lowest input index" fail_fast_lowest_index;
    case "stall and blowout become deadline/budget faults" budget_faults;
    case "retries are attempted and accounted" retries_accounted;
    case "seeded fault plan is jobs-invariant" jobs_invariant_faults;
    case "solver budget cancels with partial progress" solver_budget_cancels;
    case "loose budget leaves solve bit-identical" budget_transparent;
    case "fault JSON round-trips" fault_json_roundtrip;
  ]
