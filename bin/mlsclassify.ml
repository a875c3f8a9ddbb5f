(* mlsclassify — command-line front end for the minimal-upgrading
   classifier.

     mlsclassify solve  -l lattice.lat -c policy.cst [--bound a=LVL] [--events]
     mlsclassify batch  -l lattice.lat --jobs 4 p1.cst p2.cst ...
     mlsclassify serve  [--max-sessions N] [--deadline-ms MS] [--max-steps N]
     mlsclassify stats  -c policy.cst
     mlsclassify dot    -l lattice.lat
     mlsclassify demo

   solve and batch accept the observability flags --trace FILE (Chrome
   trace-event JSON, loadable in Perfetto), --metrics (summary on stderr)
   and --metrics-json FILE.  Lattice files use the Lattice_file format;
   constraint files the Parse format (see the library documentation or
   README). *)

open Minup_lattice
module Solver = Minup_core.Solver.Make (Explicit)
module Engine = Minup_core.Engine.Make (Explicit)
module Parse = Minup_constraints.Parse
module Wire = Minup_core.Wire
module Trace = Minup_obs.Trace
module Metrics = Minup_obs.Metrics
module Obs_clock = Minup_obs.Clock
module Json = Minup_obs.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let or_die = function
  | Ok x -> x
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit 1

(* More workers than the runtime's recommended domain count only contend
   for the same cores, so --jobs is clamped to it, with one warning.  At
   most one worker per task ever runs, so [tasks] caps the request first:
   a small batch under a large --jobs is not oversubscribed. *)
let clamp_jobs ~tasks = function
  | Some j when min j tasks > Minup_core.Engine.default_jobs () ->
      let d = Minup_core.Engine.default_jobs () in
      Printf.eprintf "warning: --jobs %d exceeds the recommended domain count %d; using %d\n%!"
        j d d;
      Some d
  | jobs -> jobs

(* A bad output path is a user error, not an internal one. *)
let or_die_io f = match f () with x -> x | exception Sys_error msg -> or_die (Error msg)

(* Write [text] to [path], '-' meaning stdout: the one writer behind
   --output, --metrics-json and --failures-json. *)
let write_out path text =
  if path = "-" then print_string text
  else
    or_die_io (fun () ->
        Out_channel.with_open_text path (fun oc -> output_string oc text))

let load_lattice path =
  match Lattice_file.parse (read_file path) with
  | Ok l -> Ok l
  | Error e -> Error (Format.asprintf "%s: %a" path Lattice_file.pp_error e)

(* Read a policy file and resolve it against [lattice] straight to the
   compiled problem, with its upper bounds.  A parse error prints
   [error: path: line N: message] and exits 1. *)
let load_policy lattice path =
  match Parse.rows ~level_of_string:(Explicit.level_of_string lattice) (read_file path) with
  | Error e -> or_die (Error (Format.asprintf "%s: %a" path Parse.pp_error e))
  | Ok r ->
      ( Minup_constraints.Problem.of_lines ~attr_index:r.Parse.attr_index r.Parse.lines,
        r.Parse.upper_bounds )

(* The policy at [path] with its priorities, for solve, batch and check. *)
let load_problem lattice path =
  let prob, upper_bounds = load_policy lattice path in
  (Solver.prepare ~lattice prob, upper_bounds)

let print_assignment lattice assignment =
  List.iter
    (fun (attr, l) ->
      Printf.printf "%-24s %s\n" attr (Explicit.level_to_string lattice l))
    assignment

(* --- observability plumbing ----------------------------------------- *)

type obs = {
  trace_file : string option;
  metrics : bool;
  metrics_json : string option;
}

(* [with_obs o f] runs [f] with tracing/metrics enabled as requested, then
   writes the configured sinks.  Every solve records its own solver/* and
   instr/* metrics, so a report covers whatever [f] solved.

   The sinks are flushed on the exception path too: a raising solve or a
   SIGINT ([Sys.Break], see [catch_break] in main) first unwinds the open
   trace spans (so the written trace keeps its B/E nesting) and then
   writes whatever was recorded up to the interruption — a trace of a run
   that died used to vanish entirely, which is precisely when it is most
   wanted.  An interrupt exits 130 after flushing. *)
let with_obs o f =
  if o.trace_file <> None then Trace.start ();
  if o.metrics || o.metrics_json <> None then begin
    Metrics.enable ();
    Metrics.reset ()
  end;
  let t0 = Obs_clock.now_ns () in
  let flush () =
    (match o.trace_file with
    | Some path ->
        Trace.stop ();
        or_die_io (fun () -> Trace.write path)
    | None -> ());
    if Metrics.enabled () then begin
      Metrics.set
        (Metrics.gauge "cli/wall_ns")
        (Int64.to_float (Obs_clock.elapsed_ns ~since:t0));
      if o.metrics then Format.eprintf "%a@?" Metrics.pp ();
      Option.iter
        (fun path ->
          write_out path (Json.to_string ~pretty:true (Metrics.to_json ()) ^ "\n"))
        o.metrics_json;
      Metrics.disable ()
    end
  in
  match f () with
  | result ->
      flush ();
      result
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      if o.trace_file <> None then Trace.unwind_to 0;
      flush ();
      (match e with
      | Sys.Break ->
          prerr_endline "interrupted: observability sinks flushed";
          exit 130
      | _ -> Printexc.raise_with_backtrace e bt)

(* --- solve ---------------------------------------------------------- *)

let parse_bound lattice spec =
  match String.index_opt spec '=' with
  | None -> Error (Printf.sprintf "bound %S is not of the form attr=LEVEL" spec)
  | Some i -> (
      let attr = String.sub spec 0 i in
      let level = String.sub spec (i + 1) (String.length spec - i - 1) in
      match Explicit.level_of_string lattice level with
      | Some l -> Ok (attr, l)
      | None -> Error (Printf.sprintf "unknown level %S in bound" level))

let solve_cmd lattice_path policy_path bounds events check_minimal explain
    output obs =
  let lattice = or_die (load_lattice lattice_path) in
  let problem, upper_bounds = load_problem lattice policy_path in
  let bounds =
    upper_bounds
    @ List.map (fun spec -> or_die (parse_bound lattice spec)) bounds
  in
  let on_event =
    if not events then None
    else
      let lvl l = Explicit.level_to_string lattice l in
      Some
        (fun (e : Solver.event) ->
          match e with
          | Solver.Consider { attr; priority } ->
              Printf.eprintf "consider %s (priority %d)\n" attr priority
          | Solver.Back_assigned { attr; level } ->
              Printf.eprintf "  assign %s := %s\n" attr (lvl level)
          | Solver.Try_lower { attr; target; lowered = None } ->
              Printf.eprintf "  try(%s, %s) fails\n" attr (lvl target)
          | Solver.Try_lower { attr; target; lowered = Some l } ->
              Printf.eprintf "  try(%s, %s) lowers %s\n" attr (lvl target)
                (String.concat ","
                   (List.map (fun (a, v) -> a ^ "->" ^ lvl v) l))
          | Solver.Finalized { attr; level } ->
              Printf.eprintf "  done %s = %s\n" attr (lvl level))
  in
  let solution =
    with_obs obs (fun () ->
        let config = Solver.Config.make ?on_event () in
        if bounds = [] then Solver.solve ~config problem
        else
          match Solver.solve_with_bounds ~config problem bounds with
          | Ok s -> s
          | Error i ->
              prerr_endline
                (Format.asprintf "inconsistent: %a"
                   (Solver.pp_inconsistency lattice)
                   i);
              exit 2)
  in
  print_assignment lattice solution.Solver.assignment;
  if not (Solver.satisfies problem solution.Solver.levels) then begin
    prerr_endline "internal error: solution does not satisfy the constraints";
    exit 3
  end;
  if check_minimal then begin
    let module Explain = Minup_core.Explain.Make (Explicit) in
    if Explain.is_locally_minimal problem solution.Solver.levels then
      prerr_endline "verified: pointwise minimal"
    else begin
      prerr_endline "NOT minimal (internal error)";
      exit 3
    end
  end;
  if explain then begin
    let module Explain = Minup_core.Explain.Make (Explicit) in
    print_newline ();
    print_string (Explain.report problem solution.Solver.levels)
  end;
  Option.iter
    (fun path ->
      write_out path
        (Minup_core.Assignment_io.render
           ~level_to_string:(Explicit.level_to_string lattice)
           solution.Solver.assignment))
    output

(* --- batch ---------------------------------------------------------- *)

(* Solve many policy files against one lattice, fanned out over domains by
   the batch engine.  Output order is input order regardless of [--jobs].

   Failure semantics: by default the batch is fail-fast — the first
   faulting task (deterministically the lowest input index) aborts the
   run with exit 4.  Under --keep-going every task runs to its own
   verdict: solutions print as usual, faults print as FAILED lines (and
   land in --failures-json), and the exit code is 4 iff any task
   faulted. *)
let batch_cmd lattice_path policy_paths jobs show_stats deadline_ms max_steps
    retries backoff_ms keep_going failures_json obs =
  let lattice = or_die (load_lattice lattice_path) in
  let problems =
    Array.of_list
      (List.map (fun path -> fst (load_problem lattice path)) policy_paths)
  in
  let policy =
    {
      Minup_core.Engine.default_policy with
      deadline_ms;
      max_steps;
      retries;
      backoff_ms;
      fail_fast = not keep_going;
    }
  in
  let jobs = clamp_jobs ~tasks:(Array.length problems) jobs in
  let report =
    match
      with_obs obs (fun () -> Engine.solve_batch ~policy ?jobs problems)
    with
    | r -> r
    | exception ((Sys.Break | Out_of_memory) as e) -> raise e
    | exception e ->
        (* Fail-fast abort: the engine re-raised the lowest-index task
           fault (completed work on other tasks is discarded by design
           here — use --keep-going to collect it). *)
        prerr_endline ("error: batch failed: " ^ Printexc.to_string e);
        exit 4
  in
  Array.iteri
    (fun i outcome ->
      Printf.printf "== %s\n" (List.nth policy_paths i);
      match outcome with
      | Ok (sol : Solver.solution) ->
          print_assignment lattice sol.Solver.assignment
      | Error f -> Format.printf "FAILED: %a@." Minup_core.Fault.pp f)
    report.Engine.solutions;
  Option.iter
    (fun path ->
      let doc =
        Json.Arr
          (Array.to_list report.Engine.solutions
          |> List.mapi (fun i outcome -> (i, outcome))
          |> List.filter_map (fun (i, outcome) ->
                   match outcome with
                   | Ok _ -> None
                   | Error f ->
                       (* One Wire envelope per failed task — the same
                          versioned shape serve responses use. *)
                       Some
                         (Wire.to_json
                            (Wire.v1 ~problem:(List.nth policy_paths i)
                               (Wire.Fault
                                  {
                                    fault = f;
                                    attempts = report.Engine.attempts.(i);
                                    task = Some i;
                                  })))))
      in
      write_out path (Json.to_string ~pretty:true doc ^ "\n"))
    failures_json;
  if show_stats then
    Format.eprintf "problems=%d jobs=%d failed=%d retries=%d %a@."
      (Array.length problems)
      report.Engine.jobs report.Engine.failed report.Engine.retries
      Minup_core.Instr.pp report.Engine.stats;
  if report.Engine.failed > 0 then exit 4

(* --- check ---------------------------------------------------------- *)

(* Auditor workflow: verify that a deployed assignment file still
   satisfies the (possibly evolved) policy and wastes no visibility. *)
let check_cmd lattice_path policy_path assignment_path =
  let lattice = or_die (load_lattice lattice_path) in
  let problem, _ = load_problem lattice policy_path in
  let assignment =
    match
      Minup_core.Assignment_io.parse
        ~level_of_string:(Explicit.level_of_string lattice)
        (read_file assignment_path)
    with
    | Ok a -> a
    | Error e ->
        prerr_endline
          (Format.asprintf "%s: %a" assignment_path
             Minup_core.Assignment_io.pp_error e);
        exit 1
  in
  let levels =
    match Minup_core.Assignment_io.bind problem.Solver.prob assignment with
    | Ok l -> l
    | Error (`Missing a) ->
        Printf.eprintf "error: attribute %S has no assignment\n" a;
        exit 1
    | Error (`Unknown a) ->
        Printf.eprintf "error: assignment for unknown attribute %S\n" a;
        exit 1
  in
  let prob = problem.Solver.prob in
  let holds =
    Minup_constraints.Problem.holds ~leq:(Explicit.leq lattice) ~lub:(Explicit.lub lattice)
      ~bottom:(Explicit.bottom lattice) prob (Array.get levels)
  in
  (match
     List.filter (fun ci -> not (holds ci)) (List.init (Minup_constraints.Problem.n_csts prob) Fun.id)
   with
  | [] -> ()
  | violated ->
      print_endline "VIOLATED: the assignment does not satisfy the constraints:";
      List.iter
        (fun ci ->
          Format.printf "  %a@."
            (Minup_constraints.Cst.pp (Explicit.pp_level lattice))
            (Minup_constraints.Problem.cst_to_source prob ci))
        violated;
      exit 2);
  let module Explain = Minup_core.Explain.Make (Explicit) in
  if Explain.is_locally_minimal problem levels then
    print_endline "OK: satisfies the constraints and is pointwise minimal"
  else begin
    print_endline
      "OVERCLASSIFIED: satisfies the constraints but some attributes can be \
       lowered:";
    let prob = problem.Solver.prob in
    for a = 0 to Minup_constraints.Problem.n_attrs prob - 1 do
      let name = Minup_constraints.Problem.attr_name prob a in
      List.iter
        (fun { Explain.to_level; reason } ->
          if reason = Explain.At_bottom then
            Printf.printf "  %s: %s -> %s possible\n" name
              (Explicit.level_to_string lattice levels.(a))
              (Explicit.level_to_string lattice to_level))
        (Explain.binding_constraints problem levels name)
    done;
    exit 3
  end

(* --- stats ---------------------------------------------------------- *)

let stats_cmd lattice_path policy_path =
  let lattice = or_die (load_lattice lattice_path) in
  let problem, _ = load_policy lattice policy_path in
  Format.printf "%a@." Minup_constraints.Stats.pp
    (Minup_constraints.Stats.compute problem)

(* --- dot ------------------------------------------------------------ *)

let dot_cmd lattice_path policy_path =
  let lattice = or_die (load_lattice lattice_path) in
  match policy_path with
  | None -> print_string (Dot.of_explicit lattice)
  | Some path ->
      (* Render the constraint graph (Fig. 2(a) style) instead. *)
      let problem, _ = load_policy lattice path in
      print_string
        (Minup_constraints.Graphviz.render
           ~pp_level:(Explicit.pp_level lattice)
           problem)

(* --- selfcheck ------------------------------------------------------- *)

(* Differential self-check: random cases through solver, oracles,
   baselines and round-trips (lib/diffcheck).  Exit 1 on any
   disagreement; failing cases are shrunk and, with --repro-dir, written
   as replayable .lat/.cst pairs. *)
let selfcheck_cmd seed cases jobs repro_dir mutation fault =
  let jobs =
    match clamp_jobs ~tasks:cases jobs with
    | Some j -> j
    | None -> Minup_core.Engine.default_jobs ()
  in
  let summary =
    Minup_diffcheck.Selfcheck.run ?mutation ?fault ?repro_dir ~seed ~cases
      ~jobs ()
  in
  Format.printf "%a@?" Minup_diffcheck.Selfcheck.pp_summary summary;
  if summary.Minup_diffcheck.Selfcheck.total_failures > 0 then begin
    print_endline "FAIL";
    exit 1
  end
  else print_endline "OK"

(* --- demo ----------------------------------------------------------- *)

let demo_cmd () =
  let lattice = Minup_core.Paper.fig1b in
  let problem =
    Solver.compile_exn ~lattice ~attrs:Minup_core.Paper.fig2_attrs
      Minup_core.Paper.fig2_constraints
  in
  let solution = Solver.solve problem in
  print_endline "Figure 2 of Dawson et al., PODS'99:";
  print_assignment lattice solution.Solver.assignment

(* --- cmdliner wiring ------------------------------------------------ *)

open Cmdliner

let lattice_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "l"; "lattice" ] ~docv:"FILE" ~doc:"Lattice file.")

let policy_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "c"; "constraints" ] ~docv:"FILE" ~doc:"Constraint (policy) file.")

let bounds_arg =
  Arg.(
    value & opt_all string []
    & info [ "bound" ] ~docv:"ATTR=LEVEL"
        ~doc:"Additional upper-bound constraint (repeatable).")

let events_arg =
  Arg.(
    value & flag
    & info [ "events" ]
        ~doc:
          "Print the Fig. 2(b)-style event log (consider/assign/try events) \
           to stderr.  Distinct from $(b,--trace), which writes a Chrome \
           trace-event file.")

(* Observability flags shared by solve and batch. *)
let obs_term =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON of the run to $(docv): compile \
             and solver phase spans (solve, schedule, bigloop, and one \
             try_lower per cyclic priority set, or one collapse per \
             simple-only set), session.resolve under \
             serve, and per-worker spans under batch.  Load it in Perfetto \
             (ui.perfetto.dev) or chrome://tracing.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print a metrics summary (operation counters, phase latency \
             histograms with p50/p90/p99) to stderr.")
  in
  let metrics_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Write the metrics registry as JSON to $(docv) ('-' for \
             stdout).")
  in
  Term.(
    const (fun trace_file metrics metrics_json ->
        { trace_file; metrics; metrics_json })
    $ trace_arg $ metrics_arg $ metrics_json_arg)

let check_arg =
  Arg.(
    value & flag
    & info [ "check-minimal" ]
        ~doc:"Verify pointwise minimality of the result (polynomial check).")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "For every attribute, report the constraints that prevent each \
           one-step lowering.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the assignment to FILE ('attr = LEVEL' lines; '-' for stdout).")

let solve_t =
  Cmd.v
    (Cmd.info "solve" ~doc:"Compute a minimal classification.")
    Term.(
      const solve_cmd $ lattice_arg $ policy_arg $ bounds_arg $ events_arg
      $ check_arg $ explain_arg $ output_arg $ obs_term)

let batch_t =
  let policies_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"POLICY" ~doc:"Constraint (policy) files to solve.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the batch (default and maximum: the \
             runtime's recommended domain count).")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print aggregated operation counters to stderr.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-task wall-clock budget: a solve still running after $(docv) \
             milliseconds is cancelled cooperatively and reported as a \
             deadline fault.")
  in
  let max_steps_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Per-task scheduling-step budget: a solve exceeding $(docv) \
             bigloop/try iterations is cancelled and reported as a budget \
             fault.")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry a faulted task up to $(docv) times (capped exponential \
             backoff with deterministic jitter) before recording its fault.")
  in
  let backoff_arg =
    Arg.(
      value & opt int 1
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:"Base backoff before the first retry (doubles per retry).")
  in
  let keep_going_arg =
    Arg.(
      value & flag
      & info [ "keep-going" ]
          ~doc:
            "Run every task to its own verdict instead of aborting at the \
             first fault; failed tasks print FAILED lines and the exit code \
             is 4 if any task faulted.")
  in
  let failures_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "failures-json" ] ~docv:"FILE"
          ~doc:
            "Write the failed tasks (index, policy file, attempts, fault) as \
             a JSON array to $(docv) ('-' for stdout).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Solve many policy files against one lattice in parallel; results \
          are printed in input order.  Exits 0 when every task solved, 1 on \
          usage/IO errors, 4 when a task faulted (fail-fast abort, or any \
          failure under --keep-going).")
    Term.(
      const batch_cmd $ lattice_arg $ policies_arg $ jobs_arg $ stats_arg
      $ deadline_arg $ max_steps_arg $ retries_arg $ backoff_arg
      $ keep_going_arg $ failures_json_arg $ obs_term)

let serve_t =
  let max_sessions_arg =
    Arg.(
      value & opt int 8
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:
            "Cap on concurrently held sessions; opening one beyond the cap \
             evicts the least recently used.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-resolve wall-clock budget; a request's \
             $(i,deadline_ms) field overrides it.")
  in
  let max_steps_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Default per-resolve scheduling-step budget; a request's \
             $(i,max_steps) field overrides it.")
  in
  (* The loop reads NDJSON requests from stdin and answers one versioned
     Wire envelope per line on stdout (see Minup_session.Serve for the
     protocol); budgets given here are connection-wide defaults. *)
  let serve_cmd max_sessions deadline_ms max_steps obs =
    let conn =
      Minup_session.Serve.create ~max_sessions ?deadline_ms ?max_steps ()
    in
    with_obs obs (fun () -> Minup_session.Serve.run conn stdin stdout)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Hold solving sessions over stdio: one JSON request per line in, \
          one JSON response envelope per line out.  Sessions re-solve \
          incrementally as constraints and bounds change.")
    Term.(
      const serve_cmd $ max_sessions_arg $ deadline_arg $ max_steps_arg
      $ obs_term)

let check_t =
  let assignment_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "a"; "assignment" ] ~docv:"FILE"
          ~doc:"Assignment file to audit ('attr = LEVEL' lines).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Audit an existing assignment: constraint satisfaction and \
          pointwise minimality.")
    Term.(const check_cmd $ lattice_arg $ policy_arg $ assignment_arg)

let stats_t =
  Cmd.v
    (Cmd.info "stats" ~doc:"Print structural statistics of a constraint set.")
    Term.(const stats_cmd $ lattice_arg $ policy_arg)

let dot_t =
  let policy_opt =
    Arg.(
      value
      & opt (some file) None
      & info [ "c"; "constraints" ] ~docv:"FILE"
          ~doc:"Render this constraint file's graph instead of the lattice.")
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Export a lattice (or, with -c, a constraint graph) as Graphviz DOT.")
    Term.(const dot_cmd $ lattice_arg $ policy_opt)

let selfcheck_t =
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Base seed; case $(i,i) derives from (seed, i).")
  in
  let cases_arg =
    Arg.(
      value & opt int 200
      & info [ "cases" ] ~docv:"K" ~doc:"Number of random cases to run.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains (default and maximum: the runtime's \
             recommended domain count).  The summary is identical for \
             every value.")
  in
  let repro_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:
            "Write each reported failure, after shrinking, as a replayable \
             caseN.lat/caseN.cst pair under $(docv).")
  in
  let inject_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("overclassify", Minup_diffcheck.Battery.Overclassify);
                  ("underclassify", Minup_diffcheck.Battery.Underclassify);
                ]))
          None
      & info [ "inject-bug" ] ~docv:"KIND"
          ~doc:
            "Corrupt every solution on purpose (overclassify or \
             underclassify) to prove the harness and its shrinker catch \
             real bugs.")
  in
  let inject_fault_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("raise", Minup_faultsim.Raise);
                  ("stall", Minup_faultsim.Stall 60_000);
                  ("blowout", Minup_faultsim.Blowout);
                ]))
          None
      & info [ "inject-fault" ] ~docv:"KIND"
          ~doc:
            "Plant a runtime fault (raise, stall or blowout) into every \
             case's supervised batch to prove the harness isolates and \
             shrinks engine-level failures, not just wrong levels.")
  in
  Cmd.v
    (Cmd.info "selfcheck"
       ~doc:
         "Differential self-check: random lattices and constraint sets \
          through the solver, exhaustive oracles, baseline algorithms, the \
          batch engine and the text/JSON round-trips; failures are shrunk \
          to minimal reproducers.")
    Term.(
      const selfcheck_cmd $ seed_arg $ cases_arg $ jobs_arg $ repro_arg
      $ inject_arg $ inject_fault_arg)

let demo_t =
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the paper's Figure 2 example.")
    Term.(const demo_cmd $ const ())

let main =
  Cmd.group
    (Cmd.info "mlsclassify" ~version:"1.0.0"
       ~doc:
         "Minimal data upgrading to prevent inference and association attacks \
          (Dawson, De Capitani di Vimercati, Lincoln, Samarati — PODS 1999).")
    [ solve_t; batch_t; serve_t; check_t; stats_t; dot_t; selfcheck_t; demo_t ]

let () =
  (* SIGINT raises [Sys.Break] instead of killing the process outright, so
     [with_obs] can unwind open trace spans and flush the --trace /
     --metrics sinks before exiting 130 — an interrupted run keeps its
     partial observability data. *)
  Sys.catch_break true;
  exit (Cmd.eval main)
