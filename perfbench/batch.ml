(* batch-cyclic: one request is the `mlsclassify batch` path, in process —
   parse the lattice, parse and compile each policy in sequence, then
   solve them all with the parallel engine at one job per core.  Every
   policy is a single constraint cycle (the paper's quadratic case), so
   forward lowering dominates.  The pool holds eight policies with sizes
   spread evenly over 200–800 attributes; each request submits all eight
   in an order drawn from the seed, so the skewed task costs land in
   different places and the engine's work claiming matters.  The
   policies themselves do not depend on the seed: the cost of a cycle
   grows with the square of its size and depends on where its floor
   sits, and drawn sizes and floors moved the p50 by 12% from one seed
   to the next. *)

open Common
module Explicit = Minup_lattice.Explicit
module Lattice_file = Minup_lattice.Lattice_file
module Parse = Minup_constraints.Parse
module Problem = Minup_constraints.Problem
module Engine = Minup_core.Engine.Make (Explicit)
module Solver = Minup_core.Solver.Make (Explicit)
module Explain = Minup_core.Explain.Make (Explicit)
module Instr = Minup_core.Instr
module Metrics = Minup_obs.Metrics
module Prng = Minup_workload.Prng

let name = "batch-cyclic"
let pool_size = 8
let traced_requests = 6

(* One job per core, never more. *)
let jobs = Minup_core.Engine.default_jobs ()

type state = { l : Inputs.lattice; pool : Inputs.policy array; seed : int }

(* The pool order of request [i]. *)
let order st i =
  let o = Array.init pool_size Fun.id in
  Prng.shuffle (Prng.create ((st.seed * 7_919) + i)) o;
  o

type reply = {
  report : Engine.report;
  problems : Solver.problem array;
  open_ns : float;  (** lattice + policy parses *)
  batch_ns : float;  (** the engine call *)
}

let request ~rid st order =
  span ~rid "request" @@ fun () ->
  let t0 = now_ns () in
  let lat =
    ok_or_mismatch "lattice" Lattice_file.pp_error
      (span ~rid "lattice_file.parse" (fun () -> Lattice_file.parse st.l.Inputs.lat_text))
  in
  let open_ns = ref (elapsed_ns t0) in
  let problems =
    Array.map
      (fun k ->
        let t1 = now_ns () in
        let pol =
          span ~rid "parse.policy" (fun () ->
              Probes.parse_policy lat st.pool.(k).Inputs.text)
        in
        open_ns := !open_ns +. elapsed_ns t1;
        ok_or_mismatch "compile" Problem.pp_error
          (span ~rid "solver.compile" (fun () ->
               Solver.compile ~lattice:lat ~attrs:pol.Parse.attrs pol.Parse.csts)))
      order
  in
  let t2 = now_ns () in
  let report =
    span ~rid "engine.solve_batch" (fun () -> Engine.solve_batch ~jobs problems)
  in
  { report; problems; open_ns = !open_ns; batch_ns = elapsed_ns t2 }

let levels_digest (sol : Solver.solution) =
  Digest.string (Marshal.to_string sol.Solver.levels [])

let setup ~seed =
  let l = Inputs.chain () in
  let pool = Array.init pool_size (fun i -> Inputs.single_scc l (200 + (600 * i / (pool_size - 1)))) in
  let st = { l; pool; seed } in
  ignore (request ~rid:(-1) st (order st (-1)));
  st

(* Reference levels of each pool policy: a sequential solve checked to be
   satisfying and pointwise minimal. *)
let verified st =
  let r = request ~rid:(-1) st (Array.init pool_size Fun.id) in
  Array.map
    (fun problem ->
      let sol = Solver.solve problem in
      let levels = sol.Solver.levels in
      if not (Solver.satisfies problem levels) then
        mismatch "%s: a solution violates a constraint" name;
      if not (Explain.is_locally_minimal problem levels) then
        mismatch "%s: a solution is not minimal" name;
      levels_digest sol)
    r.problems

let timed st ~seconds =
  let lat = ref [] and opens = ref [] in
  let replies = ref [] and failed = ref 0 and attempted = ref 0 in
  let loop =
    closed_loop ~seconds (fun i ->
        let o = order st i in
        attempted := !attempted + pool_size;
        let t0 = now_ns () in
        match request ~rid:i st o with
        | r ->
            lat := (i, elapsed_ns t0) :: !lat;
            opens := (i, r.open_ns) :: !opens;
            Array.iteri
              (fun j outcome ->
                match outcome with
                | Ok sol -> replies := (i, o.(j), levels_digest sol) :: !replies
                | Error f ->
                    prerr_endline
                      (Format.asprintf "%s: request %d task %d: %a" name i j
                         Minup_core.Fault.pp f);
                    incr failed)
              r.report.Engine.solutions;
            true
        | exception Mismatch m ->
            prerr_endline m;
            failed := !failed + pool_size;
            false)
  in
  let expect = verified st in
  List.iter
    (fun (i, k, d) ->
      if d <> expect.(k) then begin
        Printf.eprintf "%s: request %d: policy %d differs from the verified solution\n"
          name i k;
        incr failed
      end)
    !replies;
  timed_of loop ~lat:!lat ~opens:!opens ~attempted:!attempted ~failed:!failed

let traced st =
  let run () =
    Array.init traced_requests (fun i ->
        let t0 = now_ns () in
        let r = request ~rid:i st (order st i) in
        (elapsed_ns t0, r))
  in
  let untraced = run () in
  let traced, a = Spans.traced ~workload:name run in
  let queue_wait_us =
    Metrics.percentile (Metrics.histogram "engine/queue_wait_ns") 0.5 /. 1e3
  in
  Metrics.disable ();
  let p50 xs = median (Array.map fst xs) in
  (* Parallel efficiency: sequential solve time over jobs × batch wall
     time, both untraced.  The sequential solves also count [Try]
     outcomes through the event stream. *)
  let tries = Probes.tries () in
  let seq_ns =
    Array.map
      (fun (_, r) ->
        sum
          (Array.map
             (fun p ->
               let t0 = now_ns () in
               ignore (Solver.solve ~config:(Probes.try_config tries) p);
               elapsed_ns t0)
             r.problems))
      untraced
  in
  let batch_ns = median (Array.map (fun (_, r) -> r.batch_ns) untraced) in
  let stats = Instr.sum (Array.map (fun (_, r) -> r.report.Engine.stats) traced) in
  Spans.common_metrics a ~untraced_p50:(p50 untraced) ~traced_p50:(p50 traced)
  @ Probes.instr_metrics stats
  @ Probes.minor_words_metrics st.l.Inputs.lat st.pool.(pool_size - 1).Inputs.text
  @ [
      ("solver.try_success_ratio", Probes.try_success_ratio tries);
      ("engine.efficiency", median seq_ns /. (float_of_int jobs *. batch_ns));
      ("engine.queue_wait_p50_us", queue_wait_us);
    ]
