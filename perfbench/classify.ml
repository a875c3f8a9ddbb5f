(* classify-acyclic: one request is the `mlsclassify solve` path, in
   process — lattice file parse, policy parse, compile (intern + index +
   priorities), Algorithm 3.1, and the Wire solution envelope rendered
   to JSON.  Inputs are acyclic policies of 8 000 attributes, the paper's
   linear case; requests cycle through a seeded pool of them. *)

open Common
module Explicit = Minup_lattice.Explicit
module Lattice_file = Minup_lattice.Lattice_file
module Parse = Minup_constraints.Parse
module Problem = Minup_constraints.Problem
module Solver = Minup_core.Solver.Make (Explicit)
module Explain = Minup_core.Explain.Make (Explicit)
module Instr = Minup_core.Instr
module Wire = Minup_core.Wire
module Json = Minup_obs.Json
module Metrics = Minup_obs.Metrics
module Prng = Minup_workload.Prng

let name = "classify-acyclic"
let n_attrs = 8_000
let pool_size = 4
let traced_requests = 6

type state = { l : Inputs.lattice; pool : Inputs.policy array; seed : int }

type reply = {
  line : string;
  sol : Solver.solution;
  problem : Solver.problem;
  open_ns : float;  (** lattice + policy parse *)
}

let render_solution lat (sol : Solver.solution) =
  Json.to_string
    (Wire.to_json
       (Wire.v1 ~problem:"policy"
          (Wire.Solution
             {
               assignment =
                 List.map
                   (fun (a, l) -> (a, Explicit.level_to_string lat l))
                   sol.Solver.assignment;
               stats = None;
             })))

let request ~rid lat_text cst_text =
  span ~rid "request" @@ fun () ->
  let t0 = now_ns () in
  let lat =
    ok_or_mismatch "lattice" Lattice_file.pp_error
      (span ~rid "lattice_file.parse" (fun () -> Lattice_file.parse lat_text))
  in
  let pol = span ~rid "parse.policy" (fun () -> Probes.parse_policy lat cst_text) in
  let open_ns = elapsed_ns t0 in
  let problem =
    ok_or_mismatch "compile" Problem.pp_error
      (span ~rid "solver.compile" (fun () ->
           Solver.compile ~lattice:lat ~attrs:pol.Parse.attrs pol.Parse.csts))
  in
  let sol = span ~rid "solver.solve" (fun () -> Solver.solve problem) in
  let line = span ~rid "wire.render" (fun () -> render_solution lat sol) in
  { line; sol; problem; open_ns }

let input st i = st.pool.(i mod Array.length st.pool).Inputs.text

let setup ~seed =
  let rng = Prng.create seed in
  let l = Inputs.grid () in
  let pool = Array.init pool_size (fun _ -> Inputs.acyclic l (Prng.split rng) n_attrs) in
  let st = { l; pool; seed } in
  ignore (request ~rid:(-1) l.lat_text (input st 0));
  st

(* The reference reply of each pool entry, from a solution checked to be
   satisfying and pointwise minimal. *)
let verified st =
  Array.mapi
    (fun k _ ->
      let r = request ~rid:(-1) st.l.Inputs.lat_text (input st k) in
      let levels = r.sol.Solver.levels in
      if not (Solver.satisfies r.problem levels) then
        mismatch "%s: pool policy %d: solution violates a constraint" name k;
      if not (Explain.is_locally_minimal r.problem levels) then
        mismatch "%s: pool policy %d: solution is not minimal" name k;
      Digest.string r.line)
    st.pool

let timed st ~seconds =
  let lat = ref [] and opens = ref [] in
  let replies = ref [] and failed = ref 0 in
  let loop =
    closed_loop ~round:pool_size ~seconds (fun i ->
        let t0 = now_ns () in
        match request ~rid:i st.l.lat_text (input st i) with
        | r ->
            lat := (i, elapsed_ns t0) :: !lat;
            opens := (i, r.open_ns) :: !opens;
            replies := (i, Digest.string r.line) :: !replies;
            true
        | exception Mismatch m ->
            prerr_endline m;
            incr failed;
            false)
  in
  let expect = verified st in
  List.iter
    (fun (i, d) ->
      if d <> expect.(i mod pool_size) then begin
        Printf.eprintf "%s: request %d: reply differs from the verified solution\n" name i;
        incr failed
      end)
    !replies;
  timed_of loop ~lat:!lat ~opens:!opens ~attempted:loop.steps ~failed:!failed

let traced st =
  let run () =
    Array.init traced_requests (fun i ->
        let t0 = now_ns () in
        let r = request ~rid:i st.l.lat_text (input st i) in
        (elapsed_ns t0, r.sol.Solver.stats))
  in
  let untraced = run () in
  let traced, a = Spans.traced ~workload:name run in
  Metrics.disable ();
  let p50 xs = median (Array.map fst xs) in
  let tries = Probes.tries () in
  for i = 0 to traced_requests - 1 do
    let r = request ~rid:(-1) st.l.lat_text (input st i) in
    ignore (Solver.solve ~config:(Probes.try_config tries) r.problem)
  done;
  (* Scaling between 8k and 32k attributes, inputs of the same shape. *)
  let large = Inputs.acyclic st.l (Prng.create (st.seed + 1)) (4 * n_attrs) in
  let times_small = Probes.layer_times ~reps:3 st.l.lat (input st 0) in
  let times_large = Probes.layer_times ~reps:3 st.l.lat large.Inputs.text in
  Spans.common_metrics a ~untraced_p50:(p50 untraced) ~traced_p50:(p50 traced)
  @ Probes.instr_metrics (Instr.sum (Array.map snd traced))
  @ Probes.minor_words_metrics st.l.lat (input st 0)
  @ [ ("solver.try_success_ratio", Probes.try_success_ratio tries) ]
  @ List.map2
      (fun (layer, small) (_, large) ->
        (layer ^ ".scaling_exp", Probes.scaling_exp ~small ~large ~size_ratio:4.))
      times_small times_large
