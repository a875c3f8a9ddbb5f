(* The benchmark's entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it sets the workload up three or more times, for at
   least two seconds (setup_s is the median), runs its closed loop for S seconds, checks every output and
   prints the end-to-end metrics.  With --trace 1 it runs a fixed number
   of the workload's requests untraced and then traced, and prints the
   per-layer metrics.  Human-readable lines come first; the last line of
   standard output is one JSON object:
   {"correct": …, "attempted": …, "failed": …, "metrics": {…}}.
   Exits 1 if any output failed its check. *)

open Common
module Json = Minup_obs.Json

(* Per-layer metrics and their units; every traced run reports all of
   them, 0 where the workload does not reach the layer. *)
let per_layer =
  List.map (fun (m, _) -> (m, "ms")) Spans.per_call
  @ [
      ("parse.minor_words_per_cst", "words/cst");
      ("problem.minor_words_per_cst", "words/cst");
      ("priorities.minor_words_per_attr", "words/attr");
      ("solver.lub", "count");
      ("solver.glb", "count");
      ("solver.leq", "count");
      ("solver.minlevel_calls", "count");
      ("solver.try_calls", "count");
      ("solver.try_iterations", "count");
      ("solver.constraint_checks", "count");
      ("solver.try_success_ratio", "ratio");
      ("solver.bounded_ms", "ms");
      ("engine.efficiency", "ratio");
      ("engine.queue_wait_p50_us", "us");
      ("session.create_ms", "ms");
      ("session.delta_us", "us");
      ("session.resolve_ms.cached", "ms");
      ("session.resolve_ms.patch", "ms");
      ("session.resolve_ms.general", "ms");
      ("session.resolve_ms.full", "ms");
      ("session.resolves.cached", "count");
      ("session.resolves.patch", "count");
      ("session.resolves.general", "count");
      ("session.resolves.full", "count");
      ("session.frozen_ratio", "ratio");
      ("json.parse_ms", "ms");
      ("parse.scaling_exp", "exponent");
      ("problem.scaling_exp", "exponent");
      ("priorities.scaling_exp", "exponent");
      ("solver.scaling_exp", "exponent");
      ("session.create_scaling_exp", "exponent");
      ("trace.overhead_pct", "%");
      ("trace.unattributed_pct", "%");
      ("solver.try_lower_self_pct", "%");
    ]
  @ List.map (fun l -> (l ^ ".self_pct", "%")) Spans.layers

module type WORKLOAD = sig
  type state

  val name : string
  val setup : seed:int -> state
  val timed : state -> seconds:int -> timed
  val traced : state -> (string * float) list
end

let workloads : (module WORKLOAD) list =
  [ (module Classify); (module Batch); (module Serve_edit) ]

let workload_name (module W : WORKLOAD) = W.name

let result ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, value, unit) ->
                  (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ]))
                metrics) );
       ])

let print_metric (name, value, unit) = Printf.printf "%-34s %14.6g %s\n" name value unit


let end_to_end (module W : WORKLOAD) ~seed ~seconds =
  let setup_ns, st =
    time_median_calibrated ~min_reps:3 ~max_reps:15 ~min_ns:2e9 (fun () -> W.setup ~seed)
  in
  let t = W.timed st ~seconds in
  let n = Array.length t.latencies_ns in
  let p90 = quantile 0.9 t.latencies_ns in
  let metrics =
    [
      ("setup_s", setup_ns /. 1e9, "s");
      ("latency_p50_ms", ms_of_ns (median t.latencies_ns), "ms");
      ("latency_p90_ms", ms_of_ns p90, "ms");
      ("throughput_per_s", float_of_int n /. (t.busy_ns /. 1e9), "requests/s");
      ("open_p50_ms", ms_of_ns (median t.opens_ns), "ms");
    ]
  in
  List.iter print_metric metrics;
  (* Printed, not reported: the p50 and p90 as measured, and the median
     calibration factor (below 1 when the machine ran slower than the
     reference).  With the engine's two domains the top heap depends on
     GC timing and reads 15 or 21 MB on runs of one seed. *)
  print_metric ("latency_p50_raw_ms", ms_of_ns (median t.raw_latencies_ns), "ms");
  print_metric ("latency_p90_raw_ms", ms_of_ns (quantile 0.9 t.raw_latencies_ns), "ms");
  print_metric ("host_speed", t.speed, "x reference");
  print_metric ("peak_heap_mb", t.heap_mb, "MB");
  let beyond = Array.fold_left (fun k x -> if x > p90 then k + 1 else k) 0 t.latencies_ns in
  Printf.printf "%-34s %14d requests (%d beyond p90)\n" "latency_samples" n beyond;
  print_metric
    ("failed_share", float_of_int t.failed /. float_of_int (max 1 t.attempted), "ratio");
  (t.failed = 0 && n > 0, max 1 t.attempted, t.failed, metrics)

let per_layer_run (module W : WORKLOAD) ~seed =
  let measured = W.traced (W.setup ~seed) in
  let metrics =
    List.map
      (fun (name, unit) ->
        (name, Option.value ~default:0. (List.assoc_opt name measured), unit))
      per_layer
  in
  List.iter print_metric metrics;
  (true, 1, 0, metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> workload_name w = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
          (String.concat ", " (List.map workload_name workloads));
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let correct, attempted, failed, metrics =
    match
      if !trace = 1 then per_layer_run w ~seed:!seed
      else end_to_end w ~seed:!seed ~seconds:!seconds
    with
    | r -> r
    | exception Mismatch m ->
        prerr_endline m;
        (false, 1, 1, [])
  in
  print_endline (result ~correct ~attempted ~failed metrics);
  if not correct then exit 1
