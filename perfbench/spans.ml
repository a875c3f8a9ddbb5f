(* Traced runs: collect the program's spans and the benchmark's own, then
   reduce them to per-layer self times and per-span durations.

   A span's self time is its duration minus the time its direct children
   cover.  Spans map to layers by name: the benchmark's spans (category
   "bench") are named "<layer>.<function>", and the program's spans by
   their category ("solver", "engine", "session", "serve") or, for the
   constraints library, by their name prefix ("problem.compile",
   "priorities.compute").  The benchmark's root span per request is
   "request"; its self time is the part of a request no layer covers. *)

module Trace = Minup_obs.Trace
module Metrics = Minup_obs.Metrics

let prefix name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let layer_of (e : Trace.event) =
  match e.cat with
  | "bench" | "constraints" -> prefix e.name
  | "solver" when e.name = "try_lower" -> "solver.try_lower"
  | cat -> cat

type analysis = {
  durations : (string, float list) Hashtbl.t;  (** ns, by span name *)
  self_ns : (string, float) Hashtbl.t;  (** by layer *)
  root_ns : float;  (** all root spans, every track *)
  request_ns : float;
  request_self_ns : float;
}

type frame = { name : string; layer : string; start : int64; mutable child : float }

let analyse events =
  let durations = Hashtbl.create 64 and self_ns = Hashtbl.create 16 in
  let stacks = Hashtbl.create 8 in
  let root = ref 0. and req = ref 0. and req_self = ref 0. in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun (e : Trace.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.tid) in
      match (e.ph, stack) with
      | 'B', _ ->
          Hashtbl.replace stacks e.tid
            ({ name = e.name; layer = layer_of e; start = e.ts_ns; child = 0. } :: stack)
      | 'E', f :: rest ->
          Hashtbl.replace stacks e.tid rest;
          let dur = Int64.to_float (Int64.sub e.ts_ns f.start) in
          let self = dur -. f.child in
          add self_ns f.layer self;
          (* try_lower is forward lowering inside the solver layer. *)
          if f.layer = "solver.try_lower" then add self_ns "solver" self;
          Hashtbl.replace durations f.name
            (dur :: Option.value ~default:[] (Hashtbl.find_opt durations f.name));
          (match rest with
          | parent :: _ -> parent.child <- parent.child +. dur
          | [] -> root := !root +. dur);
          if f.name = "request" then begin
            req := !req +. dur;
            req_self := !req_self +. self
          end
      | _ -> ())
    events;
  { durations; self_ns; root_ns = !root; request_ns = !req; request_self_ns = !req_self }

(* p50 duration of the spans named [name], in ms (0 if none ran). *)
let p50_ms a name =
  match Hashtbl.find_opt a.durations name with
  | None -> 0.
  | Some ds -> Common.median (Array.of_list ds) /. 1e6

(* A layer's self time as a share of all span time, in percent. *)
let self_pct a layer =
  match Hashtbl.find_opt a.self_ns layer with
  | Some s when a.root_ns > 0. -> 100. *. s /. a.root_ns
  | _ -> 0.

let unattributed_pct a =
  if a.request_ns > 0. then 100. *. a.request_self_ns /. a.request_ns else 0.

let layers =
  [
    "lattice_file"; "parse"; "problem"; "priorities"; "solver"; "engine";
    "session"; "serve"; "wire";
  ]

let out_dir = Filename.concat "perfbench" "out"

(* [traced ~workload f] runs [f] with the Trace and Metrics registries on,
   writes the Chrome trace to perfbench/out/, checks it with the repo's
   validator, and returns [f]'s result with the analysis.  Metrics stay
   enabled so the caller can read the registry; it disables them. *)
let traced ~workload f =
  Metrics.enable ();
  Metrics.reset ();
  Trace.start ();
  let r = Fun.protect ~finally:Trace.stop f in
  let a = analyse (Trace.events ()) in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let file = Filename.concat out_dir ("trace-" ^ workload ^ ".json") in
  Trace.write file;
  (* Drop the collected events before the probes that follow. *)
  Trace.start ();
  Trace.stop ();
  let validator =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat Filename.parent_dir_name
         (Filename.concat "dev" "validate_trace.exe"))
  in
  let rc = Sys.command (Filename.quote_command validator [ file ] ^ " 1>&2") in
  if rc <> 0 then Common.mismatch "trace %s fails validate_trace (exit %d)" file rc;
  (r, a)

(* Per-call p50 of the layer entry points, by metric name and span name. *)
let per_call =
  [
    ("lattice_file.parse_ms", "lattice_file.parse");
    ("parse.policy_ms", "parse.policy");
    ("problem.compile_ms", "problem.compile");
    ("priorities.compute_ms", "priorities.compute");
    ("solver.solve_ms", "solve");
    ("engine.batch_ms", "engine.solve_batch");
    ("serve.open_ms", "serve.open");
    ("serve.add_constraint_ms", "serve.add_constraint");
    ("serve.remove_constraint_ms", "serve.remove_constraint");
    ("serve.set_lower_bound_ms", "serve.set_lower_bound");
    ("serve.add_attribute_ms", "serve.add_attribute");
    ("serve.resolve_ms", "serve.resolve");
    ("serve.close_ms", "serve.close");
    ("wire.render_ms", "wire.render");
  ]

(* The metrics every traced run reports from its analysis. *)
let common_metrics a ~untraced_p50 ~traced_p50 =
  List.map (fun (metric, span) -> (metric, p50_ms a span)) per_call
  @ [
    ( "trace.overhead_pct",
      if untraced_p50 > 0. then 100. *. ((traced_p50 /. untraced_p50) -. 1.) else 0. );
    ("trace.unattributed_pct", unattributed_pct a);
    ("solver.try_lower_self_pct", self_pct a "solver.try_lower");
  ]
  @ List.map (fun l -> (l ^ ".self_pct", self_pct a l)) layers
