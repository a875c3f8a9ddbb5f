(* Observability layer: Json render/parse, Metrics bucketing and
   percentiles, Trace span collection/export, and the Instr bridge.

   Trace and Metrics are process-global; every test that enables them
   disables and clears them before returning so the suites stay
   order-independent. *)

open Minup_lattice
module Json = Minup_obs.Json
module Metrics = Minup_obs.Metrics
module Trace = Minup_obs.Trace
module Instr = Minup_core.Instr
module Paper = Minup_core.Paper
module SE = Minup_core.Solver.Make (Explicit)
module Engine = Minup_core.Engine.Make (Explicit)
module ET = Minup_core.Engine.Make (Total)
module ST = ET.Solver

let check = Alcotest.check
let checki = check Alcotest.int
let checks = check Alcotest.string
let checkb = check Alcotest.bool

(* --- Json ----------------------------------------------------------- *)

let roundtrip j =
  match Json.parse (Json.to_string j) with
  | Ok j' -> j'
  | Error m -> Alcotest.failf "reparse failed: %s" m

let test_json_render () =
  checks "integral without point" "42" (Json.to_string (Json.Num 42.));
  checks "negative integral" "-7" (Json.to_string (Json.Num (-7.)));
  checks "fraction" "0.5" (Json.to_string (Json.Num 0.5));
  checks "non-finite is null" "null" (Json.to_string (Json.Num Float.nan));
  checks "escapes"
    {|"a\"b\\c\nd"|}
    (Json.to_string (Json.Str "a\"b\\c\nd"));
  checks "compact object" {|{"a":1,"b":[true,null]}|}
    (Json.to_string (Json.Obj [ ("a", Num 1.); ("b", Arr [ Bool true; Null ]) ]));
  checks "pretty object" "{\n  \"a\": 1\n}"
    (Json.to_string ~pretty:true (Json.Obj [ ("a", Num 1.) ]))

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("s", Str "héllo \"quoted\" \t tab");
        ("n", Num 3.25);
        ("i", Num 1234567.);
        ("l", Arr [ Null; Bool false; Obj []; Arr [] ]);
      ]
  in
  checkb "roundtrip equal" true (roundtrip j = j);
  (match Json.parse {|{"u": "é😀"}|} with
  | Ok j -> (
      match Json.member "u" j with
      | Some (Json.Str s) -> checks "utf8 escapes" "\xc3\xa9\xf0\x9f\x98\x80" s
      | _ -> Alcotest.fail "missing \"u\"")
  | Error m -> Alcotest.failf "unicode parse failed: %s" m)

let test_json_errors () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "parse accepted %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "\"unterminated";
  bad "\"bad \\q escape\"";
  bad "nul";
  bad "1 2";
  bad "{\"a\":1} trailing"

let reject_json s =
  match Json.parse s with
  | Ok _ -> Alcotest.failf "parse accepted %S" s
  | Error _ -> ()

(* Regression: a raw control byte inside a string is not JSON (it must
   be escaped); raw UTF-8 and DEL are. *)
let test_json_control_bytes () =
  reject_json "\"a\tb\"";
  reject_json "\"a\nb\"";
  reject_json "{\"k\x01\": 1}";
  reject_json "\"esc\\n then raw\x1f\"";
  match Json.parse "\"caf\xc3\xa9 \x7f ok\"" with
  | Ok (Json.Str s) -> checks "raw UTF-8 and DEL" "caf\xc3\xa9 \x7f ok" s
  | _ -> Alcotest.fail "raw UTF-8 rejected"

(* Regression: a [\u] escape takes exactly four hex digits, with no
   underscore or sign ([int_of_string] takes both). *)
let test_json_hex4 () =
  reject_json {|"\u1_23"|};
  reject_json {|"\u+123"|};
  reject_json {|"\u-123"|};
  reject_json {|"\u12g4"|};
  match Json.parse {|"\u00e9\u00C9 \t\u0009 \u007f"|} with
  | Ok (Json.Str s) -> checks "hex escapes" "\xc3\xa9\xc3\x89 \t\t \x7f" s
  | _ -> Alcotest.fail "valid \\u escapes rejected"

(* The per-byte escaper the run-copying one replaced. *)
let reference_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Strings drawn from the bytes that matter to an escaper: quote,
   backslash, every control byte, DEL, plain ASCII and multi-byte UTF-8. *)
let escapable_string =
  let open QCheck.Gen in
  let piece =
    oneof
      [
        map (String.make 1) (oneofl [ '"'; '\\'; '\x7f' ]);
        map (fun c -> String.make 1 (Char.chr c)) (0 -- 0x1f);
        map (String.make 1) (char_range 'a' 'z');
        oneofl [ "\xc3\xa9"; "\xe2\x8a\x92"; "\xf0\x9f\x98\x80"; "plain run" ];
      ]
  in
  QCheck.make ~print:(Printf.sprintf "%S")
    (map (String.concat "") (list_size (0 -- 40) piece))

let test_json_escaper =
  Helpers.qcheck
    (QCheck.Test.make ~count:500 ~name:"json escaper = per-byte reference"
       escapable_string (fun s ->
         let buf = Buffer.create 16 in
         Json.add_escaped buf s;
         Buffer.contents buf = reference_escape s
         && Json.to_string (Json.Str s) = "\"" ^ reference_escape s ^ "\""
         && Json.to_string (Json.Obj [ (s, Json.Null) ])
            = "{\"" ^ reference_escape s ^ "\":null}"
         && Json.parse (Json.to_string (Json.Str s)) = Ok (Json.Str s)))

(* A [Raw] is copied as it is in compact output, re-read and indented in
   pretty output. *)
let test_json_raw () =
  let tree = Json.Obj [ ("a", Json.Arr [ Json.Num 1.; Json.Str "x\"y" ]) ] in
  let raw = Json.Raw (Json.to_string tree) in
  checks "compact top level" (Json.to_string tree) (Json.to_string raw);
  checks "compact nested"
    (Json.to_string (Json.Arr [ tree; Json.Null ]))
    (Json.to_string (Json.Arr [ raw; Json.Null ]));
  checks "pretty" (Json.to_string ~pretty:true (Json.Arr [ tree ]))
    (Json.to_string ~pretty:true (Json.Arr [ raw ]));
  checkb "member sees no fields" true (Json.member "a" raw = None)

(* Regression: surrogate halves are not code points — a lone high half, a
   lone low half, or a high half followed by a non-low escape must be
   rejected, never smuggled through as invalid UTF-8. *)
let test_json_surrogates () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "parse accepted %S" s
    | Error _ -> ()
  in
  bad {|"\ud800"|};
  bad {|"\udc00"|};
  bad {|"\ud800A"|};
  bad {|"\ud800\u0041"|};
  (match Json.parse {|"\ud83d\ude00"|} with
  | Ok (Json.Str s) -> checks "astral pair decodes" "\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error m -> Alcotest.failf "valid surrogate pair rejected: %s" m);
  (* Every string the renderer emits must reparse to valid UTF-8-bearing
     JSON, so a parse of our own render never hits the rejected forms. *)
  match Json.parse (Json.to_string (Json.Str "plain \xc3\xa9")) with
  | Ok (Json.Str s) -> checks "renderer roundtrip" "plain \xc3\xa9" s
  | _ -> Alcotest.fail "renderer output rejected"

(* Regression: the scanner enforces the JSON number grammar itself;
   [float_of_string_opt] accepts far more ("1.", "-.5", "01", "0x10"). *)
let test_json_number_grammar () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "parse accepted %S" s
    | Error _ -> ()
  in
  let ok s v =
    match Json.parse s with
    | Ok (Json.Num f) ->
        checkb (Printf.sprintf "%S parses to %g" s v) true (f = v)
    | _ -> Alcotest.failf "parse rejected valid number %S" s
  in
  bad "01";
  bad "-01";
  bad "1.";
  bad "-.5";
  bad ".5";
  bad "1.e5";
  bad "1e";
  bad "1e+";
  bad "-";
  bad "0x10";
  ok "0" 0.;
  ok "-0" (-0.);
  ok "0.5" 0.5;
  ok "-12.25e-2" (-0.1225);
  ok "1E+3" 1000.

(* --- Metrics -------------------------------------------------------- *)

let with_metrics f =
  Metrics.enable ();
  Metrics.clear ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Metrics.clear ())
    f

let test_bucket_index () =
  List.iter
    (fun (v, b) ->
      checki (Printf.sprintf "bucket_index %d" v) b (Metrics.bucket_index v))
    [
      (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4); (1023, 10);
      (1024, 11); (max_int, 62);
    ]

let test_histogram_percentiles () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram "test/h" in
  for v = 1 to 1000 do
    Metrics.observe h v
  done;
  checki "count" 1000 (Metrics.histogram_count h);
  let in_range name lo hi v =
    if v < lo || v > hi then
      Alcotest.failf "%s = %g not in [%g, %g]" name v lo hi
  in
  in_range "p50" 256. 512. (Metrics.percentile h 0.5);
  in_range "p90" 512. 1000. (Metrics.percentile h 0.9);
  in_range "p99" 512. 1000. (Metrics.percentile h 0.99);
  (* Percentiles are clamped to the observed extremes. *)
  in_range "p001" 1. 2. (Metrics.percentile h 0.001);
  checkb "p100 at max" true (Metrics.percentile h 1.0 = 1000.);
  let one = Metrics.histogram "test/one" in
  Metrics.observe one 777;
  checkb "single sample p50" true (Metrics.percentile one 0.5 = 777.);
  checkb "empty percentile" true
    (Metrics.percentile (Metrics.histogram "test/empty") 0.5 = 0.)

let test_metrics_registry () =
  with_metrics @@ fun () ->
  let c = Metrics.counter "test/c" in
  Metrics.incr c;
  Metrics.add c 9;
  checki "counter" 10 (Metrics.counter_value c);
  checkb "same handle" true (Metrics.counter "test/c" == c);
  let g = Metrics.gauge "test/g" in
  Metrics.set g 2.5;
  checkb "gauge" true (Metrics.gauge_value g = 2.5);
  (match Metrics.counter "test/g" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash accepted");
  (* Snapshot shape: three sorted sections with our metrics in them. *)
  let j = Metrics.to_json () in
  (match Json.member "counters" j with
  | Some (Json.Obj fields) ->
      checkb "counter in snapshot" true
        (List.assoc_opt "test/c" fields = Some (Json.Num 10.))
  | _ -> Alcotest.fail "no counters section");
  Metrics.reset ();
  checki "reset zeroes" 0 (Metrics.counter_value c);
  checkb "reset keeps registration" true (Metrics.counter "test/c" == c)

let test_metrics_concurrent () =
  with_metrics @@ fun () ->
  let c = Metrics.counter "test/conc" in
  let h = Metrics.histogram "test/conc_h" in
  let worker () =
    for i = 1 to 10_000 do
      Metrics.incr c;
      Metrics.observe h (i land 1023)
    done
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join domains;
  checki "4x10k increments" 40_000 (Metrics.counter_value c);
  checki "4x10k samples" 40_000 (Metrics.histogram_count h)

(* --- Trace ---------------------------------------------------------- *)

let with_trace f =
  Trace.start ();
  Fun.protect ~finally:Trace.stop f

let test_trace_disabled () =
  Trace.start ();
  Trace.stop ();
  Trace.begin_span "ghost";
  Trace.end_span "ghost";
  Trace.begin_span ~ts_ns:1L "ghost";
  Trace.end_span ~ts_ns:2L "ghost";
  checki "no events when disabled" 0 (Trace.event_count ());
  checkb "with_span is transparent" true (Trace.with_span "ghost" (fun () -> true));
  checki "still none" 0 (Trace.event_count ())

let test_trace_nesting () =
  with_trace (fun () ->
      Trace.with_span ~cat:"t" "outer" (fun () ->
          Trace.with_span ~args:[ ("k", Trace.Int 3) ] "mark" Fun.id;
          Trace.with_span ~cat:"t" "inner" Fun.id);
      Trace.begin_span ~ts_ns:5L "retro";
      Trace.end_span ~ts_ns:9L "retro");
  let phs =
    List.map (fun (e : Trace.event) -> (e.ph, e.name)) (Trace.events ())
  in
  (* The explicit 5ns..9ns timestamps sort before the wall-clock events of
     the live spans. *)
  checkb "event sequence" true
    (phs
    = [
        ('B', "retro"); ('E', "retro"); ('B', "outer"); ('B', "mark");
        ('E', "mark"); ('B', "inner"); ('E', "inner"); ('E', "outer");
      ]);
  (* start() drops previously collected events. *)
  with_trace (fun () -> Trace.with_span "fresh" Fun.id);
  checki "start clears" 2 (Trace.event_count ())

(* Walk exported traceEvents checking every B has a matching same-name E on
   the same tid, properly nested — the contract chrome://tracing needs. *)
let check_chrome_json j =
  let events =
    match Json.member "traceEvents" j with
    | Some (Json.Arr es) -> es
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let str k =
        match Json.member k e with Some (Json.Str s) -> s | _ -> "?"
      in
      let tid =
        match Json.member "tid" e with
        | Some (Json.Num v) -> int_of_float v
        | _ -> Alcotest.fail "event without tid"
      in
      match str "ph" with
      | "B" ->
          Hashtbl.replace stacks tid
            (str "name"
            :: Option.value (Hashtbl.find_opt stacks tid) ~default:[])
      | "E" -> (
          match Hashtbl.find_opt stacks tid with
          | Some (top :: rest) when top = str "name" ->
              Hashtbl.replace stacks tid rest
          | _ -> Alcotest.failf "unmatched E %S on tid %d" (str "name") tid)
      | _ -> ())
    events;
  Hashtbl.iter
    (fun tid -> function
      | [] -> ()
      | names ->
          Alcotest.failf "tid %d has unclosed spans: %s" tid
            (String.concat "," names))
    stacks;
  events

let test_trace_export () =
  with_trace (fun () ->
      Trace.with_span ~args:[ ("n", Trace.Int 1) ] "a" (fun () ->
          Trace.with_span "b" Fun.id;
          Trace.with_span "b" Fun.id));
  let j = roundtrip (Trace.to_json ()) in
  let events = check_chrome_json j in
  (* 6 span events + process_name + one thread_name for the only tid. *)
  checki "event count" 8 (List.length events);
  let spans =
    List.filter (fun e -> Json.member "ph" e = Some (Json.Str "B")) events
  in
  checki "B events" 3 (List.length spans)

(* --- instrumentation: observing must not change solver counters ------ *)

let fig2_problem () =
  SE.compile_exn ~lattice:Paper.fig1b ~attrs:Paper.fig2_attrs
    Paper.fig2_constraints

let test_observed_solve_identity () =
  let baseline = (SE.solve (fig2_problem ())).SE.stats in
  let traced =
    with_trace (fun () -> (SE.solve (fig2_problem ())).SE.stats)
  in
  let metered =
    with_metrics (fun () -> (SE.solve (fig2_problem ())).SE.stats)
  in
  checkb "traced solve counters identical" true
    (Instr.to_alist traced = Instr.to_alist baseline);
  checkb "metered solve counters identical" true
    (Instr.to_alist metered = Instr.to_alist baseline);
  checkb "tracing produced solver spans" true
    (List.exists
       (fun (e : Trace.event) -> e.ph = 'B' && e.name = "solve")
       (Trace.events ()))

let test_engine_trace () =
  let problems = Array.init 4 (fun _ -> fig2_problem ()) in
  let reference = Engine.ok_exn (Engine.solve_batch ~jobs:1 problems) in
  let report =
    with_trace (fun () -> Engine.solve_batch ~jobs:2 problems)
  in
  Array.iteri
    (fun i (s : SE.solution) ->
      checkb (Printf.sprintf "solution %d matches sequential" i) true
        (s.SE.levels = reference.(i).SE.levels))
    (Engine.ok_exn report);
  let events = check_chrome_json (roundtrip (Trace.to_json ())) in
  let count name ph =
    List.length
      (List.filter
         (fun e ->
           Json.member "name" e = Some (Json.Str name)
           && Json.member "ph" e = Some (Json.Str ph))
         events)
  in
  checki "worker spans" 2 (count "worker" "B");
  checki "solve_task spans" 4 (count "solve_task" "B");
  let tids =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : Trace.event) ->
           if e.name = "worker" && e.ph = 'B' then Some e.tid else None)
         (Trace.events ()))
  in
  checki "workers on distinct domains" 2 (List.length tids)

(* Spans mark phases and cyclic sets, never attributes; the registry is
   updated once per solve, with the solve's own counters. *)
let test_spans_per_phase () =
  let ladder (attrs, csts) =
    ST.compile_exn ~lattice:Helpers.ladder16 ~attrs csts
  in
  let solver_spans () =
    List.filter
      (fun (e : Trace.event) -> e.cat = "solver")
      (Trace.events ())
  in
  let begun () =
    List.filter_map
      (fun (e : Trace.event) -> if e.ph = 'B' then Some e.name else None)
      (solver_spans ())
  in
  let int_arg (e : Trace.event) k =
    match List.assoc_opt k e.args with
    | Some (Trace.Int v) -> v
    | _ -> Alcotest.failf "%s span has no %s argument" e.name k
  in
  let acyclic = ladder (fst (Lazy.force Helpers.acyclic_2k_8k)) in
  with_trace (fun () -> ignore (ST.solve acyclic));
  check Alcotest.(list string) "acyclic solver spans"
    [ "solve"; "schedule"; "bigloop" ] (begun ());
  let cycle = ladder (Helpers.complex_cycle_shape 7 200) in
  let s = with_trace (fun () -> ST.solve cycle) in
  check Alcotest.(list string) "single-cycle solver spans"
    [ "solve"; "schedule"; "bigloop"; "try_lower" ] (begun ());
  (match
     List.filter
       (fun (e : Trace.event) -> e.name = "try_lower")
       (solver_spans ())
   with
  | [ b; e ] ->
      checki "try_lower size" 200 (int_arg b "size");
      checki "try_lower tries" s.ST.stats.Instr.try_calls (int_arg e "tries");
      checki "try_lower iterations" s.ST.stats.Instr.try_iterations
        (int_arg e "iterations")
  | es -> Alcotest.failf "%d try_lower events, expected 2" (List.length es));
  (* A bare cycle is simple-only: one collapse span, and no Try. *)
  let bare = ladder (Helpers.cycle_shape 8 60) in
  let s = with_trace (fun () -> ST.solve bare) in
  check Alcotest.(list string) "simple-only cycle solver spans"
    [ "solve"; "schedule"; "bigloop"; "collapse" ] (begun ());
  checki "simple-only cycle try_calls" 0 s.ST.stats.Instr.try_calls;
  (match
     List.filter
       (fun (e : Trace.event) -> e.name = "collapse" && e.ph = 'B')
       (solver_spans ())
   with
  | [ b ] -> checki "collapse size" 60 (int_arg b "size")
  | es -> Alcotest.failf "%d collapse begin events, expected 1" (List.length es));
  let problems =
    [| acyclic; cycle; ladder (Helpers.acyclic_shape 3 300); bare |]
  in
  with_metrics @@ fun () ->
  let solutions = ET.ok_exn (ET.solve_batch ~jobs:2 problems) in
  let value name = Metrics.counter_value (Metrics.counter name) in
  List.iter
    (fun (k, v) -> checki ("instr/" ^ k) v (value ("instr/" ^ k)))
    (Instr.to_alist
       (Instr.sum (Array.map (fun (s : ST.solution) -> s.ST.stats) solutions)));
  checki "solver/solves" (Array.length problems) (value "solver/solves");
  checki "every attribute back-assigned or forward-lowered"
    (Array.fold_left
       (fun acc (s : ST.solution) -> acc + Array.length s.ST.levels)
       0 solutions)
    (value "solver/back_assigned" + value "solver/forward_lowered");
  checki "one try_iters_per_scc sample per cyclic set solved by Try" 1
    (Metrics.histogram_count (Metrics.histogram "solver/try_iters_per_scc"));
  checki "one collapsed set" 1 (value "solver/collapsed_sets")

(* An incremental solve that reuses a priority set's previous levels
   opens no span for it and counts it in no tally: no [try_iters_per_scc]
   sample, no collapsed set.  Here a simple-only 3-cycle and a 2-cycle on
   [Try] are reused and only the dirty attribute above them is solved
   again.  Its "solve" span ends with the attributes reused and the sets
   labeled again; a scratch solve's has neither argument. *)
let test_frozen_sets_uncounted () =
  let module Cst = Minup_constraints.Cst in
  let s n = Cst.Level n and attr x = Cst.Attr x in
  let p =
    ST.compile_exn ~lattice:Helpers.ladder16
      [
        Cst.simple "a" (attr "b"); Cst.simple "b" (attr "c");
        Cst.simple "c" (attr "a"); Cst.simple "a" (s 3);
        Cst.simple "d" (attr "e"); Cst.simple "e" (attr "d");
        Cst.make_exn ~lhs:[ "d"; "e" ] ~rhs:(s 1); Cst.simple "f" (attr "a");
      ]
  in
  let full = ST.solve p in
  let f = Option.get (Minup_constraints.Problem.attr_id p.ST.prob "f") in
  with_metrics @@ fun () ->
  let s = with_trace (fun () -> ST.solve_incremental ~workspace:(ST.workspace ()) ~prev:(p, full) ~dirty:[ f ] p) in
  check Alcotest.(array int) "levels" full.ST.levels s.ST.levels;
  check Alcotest.(list string) "solver spans" [ "solve"; "schedule"; "bigloop" ]
    (List.filter_map
       (fun (e : Trace.event) ->
         if e.cat = "solver" && e.ph = 'B' then Some e.name else None)
       (Trace.events ()));
  checki "no collapsed set" 0
    (Metrics.counter_value (Metrics.counter "solver/collapsed_sets"));
  checki "no try_iters_per_scc sample" 0
    (Metrics.histogram_count (Metrics.histogram "solver/try_iters_per_scc"));
  checki "every attribute but f reused" (Array.length full.ST.levels - 1) s.ST.reused;
  checki "solver/reused_attrs" s.ST.reused
    (Metrics.counter_value (Metrics.counter "solver/reused_attrs"));
  let solve_end () =
    List.find (fun (e : Trace.event) -> e.name = "solve" && e.ph = 'E') (Trace.events ())
  in
  check
    Alcotest.(list (pair string int))
    "solve span's reuse arguments"
    [ ("reused", 5); ("relabeled_sets", 1) ]
    (List.filter_map
       (fun (k, v) ->
         match (k, v) with
         | ("reused" | "relabeled_sets"), Trace.Int v -> Some (k, v)
         | _ -> None)
       (solve_end ()).args);
  ignore (with_trace (fun () -> ST.solve p));
  checkb "a scratch solve's span has no reuse arguments" false
    (List.exists (fun (k, _) -> k = "reused" || k = "relabeled_sets") (solve_end ()).args)

(* --- Instr bridge ---------------------------------------------------- *)

let sample_instr () =
  let t = Instr.create () in
  t.Instr.lub <- 1;
  t.Instr.glb <- 2;
  t.Instr.leq <- 3;
  t.Instr.minlevel_calls <- 4;
  t.Instr.try_calls <- 5;
  t.Instr.try_iterations <- 6;
  t.Instr.constraint_checks <- 7;
  t

let test_instr_pp_order () =
  (* Regression: pp prints the documented declaration order, in particular
     try_iters before checks. *)
  checks "pp order" "lub=1 glb=2 leq=3 minlevel=4 try=5 try_iters=6 checks=7"
    (Format.asprintf "%a" Instr.pp (sample_instr ()))

let test_instr_json_roundtrip () =
  let t = sample_instr () in
  (match Instr.of_json (roundtrip (Instr.to_json t)) with
  | Ok t' -> checkb "roundtrip" true (Instr.to_alist t' = Instr.to_alist t)
  | Error m -> Alcotest.failf "of_json failed: %s" m);
  (* Field order in the document must not matter. *)
  (match
     Instr.of_json
       (Json.Obj
          (List.rev_map
             (fun (k, v) -> (k, Json.Num (float_of_int v)))
             (Instr.to_alist t)))
   with
  | Ok t' -> checkb "reversed order" true (Instr.to_alist t' = Instr.to_alist t)
  | Error m -> Alcotest.failf "reversed order rejected: %s" m);
  let rejects j = match Instr.of_json j with Ok _ -> false | Error _ -> true in
  checkb "rejects non-object" true (rejects (Json.Num 3.));
  checkb "rejects missing field" true (rejects (Json.Obj [ ("lub", Json.Num 1.) ]));
  checkb "rejects non-integer" true
    (rejects
       (Json.Obj
          (List.map
             (fun (k, _) -> (k, Json.Num 0.5))
             (Instr.to_alist (Instr.create ())))))

let test_instr_to_metrics () =
  with_metrics @@ fun () ->
  Instr.to_metrics (sample_instr ());
  Instr.to_metrics (sample_instr ());
  checki "instr/lub summed" 2 (Metrics.counter_value (Metrics.counter "instr/lub"));
  checki "instr/constraint_checks summed" 14
    (Metrics.counter_value (Metrics.counter "instr/constraint_checks"))

(* Serve's metrics, through [Serve.respond]: one [serve/<op>_ns] sample
   per request of a known op (an unknown op or session registers
   nothing, and counts as an error), and per rendered solution reply its
   runs of 64 attributes, rendered again or reused.  On a 70-attribute
   policy (two runs): the first reply renders both, an unchanged one
   reuses both, a bound on A0 renders the first run again, and a new
   attribute the second.  With metering off nothing is recorded. *)
let test_serve_metrics () =
  let module Serve = Minup_session.Serve in
  let attrs = List.init 70 (Printf.sprintf "A%d") in
  let lines =
    List.map
      (fun fields -> Json.to_string (Json.Obj (("problem", Json.Str "p") :: fields)))
      [
        [
          ("op", Json.Str "open");
          ("lattice", Json.Str "levels lo, hi\nlo < hi\n");
          ("constraints", Json.Str ("attrs " ^ String.concat ", " attrs ^ "\nA1 >= hi\n"));
        ];
        [ ("op", Json.Str "resolve") ];
        [ ("op", Json.Str "resolve") ];
        [ ("op", Json.Str "set_lower_bound"); ("attr", Json.Str "A0"); ("level", Json.Str "hi") ];
        [ ("op", Json.Str "resolve") ];
        [ ("op", Json.Str "add_attribute"); ("attr", Json.Str "B") ];
        [ ("op", Json.Str "resolve") ];
        [ ("op", Json.Str "bogus") ];
        [ ("op", Json.Str "close") ];
      ]
    @ [ {|{"op":"resolve","problem":"nobody"}|} ]
  in
  let run () =
    let conn = Serve.create () in
    List.iter (fun line -> ignore (Serve.respond conn line)) lines
  in
  let histograms () =
    match Json.member "histograms" (Metrics.to_json ()) with
    | Some (Json.Obj fields) ->
        List.filter_map
          (fun (name, h) ->
            match Json.member "count" h with
            | Some (Json.Num c) when String.starts_with ~prefix:"serve/" name ->
                Some (name, int_of_float c)
            | _ -> None)
          fields
    | _ -> Alcotest.fail "no histograms section"
  in
  let runs what = Metrics.counter_value (Metrics.counter ("serve/reply_runs_" ^ what)) in
  (* A metered run before the registry is cleared: the counts below go to
     the registry as it is after the clear. *)
  Metrics.enable ();
  run ();
  with_metrics (fun () ->
      run ();
      check
        Alcotest.(list (pair string int))
        "op histograms"
        [
          ("serve/add_attribute_ns", 1); ("serve/close_ns", 1); ("serve/open_ns", 1);
          ("serve/resolve_ns", 4); ("serve/set_lower_bound_ns", 1);
        ]
        (histograms ());
      checki "runs rendered" 4 (runs "rendered");
      checki "runs reused" 4 (runs "reused");
      checki "requests" 10 (Metrics.counter_value (Metrics.counter "serve/requests"));
      checki "errors" 2 (Metrics.counter_value (Metrics.counter "serve/errors")));
  Metrics.clear ();
  run ();
  check Alcotest.(list (pair string int)) "metering off: no histogram" [] (histograms ());
  checki "metering off: no run counted" 0 (runs "rendered" + runs "reused");
  Metrics.clear ()

let suite =
  [
    Alcotest.test_case "json render" `Quick test_json_render;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json rejects raw control bytes in strings" `Quick
      test_json_control_bytes;
    Alcotest.test_case "json \\u takes exactly four hex digits" `Quick test_json_hex4;
    test_json_escaper;
    Alcotest.test_case "json raw leaf" `Quick test_json_raw;
    Alcotest.test_case "json surrogate escapes" `Quick test_json_surrogates;
    Alcotest.test_case "json number grammar" `Quick test_json_number_grammar;
    Alcotest.test_case "histogram bucket_index" `Quick test_bucket_index;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "metrics concurrent" `Quick test_metrics_concurrent;
    Alcotest.test_case "trace disabled" `Quick test_trace_disabled;
    Alcotest.test_case "trace nesting" `Quick test_trace_nesting;
    Alcotest.test_case "trace export" `Quick test_trace_export;
    Alcotest.test_case "observed solve identity" `Quick
      test_observed_solve_identity;
    Alcotest.test_case "engine batch trace" `Quick test_engine_trace;
    Alcotest.test_case "spans per phase, metrics per solve" `Quick
      test_spans_per_phase;
    Alcotest.test_case "frozen sets open no span and count in no tally" `Quick
      test_frozen_sets_uncounted;
    Alcotest.test_case "instr pp order" `Quick test_instr_pp_order;
    Alcotest.test_case "instr json roundtrip" `Quick test_instr_json_roundtrip;
    Alcotest.test_case "instr to_metrics" `Quick test_instr_to_metrics;
    Alcotest.test_case "serve op latencies and reply runs" `Quick test_serve_metrics;
  ]
