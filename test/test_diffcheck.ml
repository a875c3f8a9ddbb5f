(* The self-check harness must (a) pass on the real implementation,
   (b) produce summaries that depend only on (seed, cases) — never on the
   worker count — and (c) actually catch an injected solver bug and shrink
   it to a trivial reproducer that replays from its .lat/.cst files. *)

module Selfcheck = Minup_diffcheck.Selfcheck
module Battery = Minup_diffcheck.Battery
module Instance = Minup_diffcheck.Instance
module Shrink = Minup_diffcheck.Shrink

let case = Helpers.case

let render s = Format.asprintf "%a" Selfcheck.pp_summary s

let clean_run () =
  let s = Selfcheck.run ~seed:42 ~cases:60 ~jobs:2 () in
  Alcotest.(check int) "no failures" 0 s.Selfcheck.total_failures;
  (* Backend rotation covers all three implementations. *)
  Alcotest.(check (list (pair string int)))
    "backends"
    [ ("compartment", 20); ("explicit", 20); ("powerset", 20) ]
    s.Selfcheck.backends;
  (* Every case compiles and is checked for satisfaction and, when the
     mutated path is off, minimality; bounded cases split across the two
     bounded branches. *)
  let check name = List.assoc name s.Selfcheck.checks in
  Alcotest.(check int) "compile runs" 60 (check "compile");
  Alcotest.(check int) "satisfies runs" 60 (check "satisfies");
  Alcotest.(check int) "minimal runs" 60 (check "minimal");
  Alcotest.(check int) "batch runs" 60 (check "batch");
  Alcotest.(check int) "parse runs" 60 (check "parse");
  Alcotest.(check int) "json runs" 60 (check "json");
  Alcotest.(check int) "bounded cases" 30 s.Selfcheck.bounded;
  Alcotest.(check int) "bounded branches partition"
    30
    (check "bounded_ok" + check "bounded_infeasible");
  Alcotest.(check bool) "oracle engages" true (check "oracle" > 0);
  Alcotest.(check bool) "backtrack engages" true (check "backtrack" > 0)

let deterministic () =
  let a = Selfcheck.run ~seed:7 ~cases:24 ~jobs:1 () in
  let b = Selfcheck.run ~seed:7 ~cases:24 ~jobs:5 () in
  Alcotest.(check string) "summary independent of jobs" (render a) (render b);
  let c = Selfcheck.run ~seed:8 ~cases:24 ~jobs:1 () in
  Alcotest.(check bool) "seed actually varies the cases" true
    (render a <> render c
    || a.Selfcheck.shapes <> c.Selfcheck.shapes
    || a.Selfcheck.checks <> c.Selfcheck.checks)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The mutation check: an injected over-classification bug must be caught,
   shrunk to a near-empty reproducer (the ISSUE bound is <= 5 constraints;
   these shrink to 0), and the written files must replay to a failure. *)
let mutation_shrinks name mutation () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      ("minup_diffcheck_repro_" ^ name)
  in
  let s =
    Selfcheck.run ~mutation ~repro_dir:dir ~seed:42 ~cases:9 ~jobs:2 ()
  in
  Alcotest.(check bool) "bug caught" true (s.Selfcheck.total_failures > 0);
  Alcotest.(check bool) "failures reported" true (s.Selfcheck.failures <> []);
  List.iter
    (fun (r : Selfcheck.failure_report) ->
      Alcotest.(check bool) "failure reproduces on the mirror" true r.mirrored;
      Alcotest.(check bool)
        (Printf.sprintf "case %d repro has <= 5 constraints" r.case)
        true
        (List.length r.repro.Instance.csts <= 5);
      Alcotest.(check bool)
        (Printf.sprintf "case %d repro lattice is tiny" r.case)
        true
        (List.length r.repro.Instance.names <= 4);
      match r.files with
      | None -> Alcotest.fail "no repro files written"
      | Some (lat_path, cst_path, json_path) -> (
          (match
             Minup_obs.Json.parse (read_file json_path)
             |> Result.map_error (fun e -> `Parse e)
             |> fun j ->
             Result.bind j (fun j ->
                 Minup_core.Wire.of_json j
                 |> Result.map_error (fun e -> `Wire e))
           with
          | Ok env ->
              Alcotest.(check string)
                "repro json is an error envelope" "error"
                (Minup_core.Wire.status env)
          | Error (`Parse e) ->
              Alcotest.failf "repro json does not parse: %s" e
          | Error (`Wire e) ->
              Alcotest.failf "repro json is not a wire envelope: %s" e);
          let lat = read_file lat_path and cst = read_file cst_path in
          match Selfcheck.replay ~mutation ~lat ~cst () with
          | Error e -> Alcotest.failf "repro does not parse back: %s" e
          | Ok fails ->
              Alcotest.(check bool) "replayed repro still fails" true
                (fails <> [])))
    s.Selfcheck.failures;
  (* The same files replay clean without the injected bug: the failure is
     the mutation's, not the harness's. *)
  (match s.Selfcheck.failures with
  | { files = Some (lat_path, cst_path, _); _ } :: _ -> (
      match
        Selfcheck.replay ~lat:(read_file lat_path) ~cst:(read_file cst_path) ()
      with
      | Ok [] -> ()
      | Ok (f : Battery.failure list) ->
          Alcotest.failf "clean replay fails: %s" (List.hd f).Battery.property
      | Error e -> Alcotest.failf "clean replay does not parse: %s" e)
  | _ -> ());
  (* Best-effort cleanup; the files live under the temp dir regardless. *)
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Sys.rmdir dir with Sys_error _ -> ()

(* The list shrinker the instance moves and the session property share:
   it keeps exactly what the predicate needs, in order, and counts no
   more calls than one per removal tried. *)
let list_shrinker () =
  let holds xs = List.mem 3 xs && List.mem 7 xs in
  let calls = ref 0 in
  let got =
    Shrink.list ~predicate:(fun xs -> incr calls; holds xs) (List.init 10 (fun i -> i + 1))
  in
  Alcotest.(check (list int)) "shrunk" [ 3; 7 ] got;
  List.iteri
    (fun i _ ->
      if holds (List.filteri (fun j _ -> j <> i) got) then
        Alcotest.failf "removing element %d keeps the predicate" i)
    got;
  Alcotest.(check int) "one call per removal tried" 10 !calls

let suite =
  [
    case "clean run: 60 cases, all backends, no failures" clean_run;
    case "summary is a function of (seed, cases) only" deterministic;
    case "injected overclassify bug is caught and shrunk"
      (mutation_shrinks "over" Battery.Overclassify);
    case "injected underclassify bug is caught and shrunk"
      (mutation_shrinks "under" Battery.Underclassify);
    case "the list shrinker keeps what the predicate needs" list_shrinker;
  ]
