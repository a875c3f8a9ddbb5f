(* Shared benchmark plumbing: wall-clock timing for macro experiments,
   Bechamel for micro experiments, and aligned table rendering. *)

(* Median wall time of [runs] executions of [f], in seconds. *)
let time_it ?(runs = 3) f =
  let samples =
    List.init runs (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        Unix.gettimeofday () -. t0)
  in
  match List.sort compare samples with
  | [] -> 0.0
  | sorted -> List.nth sorted (runs / 2)

(* Host/build provenance stamped into every BENCH_*.json artifact so a
   result file is interpretable without the shell session that produced
   it.  [git_rev] degrades to "unknown" outside a checkout. *)
let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some rev when rev <> "" -> rev
      | _ -> "unknown")

let host_meta () =
  let open Minup_obs.Json in
  [
    ("host_domains", Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml_version", Str Sys.ocaml_version);
    ("git_rev", Str (git_rev ()));
    ("os_type", Str Sys.os_type);
    ("word_size", Num (float_of_int Sys.word_size));
  ]

(* Write a BENCH_*.json artifact: the [benchmark] name, then {!host_meta},
   then the experiment's own [fields], pretty-printed with a trailing
   newline. *)
let write_bench_json path ~benchmark fields =
  let open Minup_obs.Json in
  let json = Obj ((("benchmark", Str benchmark) :: host_meta ()) @ fields) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_string ~pretty:true json);
      output_char oc '\n')

let pp_seconds s =
  if s < 1e-3 then Printf.sprintf "%.1fus" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s

(* Aligned table printing: rows of equal length string lists. *)
let table ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let render_row row =
    "  "
    ^ String.concat "  "
        (List.map2
           (fun cell w -> cell ^ String.make (w - String.length cell) ' ')
           row widths)
  in
  print_endline (render_row header);
  print_endline
    ("  " ^ String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun r -> print_endline (render_row r)) rows

let section title =
  Printf.printf "\n=== %s ===\n" title

(* Run a list of Bechamel tests and return (name, ns/run) estimates. *)
let bechamel_estimates tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) () in
  let raw =
    Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"bench" tests)
  in
  let results = Analyze.all ols instance raw in
  Hashtbl.fold
    (fun name result acc ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> (name, est) :: acc
      | _ -> (name, Float.nan) :: acc)
    results []
  |> List.sort compare
