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
