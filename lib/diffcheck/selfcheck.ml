open Minup_lattice
module Wire = Minup_core.Wire
module Json = Minup_obs.Json
module Prng = Minup_workload.Prng
module Gen = Minup_workload.Gen_constraints
module Gen_lattice = Minup_workload.Gen_lattice

(* --- case generation ------------------------------------------------- *)

(* One generated case; [run] is the battery and [materialize] the durable
   form of it on its backend. *)
type case = {
  id : int;
  backend : string;
  shape : string;
  bounded : bool;
  run :
    ?mutation:Battery.mutation ->
    ?fault:Minup_faultsim.kind ->
    ?counts:int array ->
    unit ->
    Battery.failure list;
  materialize : unit -> Instance.t;
}

(* Sizes are deliberately small: the exhaustive oracle and the
   backtracking baseline only engage on small cases, and shrinking wants
   many cheap cases over few expensive ones. *)
let gen_policy rng ~constants =
  let n_attrs = 4 + Prng.int rng 5 in
  let spec =
    {
      Gen.n_attrs;
      n_simple = 2 + Prng.int rng (n_attrs + 2);
      n_complex = 1 + Prng.int rng 3;
      max_lhs = 2 + Prng.int rng 2;
      n_constants = 1 + Prng.int rng 3;
      constants;
    }
  in
  match Prng.int rng 3 with
  | 0 -> ("acyclic", Gen.acyclic rng spec)
  | 1 -> ("single_scc", Gen.single_scc rng spec)
  | _ -> ("mixed", Gen.mixed rng spec ~n_islands:2 ~island_size:2)

module Backend (L : Lattice_intf.S) = struct
  module B = Battery.Make (L)
  module M = Instance.Materialize (L)

  (* Case [id] over [lat]: its policy from [gen_policy] over the level
     pool, then, for odd ids, its bounds.  Bounds lean high (⊤ half the
     time) so both the feasible and the infeasible branch of bounded
     solving get regular exercise. *)
  let case rng ~id ~backend lat =
    let pool = List.of_seq (Seq.take 64 (L.levels lat)) in
    let shape, (attrs, csts) = gen_policy rng ~constants:pool in
    let bounded = id land 1 = 1 in
    let bounds =
      if not bounded then []
      else
        List.map
          (fun a -> (a, if Prng.bool rng then L.top lat else Prng.pick rng pool))
          (Prng.sample rng (1 + Prng.int rng 2) attrs)
    in
    {
      id;
      backend;
      shape;
      bounded;
      run = B.run ~lat ~attrs ~csts ~bounds;
      materialize = (fun () -> M.instance lat ~attrs ~csts ~bounds);
    }
end

module Explicit_backend = Backend (Explicit)
module Compartment_backend = Backend (Compartment)
module Powerset_backend = Backend (Powerset)

let checks = Explicit_backend.B.checks

let explicit_lattice rng =
  match Prng.int rng 4 with
  | 0 -> Gen_lattice.diamond_stack (1 + Prng.int rng 3)
  | 1 -> Gen_lattice.chain_product [ 1 + Prng.int rng 2; 1 + Prng.int rng 2 ]
  | 2 -> Gen_lattice.random_closure_exn rng ~universe:4 ~n_generators:3 ~max_size:24
  | _ -> Minup_core.Paper.fig1b

let take k xs = List.filteri (fun i _ -> i < k) xs

let compartment_lattice rng =
  if Prng.int rng 3 = 0 then Compartment.fig1a
  else
    Compartment.create
      ~classifications:(take (2 + Prng.int rng 3) [ "U"; "C"; "S"; "TS" ])
      ~categories:(take (Prng.int rng 3) [ "X"; "Y"; "Z" ])

let powerset_lattice rng =
  Powerset.create (take (2 + Prng.int rng 3) [ "p"; "q"; "r"; "s" ])

let gen_case seed id =
  (* Each case draws from its own stream: splitmix64 decorrelates even
     adjacent seeds, so deriving from (seed, id) keeps cases independent
     of each other and of the worker that happens to claim them.  The
     lattice is drawn first, then the policy, then the bounds. *)
  let rng = Prng.create (seed lxor ((id + 1) * 0x9E3779B9)) in
  match id mod 3 with
  | 0 -> Explicit_backend.case rng ~id ~backend:"explicit" (explicit_lattice rng)
  | 1 ->
      Compartment_backend.case rng ~id ~backend:"compartment"
        (compartment_lattice rng)
  | _ -> Powerset_backend.case rng ~id ~backend:"powerset" (powerset_lattice rng)

(* --- shrinking ------------------------------------------------------- *)

(* "Still fails": the mirrored instance parses back into a valid lattice,
   resolves, and the explicit-backend battery reports at least one
   disagreement (under the same injected mutation, if any). *)
let instance_fails ?mutation ?fault (inst : Instance.t) =
  match Instance.lattice inst with
  | Error _ -> false
  | Ok lat -> (
      match Instance.resolve inst lat with
      | None -> false
      | Some (csts, bounds) ->
          Explicit_backend.B.run ?mutation ?fault ~lat ~attrs:inst.Instance.attrs
            ~csts ~bounds ()
          <> [])

(* --- the harness ----------------------------------------------------- *)

type failure_report = {
  case : int;
  backend : string;
  shape : string;
  property : string;
  detail : string;
  repro : Instance.t;
  mirrored : bool;
  files : (string * string * string) option;
}

type summary = {
  seed : int;
  cases : int;
  backends : (string * int) list;
  shapes : (string * int) list;
  bounded : int;
  checks : (string * int) list;
  total_failures : int;
  failures : failure_report list;
}

let max_reports = 5

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let run ?mutation ?fault ?repro_dir ~seed ~cases ~jobs () =
  let jobs = max 1 (min jobs (max 1 cases)) in
  let outcomes = Array.make cases None in
  let next = Atomic.make 0 in
  let worker _ =
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add next 1 in
      if i >= cases then continue := false
      else begin
        let case = gen_case seed i in
        let counts = Array.make (Array.length checks) 0 in
        let failures =
          (* An exception out of any implementation is itself a finding,
             not a harness crash; its case counts no check. *)
          match case.run ?mutation ?fault ~counts () with
          | failures -> failures
          | exception e ->
              Array.fill counts 0 (Array.length counts) 0;
              [ { Battery.property = "exception"; detail = Printexc.to_string e } ]
        in
        outcomes.(i) <- Some (case, counts, failures)
      end
    done
  in
  Minup_core.Pool.run jobs worker;
  (* Aggregation is sequential and in case order, so the summary is a pure
     function of (seed, cases) — never of the parallel schedule. *)
  let totals = Array.make (Array.length checks) 0 in
  let tally tbl key =
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  let backends_tbl = Hashtbl.create 4 and shapes_tbl = Hashtbl.create 4 in
  let bounded = ref 0 in
  let failing = ref [] in
  Array.iter
    (function
      | None -> assert false
      | Some ((case : case), counts, failures) ->
          Array.iteri (fun k n -> totals.(k) <- totals.(k) + n) counts;
          tally backends_tbl case.backend;
          tally shapes_tbl case.shape;
          if case.bounded then incr bounded;
          if failures <> [] then failing := (case, failures) :: !failing)
    outcomes;
  let failing = List.rev !failing in
  let total_failures =
    List.fold_left (fun n (_, fs) -> n + List.length fs) 0 failing
  in
  (match repro_dir with
  | Some dir when failing <> [] -> ensure_dir dir
  | _ -> ());
  let failures =
    List.map
      (fun ((case : case), fs) ->
        let f = List.hd fs in
        let inst0 = case.materialize () in
        let mirrored = instance_fails ?mutation ?fault inst0 in
        let inst =
          if mirrored then
            Shrink.shrink ~predicate:(instance_fails ?mutation ?fault) inst0
          else inst0
        in
        let header =
          [
            "minup selfcheck reproducer";
            Printf.sprintf "seed=%d case=%d backend=%s shape=%s" seed case.id
              case.backend case.shape;
            Printf.sprintf "property=%s: %s" f.Battery.property
              f.Battery.detail;
            (if mirrored then "shrunk on the explicit mirror"
             else "backend-specific: does not reproduce on the mirror");
            Printf.sprintf
              "replay: mlsclassify solve -l case%d.lat -c case%d.cst \
               --check-minimal"
              case.id case.id;
          ]
        in
        let files =
          match repro_dir with
          | None -> None
          | Some dir ->
              let base = Filename.concat dir (Printf.sprintf "case%d" case.id) in
              write_file (base ^ ".lat") (Instance.lat_file ~header inst);
              write_file (base ^ ".cst") (Instance.cst_file ~header inst);
              (* Machine-readable mirror of the finding, in the same
                 versioned envelope the serve loop answers with. *)
              let envelope =
                Wire.v1
                  ~problem:(Printf.sprintf "case%d" case.id)
                  (Wire.Error
                     {
                       detail =
                         Printf.sprintf "property=%s: %s" f.Battery.property
                           f.Battery.detail;
                     })
              in
              write_file (base ^ ".json")
                (Json.to_string ~pretty:true (Wire.to_json envelope) ^ "\n");
              Some (base ^ ".lat", base ^ ".cst", base ^ ".json")
        in
        {
          case = case.id;
          backend = case.backend;
          shape = case.shape;
          property = f.Battery.property;
          detail = f.Battery.detail;
          repro = inst;
          mirrored;
          files;
        })
      (take max_reports failing)
  in
  {
    seed;
    cases;
    backends =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) backends_tbl []);
    shapes =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) shapes_tbl []);
    bounded = !bounded;
    checks = List.combine (Array.to_list checks) (Array.to_list totals);
    total_failures;
    failures;
  }

let pp_summary ppf s =
  let alist l =
    String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l)
  in
  Format.fprintf ppf "selfcheck: seed=%d cases=%d@." s.seed s.cases;
  Format.fprintf ppf "  backends: %s@." (alist s.backends);
  Format.fprintf ppf "  shapes: %s@." (alist s.shapes);
  Format.fprintf ppf "  bounded: %d@." s.bounded;
  Format.fprintf ppf "  checks: %s@." (alist s.checks);
  Format.fprintf ppf "  failures: %d@." s.total_failures;
  List.iter
    (fun r ->
      Format.fprintf ppf "  FAIL case=%d backend=%s shape=%s property=%s: %s@."
        r.case r.backend r.shape r.property r.detail;
      Format.fprintf ppf "    repro%s: %d levels, %d attrs, %d constraints, %d bounds@."
        (if r.mirrored then " (shrunk)" else " (unshrunk, backend-specific)")
        (List.length r.repro.Instance.names)
        (List.length r.repro.Instance.attrs)
        (List.length r.repro.Instance.csts)
        (List.length r.repro.Instance.bounds);
      match r.files with
      | None -> ()
      | Some (lat, cst, json) ->
          Format.fprintf ppf "    wrote %s %s %s@." lat cst json)
    s.failures;
  if s.total_failures > List.length s.failures then
    Format.fprintf ppf "  (%d further failures not shown)@."
      (s.total_failures - List.length s.failures)

let replay ?mutation ?fault ~lat ~cst () =
  match Lattice_file.parse lat with
  | Error e -> Error (Format.asprintf "lattice: %a" Lattice_file.pp_error e)
  | Ok lattice -> (
      match
        Minup_constraints.Parse.parse_resolve
          ~level_of_string:(Explicit.level_of_string lattice)
          cst
      with
      | Error e ->
          Error (Format.asprintf "constraints: %a" Minup_constraints.Parse.pp_error e)
      | Ok r ->
          Ok
            (Explicit_backend.B.run ?mutation ?fault ~lat:lattice
               ~attrs:r.Minup_constraints.Parse.attrs
               ~csts:r.Minup_constraints.Parse.csts
               ~bounds:r.Minup_constraints.Parse.upper_bounds ()))
