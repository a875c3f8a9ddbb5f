(* serve-edit: interactive policy editing over `mlsclassify serve`.

   Three named sessions are interleaved on one connection; every line goes
   through [Serve.handle_line] and every reply is rendered to its NDJSON
   line as [Serve.run] does.  A session's lifetime is: open a policy of
   2 000 attributes (acyclic apart from three 3-attribute rings among the
   highest-numbered attributes), seed 100 lower bounds and resolve, re-read
   the cached solution, run 24 transactions, close.  One request is one
   transaction: one or two delta lines, then a resolve line.  The 24
   transactions of a lifetime are

     P ×17  re-tighten existing bounds          (session patch path)
     B ×2   re-tighten a bound, then resolve with upper bounds (§6);
            the second is infeasible by construction
     A ×1   add an acyclic constraint           (general path)
     R ×1   remove the constraint added by A    (general path)
     N ×1   add an attribute and a constraint   (general path)
     F ×2   add / remove a floor on a ring      (dirty closure meets a
                                                 cycle: full fallback)

   so the fast transactions (P, B) are 19 of 24 and the structural ones
   (A, R, N, F), about four times slower, 5 of 24.  The p50 then falls
   inside the fast mode and the p90 in the middle of the slow one, each
   far from the boundary at 79%: a patch-path gain moves the p50 and a
   recompile gain the p90.

   Replies are checked after the timed loop against a policy mirror the
   benchmark keeps itself: every resolve equals a from-scratch compile and
   solve of the mirror, every ack carries the expected id, and a reply is
   infeasible exactly when the request was planted to be. *)

open Common
module Explicit = Minup_lattice.Explicit
module Lattice_file = Minup_lattice.Lattice_file
module Cst = Minup_constraints.Cst
module Parse = Minup_constraints.Parse
module Serve = Minup_session.Serve
module Session = Minup_session.Session.Make (Explicit)
module Solver = Minup_core.Solver.Make (Explicit)
module Instr = Minup_core.Instr
module Wire = Minup_core.Wire
module Json = Minup_obs.Json
module Metrics = Minup_obs.Metrics
module Prng = Minup_workload.Prng
module IntMap = Map.Make (Int)

let name = "serve-edit"
let n_attrs = 2_000
let n_bases = 3
let slots = 3
let n_seeded = 100
let lifetimes = 90
let n_rings = 3
let ring_size = 3
let traced_units = 120

type op =
  | Open of int  (** base policy *)
  | Add of Explicit.level Cst.t
  | Remove of int
  | Bound of string * Explicit.level
  | New_attr of string
  | Resolve
  | Resolve_bounds of { bounds : (string * Explicit.level) list; planted : bool }
  | Close

(* A transaction carries its letter in the mix below. *)
type kind = Open_session | Prologue | Transaction of char | Close_session

(* One unit of the transcript: the lines of one open, prologue step,
   transaction or close. *)
type unit_ = { session : string; kind : kind; ops : op array; lines : string array }

type base = { policy : Inputs.policy; rings : int list }

type state = {
  l : Inputs.lattice;
  bases : base array;
  units : unit_ array;
  seed : int;
}

let level_name st l = Explicit.level_to_string st.l.Inputs.lat l

let constraint_line st c =
  String.trim (Inputs.render st.l.Inputs.lat ~attrs:[] [ c ])

let request_line st session op =
  let str s = Json.Str s in
  let op_name, fields =
    match op with
    | Open b ->
        ( "open",
          [
            ("lattice", str st.l.Inputs.lat_text);
            ("constraints", str st.bases.(b).policy.Inputs.text);
          ] )
    | Add c -> ("add_constraint", [ ("constraint", str (constraint_line st c)) ])
    | Remove id -> ("remove_constraint", [ ("id", Json.Num (float_of_int id)) ])
    | Bound (a, l) -> ("set_lower_bound", [ ("attr", str a); ("level", str (level_name st l)) ])
    | New_attr a -> ("add_attribute", [ ("attr", str a) ])
    | Resolve -> ("resolve", [])
    | Resolve_bounds { bounds; _ } ->
        ( "resolve",
          [ ("bounds", Json.Obj (List.map (fun (a, l) -> (a, str (level_name st l))) bounds)) ] )
    | Close -> ("close", [])
  in
  Json.to_string (Json.Obj (("op", str op_name) :: ("problem", str session) :: fields))

(* The client side of one session lifetime.  Constraint ids are predicted
   (the base policy's constraints take 0..k-1, each add the next one), so
   the transcript does not depend on replies. *)
let lifetime st rng ~life ~session ~base =
  let lat = st.l.Inputs.lat in
  let levels = Array.of_list (Inputs.non_bottom lat) in
  let level () = levels.(Prng.int rng (Array.length levels)) in
  let b = st.bases.(base) in
  let n_safe = n_attrs - (n_rings * ring_size) in
  let attr i = Inputs.name i in
  let bounded =
    Array.of_list (List.map attr (Prng.sample rng n_seeded (List.init n_safe Fun.id)))
  in
  let next_id = ref (List.length b.policy.Inputs.csts) in
  let removable = Queue.create () and ring_floors = Queue.create () in
  let fresh = ref 0 and bounded_txns = ref 0 in
  let add c =
    let id = !next_id in
    incr next_id;
    (Add c, id)
  in
  let edge () =
    let i = Prng.int rng (n_safe - 1) in
    let j = i + 1 + Prng.int rng (n_safe - i - 1) in
    Cst.simple (attr i) (Cst.Attr (attr j))
  in
  let retighten () = Bound (bounded.(Prng.int rng n_seeded), level ()) in
  let txn = function
    | 'P' -> if Prng.bool rng then [ retighten (); retighten () ] else [ retighten () ]
    | 'A' ->
        let op, id = add (edge ()) in
        Queue.push id removable;
        [ op ]
    | 'R' -> [ Remove (Queue.pop removable) ]
    | 'N' ->
        let a = Printf.sprintf "N%d_%d" life !fresh in
        incr fresh;
        let op, id = add (Cst.simple a (Cst.Attr (attr (Prng.int rng n_safe)))) in
        Queue.push id removable;
        [ New_attr a; op ]
    | 'F' ->
        if Queue.is_empty ring_floors then begin
          let r = List.nth b.rings (Prng.int rng (List.length b.rings)) in
          let op, id = add (Cst.simple (attr r) (Cst.Level (level ()))) in
          Queue.push id ring_floors;
          [ op ]
        end
        else [ Remove (Queue.pop ring_floors) ]
    | _ -> assert false
  in
  let resolve_step = function
    | 'B' ->
        incr bounded_txns;
        let planted = !bounded_txns mod 2 = 0 in
        let bounds =
          if planted then
            (* Every seeded bound is above ⊥, so capping one at ⊥ conflicts. *)
            [ (bounded.(Prng.int rng n_seeded), Explicit.bottom lat) ]
          else
            List.map
              (fun i -> (attr i, Explicit.top lat))
              (Prng.sample rng 3 (List.init n_safe Fun.id))
        in
        [ retighten (); Resolve_bounds { bounds; planted } ]
    | c -> txn c @ [ Resolve ]
  in
  let mk kind ops =
    let ops = Array.of_list ops in
    { session; kind; ops; lines = Array.map (request_line st session) ops }
  in
  let seeding = Array.to_list (Array.map (fun a -> Bound (a, level ())) bounded) in
  let pattern = "PPPAPPPFPPBPPPRPPNPPFPBP" in
  [ mk Open_session [ Open base ]; mk Prologue (seeding @ [ Resolve ]); mk Prologue [ Resolve ] ]
  @ List.init (String.length pattern) (fun k ->
        mk (Transaction pattern.[k]) (resolve_step pattern.[k]))
  @ [ mk Close_session [ Close ] ]

let setup ~seed =
  let rng = Prng.create seed in
  let l = Inputs.grid () in
  let bases =
    Array.init n_bases (fun _ ->
        let policy, rings =
          Inputs.acyclic_with_rings l (Prng.split rng) n_attrs ~n_rings ~ring_size
        in
        { policy; rings })
  in
  let st0 = { l; bases; units = [||]; seed } in
  let lives =
    Array.init lifetimes (fun life ->
        let s = life mod slots in
        Array.of_list
          (lifetime st0 (Prng.split rng) ~life ~session:(Printf.sprintf "s%d" s)
             ~base:(((life / slots) + s) mod n_bases)))
  in
  (* Slot s runs lifetimes s, s + slots, …; the slots take turns, one unit
     each.  Every lifetime has the same number of units. *)
  let len = Array.length lives.(0) in
  let units =
    Array.init (lifetimes * len) (fun i ->
        let j = i / slots in
        lives.((i mod slots) + (slots * (j / len))).(j mod len))
  in
  (* Warm up on one whole lifetime, on its own connection. *)
  let conn = Serve.create () in
  Array.iter (fun u -> Array.iter (fun l -> ignore (Serve.handle_line conn l)) u.lines) lives.(0);
  { st0 with units }

let exec conn ~rid u =
  span ~rid "request" @@ fun () ->
  Array.map
    (fun line ->
      let resp = span ~rid "serve.handle_line" (fun () -> Serve.handle_line conn line) in
      span ~rid "wire.render" (fun () -> Json.to_string (Wire.to_json resp)))
    u.lines

(* --- the policy mirror ---------------------------------------------- *)

type mirror = {
  mutable attrs_rev : string list;
  known : (string, unit) Hashtbl.t;
  mutable entries : Explicit.level Cst.t IntMap.t;
  mutable next_id : int;
  bounds : (string, Explicit.level) Hashtbl.t;
  mutable bound_order_rev : string list;
  mutable cached : string option;  (** expected reply of a plain resolve *)
}

let register m a =
  if not (Hashtbl.mem m.known a) then begin
    Hashtbl.add m.known a ();
    m.attrs_rev <- a :: m.attrs_rev
  end

let mirror_add m c =
  List.iter (register m) (Cst.attrs c);
  let id = m.next_id in
  m.next_id <- id + 1;
  m.entries <- IntMap.add id c m.entries;
  id

let mirror_of (p : Inputs.policy) =
  let m =
    {
      attrs_rev = [];
      known = Hashtbl.create 4096;
      entries = IntMap.empty;
      next_id = 0;
      bounds = Hashtbl.create 128;
      bound_order_rev = [];
      cached = None;
    }
  in
  List.iter (register m) p.Inputs.attrs;
  List.iter (fun c -> ignore (mirror_add m c)) p.Inputs.csts;
  m

let scratch_problem st m =
  let csts =
    List.map snd (IntMap.bindings m.entries)
    @ List.rev_map
        (fun a -> Cst.simple a (Cst.Level (Hashtbl.find m.bounds a)))
        m.bound_order_rev
  in
  Solver.compile_exn ~lattice:st.l.Inputs.lat ~attrs:(List.rev m.attrs_rev) csts

let reply session body = Json.to_string (Wire.to_json (Wire.v1 ~problem:session body))

let solution_reply st session (sol : Solver.solution) =
  reply session
    (Wire.Solution
       {
         assignment = List.map (fun (a, l) -> (a, level_name st l)) sol.Solver.assignment;
         stats = None;
       })

let ack ?id session = reply session (Wire.Ack { id })

(* Expected reply of every line of [u]; [mirrors] is updated in place.
   Raises [Mismatch] when a bounded resolve's feasibility is not what the
   transcript planted. *)
let expected st mirrors u =
  let s = u.session in
  let m () = Hashtbl.find mirrors s in
  let touch m = m.cached <- None in
  Array.map
    (function
      | Open b ->
          Hashtbl.replace mirrors s (mirror_of st.bases.(b).policy);
          ack s
      | Add c ->
          let m = m () in
          touch m;
          ack ~id:(mirror_add m c) s
      | Remove id ->
          let m = m () in
          if IntMap.mem id m.entries then begin
            touch m;
            m.entries <- IntMap.remove id m.entries;
            ack ~id s
          end
          else
            reply s
              (Wire.Error
                 { detail = Printf.sprintf "remove_constraint: unknown constraint id %d" id })
      | Bound (a, l) ->
          let m = m () in
          touch m;
          register m a;
          if not (Hashtbl.mem m.bounds a) then m.bound_order_rev <- a :: m.bound_order_rev;
          Hashtbl.replace m.bounds a l;
          ack s
      | New_attr a ->
          let m = m () in
          touch m;
          register m a;
          ack s
      | Resolve -> (
          let m = m () in
          match m.cached with
          | Some r -> r
          | None ->
              let r = solution_reply st s (Solver.solve (scratch_problem st m)) in
              m.cached <- Some r;
              r)
      | Resolve_bounds { bounds; planted } -> (
          let problem = scratch_problem st (m ()) in
          match Solver.solve_with_bounds problem bounds with
          | Ok sol ->
              if planted then mismatch "%s: planted infeasible bounds were feasible" name;
              solution_reply st s sol
          | Error inc ->
              if not planted then mismatch "%s: unplanted bounds were infeasible" name;
              reply s
                (Wire.Infeasible
                   {
                     detail =
                       Format.asprintf "%a" (Solver.pp_inconsistency st.l.Inputs.lat) inc;
                   }))
      | Close ->
          Hashtbl.remove mirrors s;
          ack s)
    u.ops

let timed st ~seconds =
  let conn = Serve.create () in
  let lat = ref [] and opens = ref [] and by_letter = ref [] in
  let replies = ref [] and attempted = ref 0 in
  let n_units = Array.length st.units in
  let loop =
    closed_loop ~round:(slots * Array.length st.units / lifetimes) ~seconds (fun i ->
        let u = st.units.(i mod n_units) in
        attempted := !attempted + Array.length u.lines;
        let t0 = now_ns () in
        let out = exec conn ~rid:i u in
        let dt = elapsed_ns t0 in
        (match u.kind with
        | Open_session -> opens := (i, dt) :: !opens
        | Transaction c ->
            lat := (i, dt) :: !lat;
            by_letter := (c, dt) :: !by_letter
        | Prologue | Close_session -> ());
        replies := Array.map Digest.string out :: !replies;
        match u.kind with Transaction _ -> true | _ -> false)
  in
  (* Printed, not reported: the latency of each kind of transaction. *)
  String.iter
    (fun c ->
      let xs = List.filter_map (fun (c', t) -> if c = c' then Some t else None) !by_letter in
      let xs = Array.of_list xs in
      Printf.printf "%-34s %14.6g ms p50 %.6g ms p90 (%d samples)\n"
        (Printf.sprintf "transaction_%c" c) (ms_of_ns (median xs))
        (ms_of_ns (quantile 0.9 xs)) (Array.length xs))
    "PARNFB";
  (* Replay the transcript through the mirror and compare every reply. *)
  let mirrors = Hashtbl.create 8 and failed = ref 0 in
  List.iteri
    (fun i got ->
      let u = st.units.(i mod n_units) in
      match expected st mirrors u with
      | want ->
          Array.iteri
            (fun k d ->
              if d <> Digest.string want.(k) then begin
                Printf.eprintf "%s: unit %d line %d: reply differs from the mirror\n" name i k;
                incr failed
              end)
            got
      | exception Mismatch m ->
          prerr_endline m;
          incr failed)
    (List.rev !replies);
  timed_of loop ~lat:!lat ~opens:!opens ~attempted:!attempted ~failed:!failed

(* --- traced run ----------------------------------------------------- *)

type replay = {
  paths : (string, float list) Hashtbl.t;  (** resolve ns by session path *)
  mutable create_ns : float list;
  mutable delta_ns : float list;
  mutable bounded_ns : float list;
  mutable frozen : int;
  mutable resolvable : int;  (** attributes at incremental resolves *)
  mutable stats : Instr.t list;
  tries : Probes.tries;
}

(* Replays units on the benchmark's own sessions, reading
   [Session.stats] around each resolve to tell the four paths apart. *)
let replay st units =
  let r =
    {
      paths = Hashtbl.create 4;
      create_ns = [];
      delta_ns = [];
      bounded_ns = [];
      frozen = 0;
      resolvable = 0;
      stats = [];
      tries = Probes.tries ();
    }
  in
  let config = Probes.try_config r.tries in
  let sessions = Hashtbl.create 8 in
  let timed f =
    let t0 = now_ns () in
    let v = f () in
    (v, elapsed_ns t0)
  in
  let delta f = r.delta_ns <- snd (timed f) :: r.delta_ns in
  let resolve s =
    let before = Session.stats s in
    let (sol : Session.Solver.solution), ns = timed (fun () -> Session.resolve ~config s) in
    let after = Session.stats s in
    let path =
      if after.Session.cached > before.Session.cached then "cached"
      else if after.Session.patched > before.Session.patched then "patch"
      else if after.Session.full > before.Session.full then "full"
      else "general"
    in
    if after.Session.incremental > before.Session.incremental then begin
      r.frozen <- r.frozen + after.Session.frozen - before.Session.frozen;
      r.resolvable <- r.resolvable + Array.length sol.Session.Solver.levels
    end;
    if path <> "cached" then r.stats <- sol.Session.Solver.stats :: r.stats;
    Hashtbl.replace r.paths path
      (ns :: Option.value ~default:[] (Hashtbl.find_opt r.paths path))
  in
  Array.iter
    (fun u ->
      Array.iter
        (fun op ->
          let s () = Hashtbl.find sessions u.session in
          match op with
          | Open b ->
              let pol = Probes.parse_policy st.l.Inputs.lat st.bases.(b).policy.Inputs.text in
              let s, ns =
                timed (fun () ->
                    Session.create ~lattice:st.l.Inputs.lat ~attrs:pol.Parse.attrs
                      pol.Parse.csts)
              in
              r.create_ns <- ns :: r.create_ns;
              Hashtbl.replace sessions u.session s
          | Add c -> delta (fun () -> ignore (Session.add_constraint (s ()) c))
          | Remove id -> delta (fun () -> ignore (Session.remove_constraint (s ()) id))
          | Bound (a, l) -> delta (fun () -> Session.set_lower_bound (s ()) a (Some l))
          | New_attr a -> delta (fun () -> Session.add_attribute (s ()) a)
          | Resolve -> resolve (s ())
          | Resolve_bounds { bounds; _ } ->
              let s = s () in
              if Session.solution s = None then resolve s;
              let res, ns = timed (fun () -> Session.resolve_with_bounds ~config s bounds) in
              r.bounded_ns <- ns :: r.bounded_ns;
              Result.iter (fun sol -> r.stats <- sol.Session.Solver.stats :: r.stats) res
          | Close -> Hashtbl.remove sessions u.session)
        u.ops)
    units;
  r

let traced st =
  let units = Array.sub st.units 0 traced_units in
  let run () =
    let conn = Serve.create () in
    Array.to_list
      (Array.mapi
         (fun i u ->
           let t0 = now_ns () in
           ignore (exec conn ~rid:i u);
           (u.kind, elapsed_ns t0))
         units)
    |> List.filter_map (fun (k, t) -> match k with Transaction _ -> Some t | _ -> None)
    |> Array.of_list
  in
  let untraced = run () in
  let traced, a = Spans.traced ~workload:name run in
  Metrics.disable ();
  let r = replay st units in
  let p50 l = median (Array.of_list l) in
  let path_ms p = ms_of_ns (p50 (Option.value ~default:[] (Hashtbl.find_opt r.paths p))) in
  let path_count p =
    float_of_int (List.length (Option.value ~default:[] (Hashtbl.find_opt r.paths p)))
  in
  let open_lines =
    Array.to_list units
    |> List.filter (fun u -> u.kind = Open_session)
    |> List.map (fun u -> u.lines.(0))
  in
  let json_ns =
    List.map
      (fun line -> fst (time_median ~reps:5 (fun () -> Json.parse line)))
      open_lines
  in
  (* The lattice and policy parses of an open run inside Serve, out of
     reach of the benchmark's spans: time them on the same texts. *)
  let lattice_ns, lat =
    time_median ~reps:5 (fun () -> Result.get_ok (Lattice_file.parse st.l.Inputs.lat_text))
  in
  let policy_ns =
    Array.map
      (fun b -> fst (time_median ~reps:5 (fun () -> Probes.parse_policy lat b.policy.Inputs.text)))
      st.bases
  in
  (* Session.create at 2k and 8k attributes, policies of the same shape. *)
  let create_ns n reps =
    let p, _ =
      Inputs.acyclic_with_rings st.l (Prng.create (st.seed + n)) n ~n_rings ~ring_size
    in
    let pol = Probes.parse_policy st.l.Inputs.lat p.Inputs.text in
    fst
      (time_median ~reps (fun () ->
           Session.create ~lattice:st.l.Inputs.lat ~attrs:pol.Parse.attrs pol.Parse.csts))
  in
  let small = create_ns n_attrs 3 in
  let large = create_ns (4 * n_attrs) 1 in
  (* Listed first: these replace the span p50s, which are 0 here. *)
  [
    ("lattice_file.parse_ms", ms_of_ns lattice_ns);
    ("parse.policy_ms", ms_of_ns (median policy_ns));
  ]
  @ Spans.common_metrics a ~untraced_p50:(median untraced) ~traced_p50:(median traced)
  @ Probes.instr_metrics (Instr.sum (Array.of_list r.stats))
  @ Probes.minor_words_metrics st.l.Inputs.lat st.bases.(0).policy.Inputs.text
  @ [
      ("solver.try_success_ratio", Probes.try_success_ratio r.tries);
      ("solver.bounded_ms", ms_of_ns (p50 r.bounded_ns));
      ("session.create_ms", ms_of_ns (p50 r.create_ns));
      ("session.delta_us", p50 r.delta_ns /. 1e3);
      ("session.resolve_ms.cached", path_ms "cached");
      ("session.resolve_ms.patch", path_ms "patch");
      ("session.resolve_ms.general", path_ms "general");
      ("session.resolve_ms.full", path_ms "full");
      ("session.resolves.cached", path_count "cached");
      ("session.resolves.patch", path_count "patch");
      ("session.resolves.general", path_count "general");
      ("session.resolves.full", path_count "full");
      ( "session.frozen_ratio",
        if r.resolvable = 0 then 0. else float_of_int r.frozen /. float_of_int r.resolvable );
      ("json.parse_ms", ms_of_ns (p50 json_ns));
      ( "session.create_scaling_exp",
        Probes.scaling_exp ~small ~large ~size_ratio:4. );
    ]
