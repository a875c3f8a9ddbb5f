(* Pinned Instr counters on four fixed instances: the acyclic n=2000
   workload (bench seed 17), where every attribute is back-propagated; one
   single-cycle instance, where the forward lowering ([Try]) runs; a small
   instance over the pentagon lattice N5 where, inside one [Try], an
   attribute's pending lowering is replaced by a glb and the attribute
   re-enters Tocheck; and triangles over N5 where one [Try] pushes 19
   attributes at once.  Five more pin the solver's other entry modes:
   upper bounds (§6) on the acyclic instance, an incremental re-solve of
   a cyclic instance, a re-tightened bound re-solved incrementally on the
   acyclic instance (a session's patch path), four re-tightened bounds
   whose sets are labeled apart (complex rows rebuilt in several
   epochs), and an upgrade preference over many priority sets (with a
   digest of the order the Bigloop considers attributes in).  Each of
   these also pins an MD5 of the final levels.  The last pins a session: a digest of the levels after each step of a
   fixed delta script on the cyclic and preference instances.  Any
   drift means a change altered what the solver computes or how it
   counts.  Prints every line; exits 1 if any differs from its pin. *)
open Minup_lattice
module ST = Minup_core.Solver.Make (Total)
module SP = Minup_core.Solver.Make (Powerset)
module SE = Minup_core.Solver.Make (Explicit)
module Cst = Minup_constraints.Cst
module Problem = Minup_constraints.Problem
module Instr = Minup_core.Instr
module Gen = Minup_workload.Gen_constraints
module Prng = Minup_workload.Prng
module Session_make = Minup_session.Session.Make

let ladder16 = Total.create (List.init 16 (Printf.sprintf "S%d"))

let powerset4 = Powerset.create [ "a"; "b"; "c"; "d" ]

(* A solve's counters and an MD5 of its levels, each rendered by
   [to_string]. *)
let pin to_string stats levels =
  let out = Buffer.create 4096 in
  Array.iter
    (fun l ->
      Buffer.add_string out (to_string l);
      Buffer.add_char out ' ')
    levels;
  Format.asprintf "%a levels=%s" Instr.pp stats
    (Digest.to_hex (Digest.string (Buffer.contents out)))

let total_pin = pin (Total.level_to_string ladder16)

let total (attrs, csts) =
  let p = ST.compile_exn ~lattice:ladder16 ~attrs csts in
  let s = ST.solve p in
  total_pin s.ST.stats s.ST.levels

let powerset_pin = pin (Powerset.level_to_string powerset4)

let powerset (attrs, csts) =
  let p = SP.compile_exn ~lattice:powerset4 ~attrs csts in
  let s = SP.solve p in
  powerset_pin s.SP.stats s.SP.levels

(* In a chain or a powerset all the lowerings one [Try] asks of an
   attribute are equal, so the glb branch never runs there; the pentagon
   is one of the smallest lattices where it does. *)
let pentagon =
  Explicit.create_exn ~names:[ "bot"; "a"; "b"; "c"; "top" ]
    ~order:[ ("bot", "a"); ("a", "b"); ("b", "top"); ("bot", "c"); ("c", "top") ]

let explicit lat (attrs, csts) =
  let p = SE.compile_exn ~lattice:lat ~attrs csts in
  let s = SE.solve p in
  pin (Explicit.level_to_string lat) s.SE.stats s.SE.levels

let y i = Printf.sprintf "y%d" i
let z i = Printf.sprintf "z%d" i

(* The triangles [y0] >= [yi] >= [zi] >= [y0], i = 1 .. 19: one cyclic
   set of 39 attributes.  With [complex] each triangle also carries the
   non-binding [{yi, zi} >= bot]. *)
let triangles ~complex =
  List.concat
    (List.init 19 (fun i ->
         [
           Cst.simple (y 0) (Cst.Attr (y (i + 1)));
           Cst.simple (y (i + 1)) (Cst.Attr (z (i + 1)));
           Cst.simple (z (i + 1)) (Cst.Attr (y 0));
         ]
         @
         if complex then
           [
             Cst.make_exn ~lhs:[ y (i + 1); z (i + 1) ]
               ~rhs:(Cst.Level (Explicit.bottom pentagon));
           ]
         else []))

let triangle_attrs = List.init 20 y @ List.init 19 (fun i -> z (i + 1))

(* [x2]'s Try to [b] lowers [x5] to bot, which then asks [x2] for [a]:
   [x2] re-enters Tocheck at glb(b, a) = a, and the Try fails.  The bare
   triangles beside it are one simple-only cyclic set. *)
let glb_meet =
  let lv = Explicit.of_name_exn pentagon in
  let x i = Printf.sprintf "x%d" i in
  ( List.init 6 x @ triangle_attrs,
    [
      Cst.simple (x 1) (Cst.Level (lv "c"));
      Cst.simple (x 4) (Cst.Level (lv "a"));
      Cst.make_exn ~lhs:[ x 5; x 0 ] ~rhs:(Cst.Attr (x 2));
      Cst.simple (x 1) (Cst.Attr (x 5));
      Cst.make_exn ~lhs:[ x 4; x 5 ] ~rhs:(Cst.Attr (x 1));
      Cst.simple (x 0) (Cst.Attr (x 4));
      Cst.make_exn ~lhs:[ x 5; x 3; x 4 ] ~rhs:(Cst.Attr (x 0));
      Cst.make_exn ~lhs:[ x 4; x 0; x 2 ] ~rhs:(Cst.Attr (x 5));
    ]
    @ triangles ~complex:false )

(* Each triangle's complex constraint keeps the set on [Try]: [y0]'s
   first [Try] pushes all 19 [yi] at once. *)
let push = (triangle_attrs, triangles ~complex:true)

let acyclic =
  Gen.acyclic (Prng.create 17)
    { Gen.n_attrs = 2000; n_simple = 4000; n_complex = 1000; max_lhs = 4;
      n_constants = 500; constants = List.init 16 Fun.id }

let cyclic =
  Gen.single_scc (Prng.create 17)
    { Gen.n_attrs = 300; n_simple = 300; n_complex = 100; max_lhs = 3;
      n_constants = 30; constants = List.init 16 Fun.id }

(* Every 250th attribute capped at its unbounded level: consistent caps
   that the derivation pushes through the graph. *)
let bounds (attrs, csts) =
  let p = ST.compile_exn ~lattice:ladder16 ~attrs csts in
  let full = (ST.solve p).ST.levels in
  let caps =
    List.filter_map
      (fun a -> if a mod 250 = 0 then Some (Printf.sprintf "A%d" a, full.(a)) else None)
      (List.init (Array.length full) Fun.id)
  in
  match ST.solve_with_bounds p caps with
  | Ok s -> total_pin s.ST.stats s.ST.levels
  | Error i -> Format.asprintf "%a" (ST.pp_inconsistency ladder16) i

(* [cyclic] beside a renamed copy [Bi] of it, every tenth [Bi] above its
   [Ai]: with the copy half dirty, the original half takes the full
   solve's levels and only the copy is solved again. *)
let incremental (attrs, csts) =
  let b name = "B" ^ String.sub name 1 (String.length name - 1) in
  let copy (c : _ Cst.t) =
    Cst.make_exn ~lhs:(List.map b c.Cst.lhs)
      ~rhs:(match c.Cst.rhs with Cst.Attr r -> Cst.Attr (b r) | lvl -> lvl)
  in
  let wires =
    List.filteri (fun i _ -> i mod 10 = 0) attrs
    |> List.map (fun a -> Cst.simple (b a) (Cst.Attr a))
  in
  let p =
    SP.compile_exn ~lattice:powerset4 ~attrs:(attrs @ List.map b attrs)
      (csts @ List.map copy csts @ wires)
  in
  let full = SP.solve p in
  let n = List.length attrs in
  let s =
    SP.solve_incremental ~workspace:(SP.workspace ()) ~prev:(p, full)
      ~dirty:(List.init n (fun a -> n + a))
      p
  in
  powerset_pin s.SP.stats s.SP.levels

(* A session's patch resolve, outside [Session]: [acyclic] plus the
   bound [A1990 >= S3] as its last row, solved, the bound re-tightened
   to S11 in place ([set_rlevel]) and re-solved with only A1990 dirty. *)
let patch (attrs, csts) =
  let p =
    ST.compile_exn ~lattice:ladder16 ~attrs (csts @ [ Cst.simple "A1990" (Cst.Level 3) ])
  in
  let prob = p.ST.prob in
  let full = ST.solve p in
  Problem.set_rlevel prob (Problem.n_csts prob - 1) 11;
  let a = Problem.attr_id_exn prob "A1990" in
  let s = ST.solve_incremental ~workspace:(ST.workspace ()) ~prev:(p, full) ~dirty:[ a ] p in
  total_pin s.ST.stats s.ST.levels

(* A patch resolve whose labeled sets lie apart: [acyclic]'s shape at
   300 attributes, bounds on four attributes spread over the order and
   two complex rows across them, all four bounds re-tightened at once.
   The dirty sets are labeled between runs of reused sets, so a row
   across them is rebuilt in each of their epochs.  Pins the reused
   count too. *)
let epochs =
  let attrs, csts =
    Gen.acyclic (Prng.create 23)
      { Gen.n_attrs = 300; n_simple = 500; n_complex = 120; max_lhs = 3;
        n_constants = 60; constants = List.init 16 Fun.id }
  in
  let a = Printf.sprintf "A%d" and bounded = [ 7; 95; 180; 260 ] in
  let rows =
    [
      Cst.make_exn ~lhs:[ a 7; a 180 ] ~rhs:(Cst.Level 9);
      Cst.make_exn ~lhs:[ a 40; a 95; a 260 ] ~rhs:(Cst.Level 10);
    ]
  in
  let bounds = List.map (fun i -> Cst.simple (a i) (Cst.Level 2)) bounded in
  let p = ST.compile_exn ~lattice:ladder16 ~attrs (csts @ rows @ bounds) in
  let prob = p.ST.prob in
  let full = ST.solve p in
  let first = Problem.n_csts prob - List.length bounded in
  List.iteri (fun i l -> Problem.set_rlevel prob (first + i) l) [ 5; 12; 3; 8 ];
  let dirty = List.map (fun i -> Problem.attr_id_exn prob (a i)) bounded in
  let s = ST.solve_incremental ~workspace:(ST.workspace ()) ~prev:(p, full) ~dirty p in
  Printf.sprintf "%s reused=%d" (total_pin s.ST.stats s.ST.levels) s.ST.reused

(* Islands of cycles wired acyclically, solved under a preference that
   reorders both the sets and the members within a set. *)
let preference_instance =
  Gen.mixed (Prng.create 17)
    { Gen.n_attrs = 400; n_simple = 600; n_complex = 120; max_lhs = 3;
      n_constants = 40; constants = List.init 16 Fun.id }
    ~n_islands:6 ~island_size:30

let preference =
  let attrs, csts = preference_instance in
  let p = ST.compile_exn ~lattice:ladder16 ~attrs csts in
  let order = Buffer.create 4096 in
  let on_event = function
    | ST.Consider { attr; _ } -> Buffer.add_string order attr; Buffer.add_char order ' '
    | _ -> ()
  in
  let upgrade_preference a = Hashtbl.hash a mod 7 in
  let s = ST.solve ~config:(ST.Config.make ~on_event ~upgrade_preference ()) p in
  Printf.sprintf "%s order=%s" (total_pin s.ST.stats s.ST.levels)
    (Digest.to_hex (Digest.string (Buffer.contents order)))

(* The levels after each resolve of one delta script, as an MD5: the
   first resolve, then an added complex constraint across the graph, the
   removal of every constraint [drop] selects, a new attribute, first
   bounds on the first two attributes at ⊥, the first of those bounds
   cleared, and the second re-tightened, each followed by a resolve. *)
module Session_pin (L : Lattice_intf.S) = struct
  module S = Session_make (L)

  let digest lat ?(config = S.Solver.Config.default) ~drop ~levels (attrs, csts) =
    let a i = List.nth attrs i and n = List.length attrs in
    let sess = S.create ~lattice:lat ~attrs csts in
    let out = Buffer.create 4096 in
    let last = ref [||] in
    let resolve () =
      last := (S.resolve ~config sess).S.Solver.levels;
      Array.iter
        (fun l ->
          Buffer.add_string out (L.level_to_string lat l);
          Buffer.add_char out ' ')
        !last;
      Buffer.add_char out '\n'
    in
    resolve ();
    ignore
      (S.add_constraint sess
         (Cst.make_exn ~lhs:[ a 1; a (n / 2) ] ~rhs:(Cst.Attr (a (n - 1)))));
    resolve ();
    List.iteri
      (fun id c -> if drop c then ignore (S.remove_constraint sess id))
      csts;
    resolve ();
    S.add_attribute sess "fresh";
    resolve ();
    let at_bottom =
      List.filteri (fun i _ -> L.equal lat !last.(i) (L.bottom lat)) attrs
    in
    let b0 = List.nth at_bottom 0 and b1 = List.nth at_bottom 1 in
    S.set_lower_bound sess b0 (Some levels.(0));
    S.set_lower_bound sess b1 (Some levels.(1));
    resolve ();
    S.set_lower_bound sess b0 None;
    resolve ();
    S.set_lower_bound sess b1 (Some levels.(2));
    resolve ();
    Digest.to_hex (Digest.string (Buffer.contents out))
end

(* [cyclic] is one component that every constant lifts to ⊤, so its
   script drops every level right-hand side; [preference] drops those at
   ⊤. *)
let session =
  let module P = Session_pin (Powerset) in
  let module T = Session_pin (Total) in
  let pset = Powerset.of_elements_exn powerset4 in
  let upgrade_preference a = Hashtbl.hash a mod 7 in
  let cyclic =
    P.digest powerset4 cyclic
      ~drop:(fun c -> match c.Cst.rhs with Cst.Level _ -> true | Cst.Attr _ -> false)
      ~levels:[| pset [ "a"; "b" ]; pset [ "c" ]; pset [ "a"; "b"; "c"; "d" ] |]
  in
  let preference =
    T.digest ladder16
      ~config:(T.S.Solver.Config.make ~upgrade_preference ())
      ~drop:(fun c -> c.Cst.rhs = Cst.Level 15)
      ~levels:[| 12; 9; 15 |] preference_instance
  in
  Printf.sprintf "cyclic=%s preference=%s" cyclic preference

let pins =
  [
    ("acyclic", total acyclic, "lub=4278 glb=0 leq=1517 minlevel=1000 try=0 try_iters=0 checks=0 levels=bc3ac080a8c3cab437dc880d678b47c9");
    ("cyclic", powerset cyclic, "lub=4153 glb=0 leq=10719 minlevel=70 try=718 try_iters=3661 checks=9247 levels=c632f41689d540f143f6f054ec3cab3d");
    ("glb", explicit pentagon glb_meet, "lub=32 glb=6 leq=49 minlevel=3 try=7 try_iters=13 checks=30 levels=b517a5114b0114222dc52fdc176f4e5c");
    ("push", explicit pentagon push, "lub=76 glb=114 leq=365 minlevel=19 try=3 try_iters=117 checks=285 levels=c9a99cbbadd993bcd4bb896966e4d54e");
    ("bounds", bounds acyclic, "lub=6471 glb=0 leq=3504 minlevel=2987 try=0 try_iters=0 checks=0 levels=bc3ac080a8c3cab437dc880d678b47c9");
    ("incremental", incremental cyclic, "lub=2875 glb=0 leq=7637 minlevel=70 try=656 try_iters=2429 checks=6252 levels=4529a3a5d7783492fa4d9e62cb407108");
    ("patch", patch acyclic, "lub=2134 glb=0 leq=662 minlevel=451 try=0 try_iters=0 checks=0 levels=2d479dd1876937cac1032eb84ea652b0");
    ("epochs", epochs, "lub=34 glb=0 leq=14 minlevel=8 try=0 try_iters=0 checks=0 levels=9a9efd29f62a88cb7dd22a238f20cdb6 reused=289");
    ("preference", preference,
     "lub=1863 glb=1628 leq=5559 minlevel=84 try=51 try_iters=554 checks=3601 levels=f5c494b6d46650211691e9a421eb14e2 order=15b31f1daf5c89f2bf2c3ffc14b2ca97");
    ("session", session, "cyclic=f45fa6480a3cfbf1ab9dec38af10f32d preference=0eefddbec49158ac96a43bed2175858c");
  ]

let () =
  let ok =
    List.fold_left
      (fun ok (name, got, pin) ->
        Printf.printf "%s: %s\n" name got;
        if got <> pin then
          Printf.eprintf "counters_check: %s drifted\n  pinned: %s\n  got:    %s\n"
            name pin got;
        ok && got = pin)
      true pins
  in
  if not ok then exit 1
