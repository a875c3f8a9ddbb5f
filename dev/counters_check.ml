(* Pinned Instr counters on two fixed instances: the acyclic n=2000
   workload (bench seed 17), where every attribute is back-propagated, and
   one single-cycle instance, where the forward lowering ([Try]) runs.
   Any drift means a change altered what the solver computes or how it
   counts.  Prints both lines; exits 1 if either differs from its pin. *)
open Minup_lattice
module ST = Minup_core.Solver.Make (Total)
module SP = Minup_core.Solver.Make (Powerset)
module Instr = Minup_core.Instr
module Gen = Minup_workload.Gen_constraints
module Prng = Minup_workload.Prng

let ladder16 = Total.create (List.init 16 (Printf.sprintf "S%d"))

let powerset4 = Powerset.create [ "a"; "b"; "c"; "d" ]

let total (attrs, csts) =
  let p = ST.compile_exn ~lattice:ladder16 ~attrs csts in
  Format.asprintf "%a" Instr.pp (ST.solve p).ST.stats

let powerset (attrs, csts) =
  let p = SP.compile_exn ~lattice:powerset4 ~attrs csts in
  Format.asprintf "%a" Instr.pp (SP.solve p).SP.stats

let acyclic =
  Gen.acyclic (Prng.create 17)
    { Gen.n_attrs = 2000; n_simple = 4000; n_complex = 1000; max_lhs = 4;
      n_constants = 500; constants = List.init 16 Fun.id }

let cyclic =
  Gen.single_scc (Prng.create 17)
    { Gen.n_attrs = 300; n_simple = 300; n_complex = 100; max_lhs = 3;
      n_constants = 30; constants = List.init 16 Fun.id }

let pins =
  [
    ("acyclic", total acyclic, "lub=4278 glb=0 leq=1517 minlevel=1000 try=0 try_iters=0 checks=0");
    ("cyclic", powerset cyclic, "lub=4153 glb=0 leq=10719 minlevel=70 try=718 try_iters=3661 checks=9247");
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
