(* The priority carry's seeded sweep: 20 000 random edit batches over
   small policies of the three generator shapes ({!Minup_diffcheck.Carry}).
   Every batch whose edges all keep the carry must carry priorities equal
   to a scratch pass over the rebuilt problem, field for field, every
   batch the old problem has room for must edit it in place into the
   rebuilt problem, field for field, and some batches must be carried
   and some edited.  Prints one gate line; exits 1 on a difference or
   when nothing was carried or edited.

     dune exec dev/carry_sweep.exe *)

let seed = 42
let batches = 20_000

let () =
  match Minup_diffcheck.Carry.sweep ~seed ~batches with
  | carried, edited, None when carried > 0 && edited > 0 ->
      Printf.printf
        "ci: priority carry OK (%d of %d batches at seed %d carried, %d edited, each = scratch)\n"
        carried batches seed edited
  | carried, edited, None ->
      Printf.eprintf "ci: of %d batches at seed %d, %d carried and %d edited\n" batches seed
        carried edited;
      exit 1
  | _, _, Some (i, field) ->
      Printf.eprintf "ci: batch %d at seed %d: the %s differs from scratch\n" i seed field;
      exit 1
