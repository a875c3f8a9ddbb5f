(* The priority carry's seeded sweep: 20 000 random edit batches over
   small policies of the three generator shapes ({!Minup_diffcheck.Carry}).
   Every batch whose edges all keep the carry must carry priorities equal
   to a scratch pass over the rebuilt problem, field for field, and some
   batches must be carried.  Prints one gate line; exits 1 on a
   difference or when nothing was carried.

     dune exec dev/carry_sweep.exe *)

let seed = 42
let batches = 20_000

let () =
  match Minup_diffcheck.Carry.sweep ~seed ~batches with
  | carried, None when carried > 0 ->
      Printf.printf "ci: priority carry OK (%d of %d batches at seed %d carried, each = scratch)\n"
        carried batches seed
  | carried, None ->
      Printf.eprintf "ci: no batch of %d at seed %d carried its priorities (%d)\n" batches seed
        carried;
      exit 1
  | _, Some (i, field) ->
      Printf.eprintf "ci: batch %d at seed %d carried priorities whose %s differs from scratch\n" i
        seed field;
      exit 1
