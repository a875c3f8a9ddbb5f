open Minup_constraints

module Make (L : Minup_lattice.Lattice_intf.S) = struct
  module S = Solver.Make (L)

  type reason =
    | Direct of L.level Cst.t
    | Propagated of L.level Cst.t
    | At_bottom

  type blocked = { to_level : L.level; reason : reason }

  (* Replay a candidate lowering λ(a) := m through the constraint graph,
     lowering right-hand sides as far as needed (greatest fixpoint below
     the current assignment).  Returns [Ok ()] if a strictly lower
     satisfying assignment results, or the index of the level-floor
     constraint that blocks, tagged with whether it was hit on the first
     hop (a constraint directly on [a]).

     Soundness: on success, every constraint involving a lowered attribute
     was (re)checked with final values, so the lowered assignment
     satisfies the whole set — the input was not minimal.  Completeness:
     if a strictly lower solution λ' exists, pick [a] with λ'(a) ≺ λ(a)
     and a cover [m ⊒ λ'(a)]; by induction the replay keeps every pending
     value ⊒ λ', so no floor can fail and the replay succeeds. *)
  let replay (problem : S.problem) levels a m =
    let lat = problem.lat in
    let prob = problem.prob in
    let pending = Hashtbl.create 8 in
    let value x =
      match Hashtbl.find_opt pending x with Some v -> v | None -> levels.(x)
    in
    Hashtbl.replace pending a m;
    let queue = Queue.create () in
    Queue.push a queue;
    let failure = ref None in
    while (not (Queue.is_empty queue)) && !failure = None do
      let x = Queue.pop queue in
      Problem.iter_constr_of prob x (fun ci ->
          if !failure = None then begin
            let combined =
              Problem.fold_lhs prob ci (fun acc y -> L.lub lat acc (value y)) (L.bottom lat)
            in
            match Problem.rhs prob ci with
            | Problem.Rlevel target ->
                if not (L.leq lat target combined) then failure := Some (ci, x = a)
            | Problem.Rattr b ->
                if not (L.leq lat (value b) combined) then begin
                  Hashtbl.replace pending b (L.glb lat (value b) combined);
                  Queue.push b queue
                end
          end)
    done;
    match !failure with None -> Ok () | Some f -> Error f

  let binding_constraints (problem : S.problem) levels attr =
    let lat = problem.lat in
    let prob = problem.prob in
    let a = Problem.attr_id_exn prob attr in
    List.map
      (fun m ->
        match replay problem levels a m with
        | Ok () -> { to_level = m; reason = At_bottom }
        | Error (ci, first_hop) ->
            let c = Problem.cst_to_source prob ci in
            { to_level = m; reason = (if first_hop then Direct c else Propagated c) })
      (L.covers_below lat levels.(a))

  let is_locally_minimal (problem : S.problem) levels =
    let prob = problem.prob in
    let n = Problem.n_attrs prob in
    let ok = ref true in
    for a = 0 to n - 1 do
      if !ok then
        List.iter
          (fun m -> if replay problem levels a m = Ok () then ok := false)
          (L.covers_below problem.lat levels.(a))
    done;
    !ok

  let report (problem : S.problem) levels =
    let lat = problem.lat in
    let prob = problem.prob in
    let buf = Buffer.create 512 in
    for a = 0 to Problem.n_attrs prob - 1 do
      let name = Problem.attr_name prob a in
      Buffer.add_string buf
        (Printf.sprintf "%s = %s\n" name (L.level_to_string lat levels.(a)));
      let blocked = binding_constraints problem levels name in
      if blocked = [] then
        Buffer.add_string buf "  at bottom: no constraint holds it up\n"
      else
        List.iter
          (fun { to_level; reason } ->
            let render c prefix =
              Buffer.add_string buf
                (Format.asprintf "  cannot lower to %s: %s%a\n"
                   (L.level_to_string lat to_level)
                   prefix
                   (Cst.pp (L.pp_level lat))
                   c)
            in
            match reason with
            | Direct c -> render c ""
            | Propagated c -> render c "via propagation, "
            | At_bottom ->
                Buffer.add_string buf
                  (Printf.sprintf
                     "  lowering to %s possible?! (non-minimal input)\n"
                     (L.level_to_string lat to_level)))
          blocked
    done;
    Buffer.contents buf
end
