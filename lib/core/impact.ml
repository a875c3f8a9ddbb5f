module Make (L : Minup_lattice.Lattice_intf.S) = struct
  module S = Solver.Make (L)

  type move = Raised | Lowered | Shifted | Added

  type change = {
    attr : string;
    before : L.level option;
    after : L.level;
    move : move;
  }

  type report = {
    changes : change list;
    unchanged : int;
    solution : S.solution;
  }

  let diff lat ~before ~after =
    List.filter_map
      (fun (attr, now) ->
        match List.assoc_opt attr before with
        | None -> Some { attr; before = None; after = now; move = Added }
        | Some old ->
            if L.equal lat old now then None
            else
              let move =
                if L.leq lat old now then Raised
                else if L.leq lat now old then Lowered
                else Shifted
              in
              Some { attr; before = Some old; after = now; move })
      after

  let of_added_constraints ~lattice ?attrs ?upgrade_preference ~base ~added () =
    let config = S.Config.make ?upgrade_preference () in
    let solve csts = S.solve ~config (S.compile_exn ~lattice ?attrs csts) in
    let s0 = solve base in
    let s1 = solve (base @ added) in
    let changes = diff lattice ~before:s0.S.assignment ~after:s1.S.assignment in
    { changes; unchanged = List.length s1.S.assignment - List.length changes; solution = s1 }

  let pp_report lat ppf r =
    Format.fprintf ppf "@[<v>";
    if r.changes = [] then Format.fprintf ppf "no classification changes@,"
    else
      List.iter
        (fun { attr; before; after; move } ->
          let verb =
            match move with
            | Raised -> "raised"
            | Lowered -> "lowered"
            | Shifted -> "shifted"
            | Added -> "added"
          in
          match before with
          | None ->
              Format.fprintf ppf "%-8s %s at %a@," verb attr (L.pp_level lat) after
          | Some old ->
              Format.fprintf ppf "%-8s %s: %a -> %a@," verb attr (L.pp_level lat)
                old (L.pp_level lat) after)
        r.changes;
    Format.fprintf ppf "%d attribute(s) unchanged@]" r.unchanged
end
