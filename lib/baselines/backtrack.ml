(** The rejected alternative (1) of §3.2: back-propagation with
    backtracking over upgrade choices.

    A complex constraint can be solved minimally by upgrading {e any one}
    left-hand-side attribute, {e provided} the levels of the right-hand
    side and the remaining left-hand-side attributes are already final.
    This baseline therefore explores every {e choice vector} — one chosen
    attribute per complex constraint — and for each one schedules the
    constraints exactly as back-propagation would: a simple constraint
    fires once its right-hand side is final; a complex constraint fires
    once its right-hand side and its non-chosen attributes are final; an
    attribute becomes final once all constraints that can raise it have
    fired.  A choice vector whose schedule deadlocks (the choices are
    incompatible with any evaluation order, which is guaranteed to happen
    on constraint cycles) is completed by a best-effort fixpoint and
    flagged as inexact.

    On acyclic inputs, every exactly-scheduled candidate is a minimal
    classification (the same argument as the paper's minimality proof for
    back-propagation), and at least one choice vector schedules exactly —
    so {!Make.solve} is correct there.  The cost, however, is
    [Π |lhs|] schedules — "proportional to the product of the sizes of the
    left-hand sides of all constraints" — which is precisely why the paper
    rejects the approach; the ABL-BT benchmark measures that blow-up. *)

module Make (L : Minup_lattice.Lattice_intf.S) = struct
  module S = Minup_core.Solver.Make (L)
  module P = Minup_constraints.Problem

  (* Least m with m ⊔ others ⊒ target: the Minlevel walk, from ⊤. *)
  let minimal_upgrade lat ~target ~others =
    if L.leq lat target others then L.bottom lat
    else begin
      let last = ref (L.top lat) in
      let continue = ref true in
      while !continue do
        match
          List.find_opt
            (fun l' -> L.leq lat target (L.lub lat l' others))
            (L.covers_below lat !last)
        with
        | Some l' -> last := l'
        | None -> continue := false
      done;
      !last
    end

  type candidate = { levels : L.level array; exact : bool }

  (* Run one choice vector through the dependency-aware schedule. *)
  let schedule (problem : S.problem) choice =
    let lat = problem.lat in
    let prob = problem.prob in
    let n = P.n_attrs prob in
    let nc = P.n_csts prob in
    let lhs = Array.init nc (P.lhs prob) and rhs = Array.init nc (P.rhs prob) in
    let lam = Array.make n (L.bottom lat) in
    let fired = Array.make nc false in
    let final = Array.make n false in
    let target_of ci = match rhs.(ci) with P.Rlevel l -> l | P.Rattr b -> lam.(b) in
    let rhs_final ci = match rhs.(ci) with P.Rlevel _ -> true | P.Rattr b -> final.(b) in
    let chosen ci =
      if Array.length lhs.(ci) = 1 then lhs.(ci).(0) else lhs.(ci).(choice ci)
    in
    let fire ci =
      let a = chosen ci in
      let others =
        Array.fold_left
          (fun acc a' -> if a' = a then acc else L.lub lat acc lam.(a'))
          (L.bottom lat) lhs.(ci)
      in
      let up = minimal_upgrade lat ~target:(target_of ci) ~others in
      lam.(a) <- L.lub lat lam.(a) up;
      fired.(ci) <- true
    in
    let ready ci =
      (not fired.(ci))
      && rhs_final ci
      && Array.for_all (fun a -> a = chosen ci || final.(a)) lhs.(ci)
    in
    let raises_unfired a =
      (* some constraint that can raise attribute a under this choice has
         not fired yet *)
      let r = ref false in
      P.iter_constr_of prob a (fun ci -> if chosen ci = a && not fired.(ci) then r := true);
      !r
    in
    let exact = ref true in
    let progress = ref true in
    while !progress do
      progress := false;
      for ci = 0 to nc - 1 do
        if ready ci then begin fire ci; progress := true end
      done;
      for a = 0 to n - 1 do
        if (not final.(a)) && not (raises_unfired a)
        then begin
          final.(a) <- true;
          progress := true
        end
      done
    done;
    (* Deadlock (cycles or incompatible choices): finish with a monotone
       fixpoint; the result may not be minimal. *)
    if Array.exists not fired then begin
      exact := false;
      let changed = ref true in
      while !changed do
        changed := false;
        for ci = 0 to nc - 1 do
          let combined =
            Array.fold_left (fun acc a -> L.lub lat acc lam.(a)) (L.bottom lat) lhs.(ci)
          in
          if not (L.leq lat (target_of ci) combined) then begin
            let a = chosen ci in
            let others =
              Array.fold_left
                (fun acc a' -> if a' = a then acc else L.lub lat acc lam.(a'))
                (L.bottom lat) lhs.(ci)
            in
            let up = minimal_upgrade lat ~target:(target_of ci) ~others in
            let raised = L.lub lat lam.(a) up in
            if not (L.equal lat raised lam.(a)) then begin
              lam.(a) <- raised;
              changed := true
            end
          end
        done
      done
    end;
    { levels = lam; exact = !exact }

  (** Number of choice vectors ([Π |lhs|] over complex constraints) —
      the quantity the paper's rejection argument is about.  [None] on
      overflow. *)
  let search_space (problem : S.problem) =
    let rec from ci acc =
      if ci = P.n_csts problem.prob then acc
      else
        match acc with
        | None -> None
        | Some s ->
            let k = P.lhs_size problem.prob ci in
            from (ci + 1)
              (if k <= 1 then acc else if s > max_int / k then None else Some (s * k))
    in
    from 0 (Some 1)

  (** All satisfying classifications reachable by some choice vector.
      Cost proportional to {!search_space}. *)
  let candidates (problem : S.problem) =
    let nc = P.n_csts problem.prob in
    let choice = Array.make nc 0 in
    let out = ref [] in
    let rec go ci =
      if ci = nc then begin
        let c = schedule problem (fun i -> choice.(i)) in
        if S.satisfies problem c.levels then out := c :: !out
      end
      else begin
        let k = P.lhs_size problem.prob ci in
        if k <= 1 then go (ci + 1)
        else
          for v = 0 to k - 1 do
            choice.(ci) <- v;
            go (ci + 1)
          done
      end
    in
    go 0;
    List.rev !out

  (** A minimal classification, by exhaustive choice-vector search.
      Prefers exactly-scheduled candidates (always minimal on acyclic
      inputs) over deadlock-completed ones.  Raises [Invalid_argument] if
      the search space exceeds [max_space] (default [200_000]). *)
  let solve ?(max_space = 200_000) (problem : S.problem) =
    (match search_space problem with
    | Some s when s <= max_space -> ()
    | _ -> invalid_arg "Backtrack.solve: choice space too large");
    let cands = candidates problem in
    let lat = problem.lat in
    let dominates a b =
      let ok = ref true in
      Array.iteri (fun i ai -> if not (L.leq lat b.(i) ai) then ok := false) a;
      !ok
    in
    let pool =
      match List.filter (fun c -> c.exact) cands with
      | [] -> cands
      | exact -> exact
    in
    let levels = List.map (fun c -> c.levels) pool in
    let minimal =
      List.filter
        (fun s ->
          not (List.exists (fun s' -> dominates s s' && not (dominates s' s)) levels))
        levels
    in
    match minimal with m :: _ -> Some m | [] -> None
end
