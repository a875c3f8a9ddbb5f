(** The Qian-style baseline (reference [13] of the paper).

    Qian's view-based algorithm computes classifications from constraints
    in polynomial time but, as the paper notes in §1, "does not guarantee
    minimality and, in fact, tends to overclassify information
    unnecessarily."  We model that behavioral profile with the natural
    monotone fixpoint labeler: start everything at ⊥ and, whenever a
    constraint [lub{lhs} ⊒ target] is unsatisfied, raise {e every}
    left-hand-side attribute to dominate the target (rather than choosing
    one attribute to upgrade, which is where the minimality of the paper's
    algorithm comes from).

    The result always satisfies the constraints and is computed in
    [O(N_A · H)] rounds over the constraint set, but complex constraints
    overclassify all but one of their left-hand-side attributes. *)

module Make (L : Minup_lattice.Lattice_intf.S) = struct
  module S = Minup_core.Solver.Make (L)
  module P = Minup_constraints.Problem

  (** [solve problem] — the fixpoint labeling, as an assignment array
      indexed like {!Minup_core.Solver.Make.solution.levels}. *)
  let solve (problem : S.problem) =
    let lat = problem.lat in
    let prob = problem.prob in
    let n = P.n_attrs prob in
    let lam = Array.make n (L.bottom lat) in
    let changed = ref true in
    while !changed do
      changed := false;
      for ci = 0 to P.n_csts prob - 1 do
        let target = match P.rhs prob ci with P.Rlevel l -> l | P.Rattr a -> lam.(a) in
        let combined = P.fold_lhs prob ci (fun acc a -> L.lub lat acc lam.(a)) (L.bottom lat) in
        if not (L.leq lat target combined) then
          P.iter_lhs prob ci (fun a ->
              let raised = L.lub lat lam.(a) target in
              if not (L.equal lat raised lam.(a)) then begin
                lam.(a) <- raised;
                changed := true
              end)
      done
    done;
    lam
end
