module Cst = Minup_constraints.Cst

let list ~predicate xs =
  let rec go xs i =
    if i >= List.length xs then xs
    else
      (* The index does not advance after a removal: the next element
         slides into place. *)
      let candidate = List.filteri (fun j _ -> j <> i) xs in
      if predicate candidate then go candidate i else go xs (i + 1)
  in
  go xs 0

let mentioned_attrs (inst : Instance.t) =
  List.concat_map Cst.attrs inst.csts @ List.map fst inst.bounds

let mentioned_levels (inst : Instance.t) =
  List.filter_map
    (fun (c : _ Cst.t) ->
      match c.Cst.rhs with Cst.Level nm -> Some nm | Cst.Attr _ -> None)
    inst.csts
  @ List.map snd inst.bounds

let drop_level (inst : Instance.t) nm =
  {
    inst with
    Instance.names = List.filter (( <> ) nm) inst.names;
    order = List.filter (fun (a, b) -> a <> nm && b <> nm) inst.order;
  }

let pass ~predicate (inst : Instance.t) =
  let inst =
    { inst with csts = list ~predicate:(fun csts -> predicate { inst with csts }) inst.csts }
  in
  let inst =
    {
      inst with
      bounds = list ~predicate:(fun bounds -> predicate { inst with bounds }) inst.bounds;
    }
  in
  (* Unreferenced attributes.  [list] over the full attribute list
     would also try referenced ones; restricting the move keeps the
     instance internally consistent (every lhs attribute stays declared). *)
  let inst =
    let used = mentioned_attrs inst in
    List.fold_left
      (fun (acc : Instance.t) a ->
        if List.mem a used then acc
        else
          let candidate =
            { acc with Instance.attrs = List.filter (( <> ) a) acc.attrs }
          in
          if predicate candidate then candidate else acc)
      inst inst.attrs
  in
  (* Unreferenced lattice levels; the predicate re-validates the lattice,
     so removals that break the lub/glb structure are rejected. *)
  let inst =
    let used = mentioned_levels inst in
    List.fold_left
      (fun (acc : Instance.t) nm ->
        if List.mem nm used then acc
        else
          let candidate = drop_level acc nm in
          if predicate candidate then candidate else acc)
      inst inst.names
  in
  inst

let shrink ~predicate inst =
  let rec fixpoint inst =
    let inst' = pass ~predicate inst in
    if inst' = inst then inst else fixpoint inst'
  in
  fixpoint inst
