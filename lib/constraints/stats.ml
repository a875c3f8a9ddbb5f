type t = {
  n_attrs : int;
  n_csts : int;
  total_size : int;
  n_simple : int;
  n_complex : int;
  max_lhs : int;
  acyclic : bool;
  n_sccs : int;
  largest_scc : int;
  n_cyclic_attrs : int;
}

let compute p =
  let scc = Scc.compute p in
  let n_simple = Problem.n_csts p - p.Problem.n_complex in
  let largest_scc =
    Array.fold_left (fun acc m -> max acc (Array.length m)) 0 scc.Scc.members
  in
  let n_cyclic_attrs =
    Array.fold_left
      (fun acc m -> if Array.length m > 1 then acc + Array.length m else acc)
      0 scc.Scc.members
    +
    (* Single-attribute components that carry a self-loop. *)
    let count = ref 0 in
    Array.iteri
      (fun c m ->
        if Array.length m = 1 && Scc.is_cyclic_component scc p c then incr count)
      scc.Scc.members;
    !count
  in
  {
    n_attrs = Problem.n_attrs p;
    n_csts = Problem.n_csts p;
    total_size = Problem.total_size p;
    n_simple;
    n_complex = p.Problem.n_complex;
    max_lhs =
      (let m = ref 0 in
       for ci = 0 to Problem.n_csts p - 1 do
         m := max !m (Problem.lhs_size p ci)
       done;
       !m);
    acyclic = Problem.is_acyclic p;
    n_sccs = scc.Scc.n_components;
    largest_scc;
    n_cyclic_attrs;
  }

let pp ppf s =
  Format.fprintf ppf
    "@[<v>attributes: %d@,constraints: %d (simple %d, complex %d, max lhs %d)@,\
     total size S: %d@,acyclic: %b@,SCCs: %d (largest %d, cyclic attributes %d)@]"
    s.n_attrs s.n_csts s.n_simple s.n_complex s.max_lhs s.total_size s.acyclic
    s.n_sccs s.largest_scc s.n_cyclic_attrs
