type t = { component : int array; members : int array array; n_components : int }

let succs p a =
  let acc = ref [] in
  Problem.iter_constr_of p a (fun ci ->
      let b = p.Problem.store.Problem.rhs.(ci) in
      if Problem.rhs_is_attr b then acc := b :: !acc);
  List.rev !acc

let compute p =
  Minup_obs.Trace.with_span ~cat:"constraints"
    ~args:[ ("attrs", Minup_obs.Trace.Int (Problem.n_attrs p)) ]
    "scc.compute"
  @@ fun () ->
  let n = Problem.n_attrs p in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let scc_stack = ref [] in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let members = ref [] in
  (* Explicit call stack: (node, remaining successors). *)
  let start root =
    if index.(root) = -1 then begin
      let call = ref [ (root, succs p root) ] in
      index.(root) <- !next_index;
      lowlink.(root) <- !next_index;
      incr next_index;
      scc_stack := root :: !scc_stack;
      on_stack.(root) <- true;
      let continue = ref true in
      while !continue do
        match !call with
        | [] -> continue := false
        | (a, []) :: tl ->
            call := tl;
            (match tl with
            | (parent, _) :: _ ->
                if lowlink.(a) < lowlink.(parent) then
                  lowlink.(parent) <- lowlink.(a)
            | [] -> ());
            if lowlink.(a) = index.(a) then begin
              (* a is the root of an SCC: pop it. *)
              let ms = ref [] in
              let stop = ref false in
              while not !stop do
                match !scc_stack with
                | [] -> stop := true
                | x :: rest ->
                    scc_stack := rest;
                    on_stack.(x) <- false;
                    comp.(x) <- !next_comp;
                    ms := x :: !ms;
                    if x = a then stop := true
              done;
              members := Array.of_list (List.sort compare !ms) :: !members;
              incr next_comp
            end
        | (a, b :: more) :: tl ->
            call := (a, more) :: tl;
            if index.(b) = -1 then begin
              index.(b) <- !next_index;
              lowlink.(b) <- !next_index;
              incr next_index;
              scc_stack := b :: !scc_stack;
              on_stack.(b) <- true;
              call := (b, succs p b) :: !call
            end
            else if on_stack.(b) && index.(b) < lowlink.(a) then
              lowlink.(a) <- index.(b)
      done
    end
  in
  for a = 0 to n - 1 do
    start a
  done;
  {
    component = comp;
    members = Array.of_list (List.rev !members);
    n_components = !next_comp;
  }

let same_component t a b = t.component.(a) = t.component.(b)

let is_cyclic_component t p c =
  Array.length t.members.(c) > 1
  || (Array.length t.members.(c) = 1
     &&
     let a = t.members.(c).(0) in
     List.mem a (succs p a))
