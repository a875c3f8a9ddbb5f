let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char buf '\\';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render ~pp_level (p : _ Problem.t) =
  let buf = Buffer.create 512 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "digraph constraints {\n  rankdir=TB;\n";
  for i = 0 to Problem.n_attrs p - 1 do
    out "  a%d [label=\"%s\" shape=circle];\n" i (escape (Problem.attr_name p i))
  done;
  (* Deduplicated level nodes, named by their rendering. *)
  let levels = Hashtbl.create 8 in
  let level_node l =
    let s = Format.asprintf "%a" pp_level l in
    match Hashtbl.find_opt levels s with
    | Some id -> id
    | None ->
        let id = Printf.sprintf "l%d" (Hashtbl.length levels) in
        Hashtbl.add levels s id;
        out "  %s [label=\"%s\" shape=box];\n" id (escape s);
        id
  in
  for ci = 0 to Problem.n_csts p - 1 do
    let target =
      match Problem.rhs p ci with
      | Problem.Rattr b -> Printf.sprintf "a%d" b
      | Problem.Rlevel l -> level_node l
    in
    match Problem.lhs p ci with
    | [| a |] -> out "  a%d -> %s;\n" a target
    | lhs ->
        (* A point node stands in for the hypernode. *)
        out "  h%d [shape=point width=0.08];\n" ci;
        Array.iter
          (fun a -> out "  a%d -> h%d [style=dashed arrowhead=none];\n" a ci)
          lhs;
        out "  h%d -> %s;\n" ci target
  done;
  out "}\n";
  Buffer.contents buf
