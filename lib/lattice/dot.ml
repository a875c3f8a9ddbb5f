let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char buf '\\';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let of_poset p =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph lattice {\n  rankdir=BT;\n";
  for i = 0 to Poset.cardinal p - 1 do
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" i (escape (Poset.name p i)))
  done;
  for hi = 0 to Poset.cardinal p - 1 do
    List.iter
      (fun lo -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" lo hi))
      (Poset.covers_below p hi)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let of_explicit lat = of_poset (Explicit.poset lat)
