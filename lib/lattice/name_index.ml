let create names =
  let arr = Array.of_list names in
  let n = Array.length arr in
  let index = Hashtbl.create n in
  let rec go i =
    if i = n then Ok (arr, index)
    else if Hashtbl.mem index arr.(i) then Error arr.(i)
    else begin
      Hashtbl.add index arr.(i) i;
      go (i + 1)
    end
  in
  go 0
