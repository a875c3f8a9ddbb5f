type level = int
type t = { elems : string array; index : (string, int) Hashtbl.t }

let max_arity = Sys.int_size - 1 (* 62: keep masks positive *)

let create elements =
  if List.compare_length_with elements max_arity > 0 then
    invalid_arg
      (Printf.sprintf "Powerset.create: more than %d elements" max_arity);
  match Name_index.create elements with
  | Ok (elems, index) -> { elems; index }
  | Error n ->
      invalid_arg (Printf.sprintf "Powerset.create: duplicate element %S" n)

let arity t = Array.length t.elems

let of_elements t names =
  let rec go acc = function
    | [] -> Some acc
    | n :: rest -> (
        match Hashtbl.find_opt t.index n with
        | Some i -> go (acc lor (1 lsl i)) rest
        | None -> None)
  in
  go 0 names

let of_elements_exn t names =
  match of_elements t names with
  | Some l -> l
  | None -> invalid_arg "Powerset.of_elements_exn: unknown element"

let elements t l =
  let out = ref [] in
  for i = arity t - 1 downto 0 do
    if l land (1 lsl i) <> 0 then out := t.elems.(i) :: !out
  done;
  !out

let singleton t n =
  match Hashtbl.find_opt t.index n with
  | Some i -> Some (1 lsl i)
  | None -> None

let equal _ (a : level) b = a = b
let compare_level _ = Int.compare
let leq _ a b = a land lnot b = 0
let lub _ a b = a lor b
let glb _ a b = a land b
let top t = (1 lsl arity t) - 1
let bottom _ = 0

let covers_below _ l =
  (* Remove one member at a time, lowest first. *)
  let rec go acc rest =
    if rest = 0 then List.rev acc
    else
      let bit = rest land -rest in
      go ((l land lnot bit) :: acc) (rest land lnot bit)
  in
  go [] l

let height t = arity t

let levels t =
  let n = 1 lsl arity t in
  Seq.init n Fun.id

let size t = Some (1 lsl arity t)

let level_to_string t l = "{" ^ String.concat "," (elements t l) ^ "}"
let pp_level t ppf l = Format.pp_print_string ppf (level_to_string t l)

let level_of_string t s =
  let s = String.trim s in
  let n = String.length s in
  if n < 2 || s.[0] <> '{' || s.[n - 1] <> '}' then None
  else
    let body = String.trim (String.sub s 1 (n - 2)) in
    if body = "" then Some 0
    else
      body |> String.split_on_char ',' |> List.map String.trim |> of_elements t

let residual _ ~target ~others = target land lnot others
