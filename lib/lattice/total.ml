type level = int
type t = { names : string array; index : (string, int) Hashtbl.t }

let create names =
  if names = [] then invalid_arg "Total.create: empty";
  match Name_index.create names with
  | Ok (names, index) -> { names; index }
  | Error n -> invalid_arg (Printf.sprintf "Total.create: duplicate name %S" n)

let anonymous n =
  if n <= 0 then invalid_arg "Total.anonymous: nonpositive size";
  create (List.init n string_of_int)

let cardinal t = Array.length t.names
let of_name t s = Hashtbl.find_opt t.index s

let of_name_exn t s =
  match of_name t s with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Total.of_name_exn: unknown level %S" s)

let name t l = t.names.(l)
let equal _ (a : level) b = a = b
let compare_level _ = Int.compare
let leq _ a b = a <= b
let lub _ a b = max a b
let glb _ a b = min a b
let top t = cardinal t - 1
let bottom _ = 0
let covers_below _ l = if l = 0 then [] else [ l - 1 ]
let height t = cardinal t - 1
let levels t = Seq.init (cardinal t) Fun.id
let size t = Some (cardinal t)
let pp_level t ppf l = Format.pp_print_string ppf t.names.(l)
let level_to_string t l = t.names.(l)
let level_of_string = of_name

let residual _ ~target ~others = if others >= target then 0 else target
