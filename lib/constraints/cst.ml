type 'lvl rhs = Level of 'lvl | Attr of string
type 'lvl t = { lhs : string list; rhs : 'lvl rhs }
type error = Empty_lhs | Duplicate_lhs of string

let pp_error ppf = function
  | Empty_lhs -> Format.fprintf ppf "constraint with empty left-hand side"
  | Duplicate_lhs a ->
      Format.fprintf ppf "attribute %S repeated in left-hand side" a

module SS = Set.Make (String)

let rec mem a = function [] -> false | x :: rest -> String.equal a x || mem a rest

(* [a] is among the first [k] members of [l]. *)
let rec mem_prefix a l k =
  k > 0 && match l with [] -> false | x :: rest -> String.equal a x || mem_prefix a rest (k - 1)

let rec find_dup_short lhs i = function
  | [] -> None
  | a :: rest -> if mem_prefix a lhs i then Some a else find_dup_short lhs (i + 1) rest

(* The first member equal to an earlier one.  Up to 8 members are
   compared pairwise, allocating nothing; a longer [lub{...}] goes through
   a set of the members seen so far, so k members cost O(k log k), not
   O(k²). *)
let find_dup lhs =
  let rec scan seen = function
    | [] -> None
    | a :: rest -> if SS.mem a seen then Some a else scan (SS.add a seen) rest
  in
  if List.compare_length_with lhs 8 <= 0 then find_dup_short lhs 0 lhs else scan SS.empty lhs

let make ~lhs ~rhs =
  if lhs = [] then Error Empty_lhs
  else
    match find_dup lhs with
    | Some a -> Error (Duplicate_lhs a)
    | None -> Ok { lhs; rhs }

let of_distinct ~lhs ~rhs = { lhs; rhs }

let make_exn ~lhs ~rhs =
  match make ~lhs ~rhs with
  | Ok c -> c
  | Error e -> invalid_arg (Format.asprintf "Cst.make: %a" pp_error e)

let simple attr rhs = make_exn ~lhs:[ attr ] ~rhs
let is_simple c = match c.lhs with [ _ ] -> true | _ -> false
let is_complex c = not (is_simple c)

let is_trivial c =
  match c.rhs with Level _ -> false | Attr a -> mem a c.lhs

let attrs c =
  let base = c.lhs in
  match c.rhs with
  | Level _ -> base
  | Attr a -> if mem a base then base else base @ [ a ]

let size c = List.length c.lhs + 1

let map_level f c =
  {
    lhs = c.lhs;
    rhs = (match c.rhs with Level l -> Level (f l) | Attr a -> Attr a);
  }

let pp pp_level ppf c =
  let pp_rhs ppf = function
    | Level l -> pp_level ppf l
    | Attr a -> Format.fprintf ppf "λ(%s)" a
  in
  match c.lhs with
  | [ a ] -> Format.fprintf ppf "λ(%s) ⊒ %a" a pp_rhs c.rhs
  | lhs ->
      Format.fprintf ppf "lub{%a} ⊒ %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf a -> Format.fprintf ppf "λ(%s)" a))
        lhs pp_rhs c.rhs
