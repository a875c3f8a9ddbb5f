type elt = int

type t = {
  names : string array;
  index : (string, int) Hashtbl.t;
  up : Bitset.t array;
  down : Bitset.t array;
  covers_lo : int list array;
  covers_hi : int list array;
  height : int;
}

type error = Empty | Duplicate_name of string | Unknown_name of string | Cyclic_order

let pp_error ppf = function
  | Empty -> Format.fprintf ppf "poset has no elements"
  | Duplicate_name n -> Format.fprintf ppf "duplicate element name %S" n
  | Unknown_name n -> Format.fprintf ppf "order pair mentions unknown element %S" n
  | Cyclic_order -> Format.fprintf ppf "order relation is cyclic"

exception Err of error

let create ~names ~order =
  try
    if names = [] then raise (Err Empty);
    let arr = Array.of_list names in
    let n = Array.length arr in
    let index = Hashtbl.create n in
    Array.iteri
      (fun i nm ->
        if Hashtbl.mem index nm then raise (Err (Duplicate_name nm));
        Hashtbl.add index nm i)
      arr;
    let edge (lo, hi) =
      let find x =
        match Hashtbl.find_opt index x with
        | Some i -> i
        | None -> raise (Err (Unknown_name x))
      in
      (find lo, find hi)
    in
    let edges =
      List.filter (fun (lo, hi) -> lo <> hi) (List.map edge order)
    in
    let covers =
      match Hasse.transitive_reduction n edges with
      | c -> c
      | exception Invalid_argument _ -> raise (Err Cyclic_order)
    in
    let up = Hasse.transitive_closure n covers in
    let down = Array.init n (fun _ -> Bitset.create n) in
    for i = 0 to n - 1 do
      Bitset.iter (fun j -> Bitset.set down.(j) i) up.(i)
    done;
    let covers_lo = Array.make n [] and covers_hi = Array.make n [] in
    List.iter
      (fun (lo, hi) ->
        covers_lo.(hi) <- lo :: covers_lo.(hi);
        covers_hi.(lo) <- hi :: covers_hi.(lo))
      (List.rev covers);
    Ok
      {
        names = arr;
        index;
        up;
        down;
        covers_lo;
        covers_hi;
        height = Hasse.longest_path n covers;
      }
  with Err e -> Error e

let create_exn ~names ~order =
  match create ~names ~order with
  | Ok t -> t
  | Error e -> invalid_arg (Format.asprintf "Poset.create: %a" pp_error e)

let butterfly =
  create_exn
    ~names:[ "c"; "d"; "a"; "b" ]
    ~order:[ ("c", "a"); ("c", "b"); ("d", "a"); ("d", "b") ]

let cardinal t = Array.length t.names
let all t = List.init (cardinal t) Fun.id
let of_name t s = Hashtbl.find_opt t.index s

let of_name_exn t s =
  match of_name t s with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Poset.of_name_exn: unknown element %S" s)

let name t e = t.names.(e)
let leq t a b = Bitset.mem t.up.(a) b
let equal _ (a : elt) b = a = b
let covers_below t e = t.covers_lo.(e)
let covers_above t e = t.covers_hi.(e)

let cover_pairs t =
  List.concat_map (fun hi -> List.map (fun lo -> (lo, hi)) t.covers_lo.(hi)) (all t)
  |> List.sort compare

let maximal_elements t =
  List.filter (fun e -> t.covers_hi.(e) = []) (all t)

let minimal_elements t =
  List.filter (fun e -> t.covers_lo.(e) = []) (all t)

let upper_bounds t = function
  | [] -> all t
  | e :: rest ->
      let acc = Bitset.copy t.up.(e) in
      List.iter (fun x -> Bitset.inter_into acc t.up.(x)) rest;
      Bitset.to_list acc

(* In a finite order a set's unique minimal element is its least one: the
   member whose up-set holds the whole set. *)
let lub_opt t a b =
  let ubs = Bitset.inter t.up.(a) t.up.(b) in
  Bitset.fold
    (fun x least ->
      if least = None && Bitset.subset ubs t.up.(x) then Some x else least)
    ubs None

let strict_below t e =
  List.filter (fun x -> x <> e) (Bitset.to_list t.down.(e))

let height t = t.height
let pp_elt t ppf e = Format.pp_print_string ppf t.names.(e)

let is_partial_lattice t =
  let n = cardinal t in
  let ok = ref true in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      let ubs = Bitset.inter t.up.(a) t.up.(b) in
      if (not (Bitset.is_empty ubs)) && lub_opt t a b = None then ok := false
    done
  done;
  !ok
