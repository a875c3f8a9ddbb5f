type elt = int

type t = {
  names : string array;
  index : (string, int) Hashtbl.t;
  up : Bitset.t array;
  down : Bitset.t array;
  covers_lo : int list array;
  covers_hi : int list array;
  height : int;
  depth : int array;
  topological : int array;
}

type error = Empty | Duplicate_name of string | Unknown_name of string | Cyclic_order

let pp_error ppf = function
  | Empty -> Format.fprintf ppf "poset has no elements"
  | Duplicate_name n -> Format.fprintf ppf "duplicate element name %S" n
  | Unknown_name n -> Format.fprintf ppf "order pair mentions unknown element %S" n
  | Cyclic_order -> Format.fprintf ppf "order relation is cyclic"

exception Err of error

(* One pass: a Kahn sort of the pairs, one sweep down that order that
   closes each up-set over its successors' and reads the covers off the
   closed sets, and one sweep up it over the covers for the down-sets and
   the height.  The transitive reduction of an acyclic relation is read
   off its closure (Aho, Garey & Ullman 1972). *)
let create ~names ~order =
  try
    if names = [] then raise (Err Empty);
    let names, index =
      match Name_index.create names with
      | Ok ni -> ni
      | Error nm -> raise (Err (Duplicate_name nm))
    in
    let n = Array.length names in
    let id x =
      match Hashtbl.find_opt index x with
      | Some i -> i
      | None -> raise (Err (Unknown_name x))
    in
    (* Every pair is resolved before any cycle is looked for; within a
       pair the high name is looked up first, so a pair naming two
       unknown elements reports its high one. *)
    let succ = Array.make n [] in
    List.iter
      (fun (lo, hi) ->
        let hi = id hi in
        let lo = id lo in
        if lo <> hi then succ.(lo) <- hi :: succ.(lo))
      order;
    let succ = Array.map (List.sort_uniq Int.compare) succ in
    (* Kahn, taking the smallest declared position among the ready. *)
    let indeg = Array.make n 0 in
    Array.iter (List.iter (fun j -> indeg.(j) <- indeg.(j) + 1)) succ;
    let ready = Bitset.create n in
    Array.iteri (fun i d -> if d = 0 then Bitset.set ready i) indeg;
    let topological = Array.make n 0 in
    let rec sort k =
      match Bitset.min_elt ready with
      | None -> if k < n then raise (Err Cyclic_order)
      | Some i ->
          Bitset.clear ready i;
          topological.(k) <- i;
          List.iter
            (fun j ->
              indeg.(j) <- indeg.(j) - 1;
              if indeg.(j) = 0 then Bitset.set ready j)
            succ.(i);
          sort (k + 1)
    in
    sort 0;
    (* From the top down, so every successor's up-set is closed: a
       successor is a cover iff no other successor reaches it. *)
    let up = Array.init n (fun _ -> Bitset.create n) in
    let covers_hi = Array.make n [] in
    for k = n - 1 downto 0 do
      let i = topological.(k) in
      Bitset.set up.(i) i;
      List.iter (fun j -> Bitset.union_into up.(i) up.(j)) succ.(i);
      let cover j =
        List.for_all (fun m -> m = j || not (Bitset.mem up.(m) j)) succ.(i)
      in
      covers_hi.(i) <- List.filter cover succ.(i)
    done;
    let covers_lo = Array.make n [] in
    for i = n - 1 downto 0 do
      List.iter (fun j -> covers_lo.(j) <- i :: covers_lo.(j)) covers_hi.(i)
    done;
    (* From the bottom up over the covers: the down-sets, and [depth.(i)],
       the longest chain of covers below [i]. *)
    let down = Array.init n (fun _ -> Bitset.create n) in
    let depth = Array.make n 0 in
    Array.iter
      (fun i ->
        Bitset.set down.(i) i;
        List.iter
          (fun c ->
            Bitset.union_into down.(i) down.(c);
            depth.(i) <- max depth.(i) (depth.(c) + 1))
          covers_lo.(i))
      topological;
    Ok
      {
        names;
        index;
        up;
        down;
        covers_lo;
        covers_hi;
        height = Array.fold_left max 0 depth;
        depth;
        topological;
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
  List.concat_map (fun lo -> List.map (fun hi -> (lo, hi)) t.covers_hi.(lo)) (all t)

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
