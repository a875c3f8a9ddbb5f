type level = int

type t = {
  names : string array; (* indexed by internal (topological) level id *)
  index : (string, int) Hashtbl.t;
  up : Bitset.t array; (* up.(i) = { j | i ⊑ j }, reflexive *)
  down : Bitset.t array;
  covers_lo : int list array; (* immediate predecessors, ascending *)
  covers_hi : int list array; (* immediate successors, ascending *)
  lub_table : int array option; (* flat n*n, present for small lattices *)
  glb_table : int array option;
  lub_memo : int array; (* direct-mapped cache for the table-less case *)
  glb_memo : int array;
  top : int;
  bottom : int;
  height : int;
}

type error =
  | Empty
  | Duplicate_name of string
  | Unknown_name of string
  | Cyclic_order
  | No_upper_bound of string * string
  | No_least_upper_bound of string * string * string * string
  | No_lower_bound of string * string
  | No_greatest_lower_bound of string * string * string * string

let pp_error ppf = function
  | Empty -> Format.fprintf ppf "lattice has no levels"
  | Duplicate_name n -> Format.fprintf ppf "duplicate level name %S" n
  | Unknown_name n -> Format.fprintf ppf "order pair mentions unknown level %S" n
  | Cyclic_order -> Format.fprintf ppf "order relation is cyclic"
  | No_upper_bound (a, b) ->
      Format.fprintf ppf "levels %S and %S have no upper bound" a b
  | No_least_upper_bound (a, b, m1, m2) ->
      Format.fprintf ppf
        "levels %S and %S have incomparable minimal upper bounds %S and %S" a b
        m1 m2
  | No_lower_bound (a, b) ->
      Format.fprintf ppf "levels %S and %S have no lower bound" a b
  | No_greatest_lower_bound (a, b, m1, m2) ->
      Format.fprintf ppf
        "levels %S and %S have incomparable maximal lower bounds %S and %S" a b
        m1 m2

(* Lattices up to this size get O(1) lub/glb lookup tables. *)
let table_threshold = 600

(* Above the threshold, lub/glb fall back to upset/downset intersections —
   O(n/word_size) per call.  A small direct-mapped memo in front of that
   path catches the heavy repetition a solver run exhibits (the same few
   level pairs are combined over and over).  Each slot packs query and
   answer into ONE immediate int, [(a*n + b) * n + result + 1] with a ≤ b
   (0 = empty), so a read either sees a complete, self-identifying entry or
   misses — concurrent unsynchronised use from several domains (the batch
   engine shares lattices across workers) can at worst lose a cached entry,
   never yield a wrong answer.  Packing needs n³ < 2^62, i.e. n < ~1.6M —
   far beyond what [create]'s O(n²) validation pass admits anyway. *)
let memo_size = 4096 (* power of two *)
let memo_mask = memo_size - 1

exception Err of error

let build_index names =
  let index = Hashtbl.create (List.length names) in
  List.iteri
    (fun i n ->
      if Hashtbl.mem index n then raise (Err (Duplicate_name n));
      Hashtbl.add index n i)
    names;
  index

(* lub of internal ids a b: minimal element of up(a) ∩ up(b), checked unique.
   Internal ids are topological, so the smallest id in the intersection is a
   minimal element; it is the lub iff the whole intersection sits above it. *)
let lub_of_upsets ~names up a b =
  let s = Bitset.inter up.(a) up.(b) in
  match Bitset.min_elt s with
  | None -> raise (Err (No_upper_bound (names.(a), names.(b))))
  | Some m ->
      if Bitset.subset s up.(m) then m
      else
        let other =
          Bitset.fold
            (fun x acc ->
              match acc with
              | Some _ -> acc
              | None -> if x <> m && not (Bitset.mem up.(m) x) then Some x else acc)
            s None
        in
        let m2 = match other with Some x -> x | None -> m in
        raise
          (Err (No_least_upper_bound (names.(a), names.(b), names.(m), names.(m2))))

let glb_of_downsets ~names down a b =
  let s = Bitset.inter down.(a) down.(b) in
  match Bitset.max_elt s with
  | None -> raise (Err (No_lower_bound (names.(a), names.(b))))
  | Some m ->
      if Bitset.subset s down.(m) then m
      else
        let other =
          Bitset.fold
            (fun x acc ->
              match acc with
              | Some _ -> acc
              | None -> if x <> m && not (Bitset.mem down.(m) x) then Some x else acc)
            s None
        in
        let m2 = match other with Some x -> x | None -> m in
        raise
          (Err
             (No_greatest_lower_bound (names.(a), names.(b), names.(m), names.(m2))))

let create ~names ~order =
  try
    if names = [] then raise (Err Empty);
    let names0 = Array.of_list names in
    let n = Array.length names0 in
    let index0 = build_index names in
    let edge (lo, hi) =
      let find x =
        match Hashtbl.find_opt index0 x with
        | Some i -> i
        | None -> raise (Err (Unknown_name x))
      in
      (find lo, find hi)
    in
    (* Reflexive pairs are trivially true statements; drop them. *)
    let edges0 =
      List.filter (fun (lo, hi) -> lo <> hi) (List.map edge order)
    in
    let topo =
      match Hasse.topological_order n edges0 with
      | l -> Array.of_list l
      | exception Invalid_argument _ -> raise (Err Cyclic_order)
    in
    (* rank.(old_id) = new (topological) id *)
    let rank = Array.make n 0 in
    Array.iteri (fun pos old_id -> rank.(old_id) <- pos) topo;
    let names = Array.init n (fun i -> names0.(topo.(i))) in
    let index = build_index (Array.to_list names) in
    let edges = List.map (fun (lo, hi) -> (rank.(lo), rank.(hi))) edges0 in
    let covers = Hasse.transitive_reduction n edges in
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
    (* Validate lattice-hood by computing every lub and glb; only a small
       lattice keeps them, so a large one allocates no n² table. *)
    let keep_tables = n <= table_threshold in
    let table () = if keep_tables then Array.make (n * n) 0 else [||] in
    let lub_tab = table () and glb_tab = table () in
    for a = 0 to n - 1 do
      for b = a to n - 1 do
        let l = lub_of_upsets ~names up a b in
        let g = glb_of_downsets ~names down a b in
        if keep_tables then begin
          lub_tab.((a * n) + b) <- l;
          lub_tab.((b * n) + a) <- l;
          glb_tab.((a * n) + b) <- g;
          glb_tab.((b * n) + a) <- g
        end
      done
    done;
    Ok
      {
        names;
        index;
        up;
        down;
        covers_lo;
        covers_hi;
        lub_table = (if keep_tables then Some lub_tab else None);
        glb_table = (if keep_tables then Some glb_tab else None);
        lub_memo = (if keep_tables then [||] else Array.make memo_size 0);
        glb_memo = (if keep_tables then [||] else Array.make memo_size 0);
        top = n - 1;
        bottom = 0;
        height = Hasse.longest_path n covers;
      }
  with Err e -> Error e

let create_exn ~names ~order =
  match create ~names ~order with
  | Ok t -> t
  | Error e -> invalid_arg (Format.asprintf "Explicit.create: %a" pp_error e)

let chain names =
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | [ _ ] | [] -> []
  in
  create_exn ~names ~order:(pairs names)

let cardinal t = Array.length t.names
let all t = List.init (cardinal t) Fun.id
let of_name t s = Hashtbl.find_opt t.index s

let of_name_exn t s =
  match of_name t s with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Explicit.of_name_exn: unknown level %S" s)

let name t l = t.names.(l)

let cover_pairs t =
  let acc = ref [] in
  for hi = cardinal t - 1 downto 0 do
    List.iter (fun lo -> acc := (lo, hi) :: !acc) (List.rev t.covers_lo.(hi))
  done;
  List.sort compare !acc

let equal _ (a : level) b = a = b
let compare_level _ = Int.compare
let leq t a b = Bitset.mem t.up.(a) b

let lub t a b =
  match t.lub_table with
  | Some tab -> tab.((a * cardinal t) + b)
  | None ->
      let n = cardinal t in
      let key = if a <= b then (a * n) + b else (b * n) + a in
      let slot = t.lub_memo.(key land memo_mask) in
      if slot <> 0 && (slot - 1) / n = key then (slot - 1) mod n
      else begin
        let v = lub_of_upsets ~names:t.names t.up a b in
        t.lub_memo.(key land memo_mask) <- (key * n) + v + 1;
        v
      end

let glb t a b =
  match t.glb_table with
  | Some tab -> tab.((a * cardinal t) + b)
  | None ->
      let n = cardinal t in
      let key = if a <= b then (a * n) + b else (b * n) + a in
      let slot = t.glb_memo.(key land memo_mask) in
      if slot <> 0 && (slot - 1) / n = key then (slot - 1) mod n
      else begin
        let v = glb_of_downsets ~names:t.names t.down a b in
        t.glb_memo.(key land memo_mask) <- (key * n) + v + 1;
        v
      end

let top t = t.top
let bottom t = t.bottom

(* Already O(1): immediate predecessors are precomputed at [create] time
   (the [covers_lo] array), so the solver's cover-descent loop never
   recomputes the Hasse diagram. *)
let covers_below t l = t.covers_lo.(l)
let height t = t.height
let levels t = Seq.init (cardinal t) Fun.id
let size t = Some (cardinal t)
let pp_level t ppf l = Format.pp_print_string ppf t.names.(l)
let level_to_string t l = t.names.(l)
let level_of_string = of_name
