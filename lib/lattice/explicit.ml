type level = int

(* One bound operation over the order: lub searches the up-sets from the
   bottom, glb the down-sets from the top. *)
type op = {
  sets : Bitset.t array; (* the order's up-sets (lub) or down-sets (glb) *)
  from_top : bool;
  table : int array; (* flat n*n for small lattices, else empty *)
  memo : int array; (* direct-mapped cache for the table-less case *)
}

type t = {
  order : Poset.t; (* its elements are the levels, numbered topologically *)
  joins : op;
  meets : op;
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

let of_poset_error : Poset.error -> error = function
  | Poset.Empty -> Empty
  | Poset.Duplicate_name n -> Duplicate_name n
  | Poset.Unknown_name n -> Unknown_name n
  | Poset.Cyclic_order -> Cyclic_order

(* lub (glb) of a and b: the first common bound from the bottom (top) is a
   minimal (maximal) one, because ids are topological; it is the answer iff
   every common bound lies beyond it.  Otherwise the witness is the first
   common bound, ascending, that does not. *)
let search order op a b =
  let s = Bitset.inter op.sets.(a) op.sets.(b) in
  match if op.from_top then Bitset.max_elt s else Bitset.min_elt s with
  | Some m when Bitset.subset s op.sets.(m) -> m
  | found ->
      let name = Poset.name order in
      raise
        (Err
           (match found with
           | None when op.from_top -> No_lower_bound (name a, name b)
           | None -> No_upper_bound (name a, name b)
           | Some m ->
               let m2 = Option.get (Bitset.min_elt (Bitset.diff s op.sets.(m))) in
               if op.from_top then
                 No_greatest_lower_bound (name a, name b, name m, name m2)
               else No_least_upper_bound (name a, name b, name m, name m2)))

(* The table path is kept apart from the memo's so that [lookup] stays
   small enough to inline into [lub] and [glb]. *)
let memo_lookup order op a b =
  let n = Array.length op.sets in
  let key = if a <= b then (a * n) + b else (b * n) + a in
  let slot = op.memo.(key land memo_mask) in
  if slot <> 0 && (slot - 1) / n = key then (slot - 1) mod n
  else begin
    let v = search order op a b in
    op.memo.(key land memo_mask) <- (key * n) + v + 1;
    v
  end

let[@inline] lookup order op a b =
  if Array.length op.table > 0 then op.table.((a * Array.length op.sets) + b)
  else memo_lookup order op a b

(* Level ids must be topological for [search].  The poset's Kahn order
   (smallest declared position first) leaves a linear extension as it is,
   so when it is the identity the poset is numbered so; otherwise it is
   built once more over its names in that order. *)
let topological (p : Poset.t) =
  let ids = p.topological in
  let rec identity i = i = Array.length ids || (ids.(i) = i && identity (i + 1)) in
  if identity 0 then p
  else
    let name = Poset.name p in
    Poset.create_exn
      ~names:(List.map name (Array.to_list ids))
      ~order:(List.map (fun (lo, hi) -> (name lo, name hi)) (Poset.cover_pairs p))

let create ~names ~order =
  match Poset.create ~names ~order with
  | Error e -> Error (of_poset_error e)
  | Ok p -> (
      let p = topological p in
      let n = Poset.cardinal p in
      (* Validate lattice-hood by computing every lub and glb; only a small
         lattice keeps them, so a large one allocates no n² table. *)
      let keep_tables = n <= table_threshold in
      let op sets from_top =
        {
          sets;
          from_top;
          table = (if keep_tables then Array.make (n * n) 0 else [||]);
          memo = (if keep_tables then [||] else Array.make memo_size 0);
        }
      in
      let joins = op p.up false and meets = op p.down true in
      let fill op a b v =
        if keep_tables then begin
          op.table.((a * n) + b) <- v;
          op.table.((b * n) + a) <- v
        end
      in
      try
        for a = 0 to n - 1 do
          for b = a to n - 1 do
            fill joins a b (search p joins a b);
            fill meets a b (search p meets a b)
          done
        done;
        Ok { order = p; joins; meets }
      with Err e -> Error e)

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

let poset t = t.order
let cardinal t = Array.length t.order.names
let all t = Poset.all t.order
let of_name t s = Hashtbl.find_opt t.order.index s

let of_name_exn t s =
  match of_name t s with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Explicit.of_name_exn: unknown level %S" s)

let name t l = t.order.names.(l)
let cover_pairs t = Poset.cover_pairs t.order
let equal _ (a : level) b = a = b
let compare_level _ = Int.compare
let leq t a b = Bitset.mem t.order.up.(a) b
let lub t a b = lookup t.order t.joins a b
let glb t a b = lookup t.order t.meets a b
let top t = cardinal t - 1
let bottom _ = 0

(* O(1): the poset precomputes each level's immediate predecessors, so the
   solver's cover-descent loop never recomputes the Hasse diagram. *)
let covers_below t l = t.order.covers_lo.(l)
let height t = t.order.height
let levels t = Seq.init (cardinal t) Fun.id
let size t = Some (cardinal t)
let pp_level t ppf l = Format.pp_print_string ppf (name t l)
let level_to_string = name
let level_of_string = of_name
