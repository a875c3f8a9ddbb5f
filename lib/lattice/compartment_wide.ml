type level = { cls : int; cats : Bitset.t }

type t = {
  ladder : Total.t;
  cat_names : string array;
  cat_index : (string, int) Hashtbl.t;
}

let create ~classifications ~categories =
  match Name_index.create categories with
  | Ok (cat_names, cat_index) ->
      { ladder = Total.create classifications; cat_names; cat_index }
  | Error c ->
      invalid_arg (Printf.sprintf "Compartment_wide.create: duplicate category %S" c)

let dod ~n_categories =
  create
    ~classifications:[ "U"; "C"; "S"; "TS" ]
    ~categories:(List.init n_categories (Printf.sprintf "K%d"))

let n_classifications t = Total.cardinal t.ladder
let n_categories t = Array.length t.cat_names

let make t ~cls ~cats =
  match Total.of_name t.ladder cls with
  | None -> None
  | Some c ->
      let mask = Bitset.create (n_categories t) in
      let rec fill = function
        | [] -> Some { cls = c; cats = mask }
        | name :: rest -> (
            match Hashtbl.find_opt t.cat_index name with
            | Some i ->
                Bitset.set mask i;
                fill rest
            | None -> None)
      in
      fill cats

let make_exn t ~cls ~cats =
  match make t ~cls ~cats with
  | Some l -> l
  | None ->
      invalid_arg "Compartment_wide.make_exn: unknown classification or category"

let classification_name t l = Total.name t.ladder l.cls

let category_names t l =
  List.map (fun i -> t.cat_names.(i)) (Bitset.to_list l.cats)

let equal _ a b = a.cls = b.cls && Bitset.equal a.cats b.cats

let compare_level _ a b =
  match Int.compare a.cls b.cls with 0 -> Bitset.compare a.cats b.cats | c -> c

let leq t a b = Total.leq t.ladder a.cls b.cls && Bitset.subset a.cats b.cats
let lub _ a b = { cls = max a.cls b.cls; cats = Bitset.union a.cats b.cats }
let glb _ a b = { cls = min a.cls b.cls; cats = Bitset.inter a.cats b.cats }

let top t =
  let cats = Bitset.create (n_categories t) in
  for i = 0 to n_categories t - 1 do
    Bitset.set cats i
  done;
  { cls = Total.top t.ladder; cats }

let bottom t = { cls = 0; cats = Bitset.create (n_categories t) }

let covers_below t l =
  let lower_cls =
    List.map (fun c -> { l with cls = c }) (Total.covers_below t.ladder l.cls)
  in
  let lower_cats =
    List.map
      (fun i ->
        let cats = Bitset.copy l.cats in
        Bitset.clear cats i;
        { l with cats })
      (Bitset.to_list l.cats)
  in
  lower_cls @ lower_cats

let height t = Total.height t.ladder + n_categories t

(* Lazy enumeration: per classification, walk category subsets with a
   binary-counter increment over the bit set (works beyond 62 bits). *)
let subsets n : Bitset.t Seq.t =
  let rec increment s i =
    if i >= n then None
    else if Bitset.mem s i then begin
      Bitset.clear s i;
      increment s (i + 1)
    end
    else begin
      Bitset.set s i;
      Some s
    end
  in
  let rec from s () =
    Seq.Cons
      ( Bitset.copy s,
        fun () ->
          match increment (Bitset.copy s) 0 with
          | Some next -> from next ()
          | None -> Seq.Nil )
  in
  from (Bitset.create n)

let levels t =
  Seq.concat_map
    (fun cls -> Seq.map (fun cats -> { cls; cats }) (subsets (n_categories t)))
    (Total.levels t.ladder)

let size t =
  let k = n_categories t in
  if k >= Sys.int_size - 1 then None
  else
    let subsets = 1 lsl k in
    let n = Total.cardinal t.ladder in
    if subsets > max_int / n then None else Some (n * subsets)

let level_to_string t l =
  Printf.sprintf "%s:{%s}"
    (Total.name t.ladder l.cls)
    (String.concat "," (category_names t l))

let pp_level t ppf l = Format.pp_print_string ppf (level_to_string t l)

let level_of_string t s =
  let parse_cats body =
    let body = String.trim body in
    let n = String.length body in
    if n < 2 || body.[0] <> '{' || body.[n - 1] <> '}' then None
    else
      let inner = String.trim (String.sub body 1 (n - 2)) in
      let names =
        if inner = "" then []
        else
          inner |> String.split_on_char ',' |> List.map String.trim
          |> List.filter (fun x -> x <> "")
      in
      Some names
  in
  match String.index_opt s ':' with
  | None -> (
      match Total.of_name t.ladder (String.trim s) with
      | Some c -> Some { cls = c; cats = Bitset.create (n_categories t) }
      | None -> None)
  | Some i -> (
      let cls = String.trim (String.sub s 0 i) in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match (Total.of_name t.ladder cls, parse_cats rest) with
      | Some _, Some names -> make t ~cls ~cats:names
      | _ -> None)

let residual _t ~target ~others =
  {
    cls = (if others.cls >= target.cls then 0 else target.cls);
    cats = Bitset.diff target.cats others.cats;
  }

