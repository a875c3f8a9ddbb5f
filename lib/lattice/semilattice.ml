type t = {
  lattice : Explicit.t;
  dummy_top : Explicit.level option;
  dummy_bottom : Explicit.level option;
}

let dummy_top_name = "__top__"
let dummy_bottom_name = "__bot__"

(* The dummies go above the order's maximal levels and below its minimal
   ones.  An input that is not even a partial order gets none, so that
   [Explicit.create] reports what is wrong with it as written. *)
let complete ~names ~order =
  let maximal, minimal =
    match Poset.create ~names ~order with
    | Ok p ->
        let named = List.map (Poset.name p) in
        (named (Poset.maximal_elements p), named (Poset.minimal_elements p))
    | Error _ -> ([], [])
  in
  let need_top = List.compare_length_with maximal 1 > 0 in
  let need_bottom = List.compare_length_with minimal 1 > 0 in
  let names' =
    (if need_bottom then [ dummy_bottom_name ] else [])
    @ names
    @ (if need_top then [ dummy_top_name ] else [])
  in
  let order' =
    order
    @ (if need_top then List.map (fun m -> (m, dummy_top_name)) maximal else [])
    @
    if need_bottom then List.map (fun m -> (dummy_bottom_name, m)) minimal
    else []
  in
  match Explicit.create ~names:names' ~order:order' with
  | Error _ as e -> e
  | Ok lattice ->
      let find need n = if need then Explicit.of_name lattice n else None in
      Ok
        {
          lattice;
          dummy_top = find need_top dummy_top_name;
          dummy_bottom = find need_bottom dummy_bottom_name;
        }

let complete_exn ~names ~order =
  match complete ~names ~order with
  | Ok t -> t
  | Error e ->
      invalid_arg (Format.asprintf "Semilattice.complete: %a" Explicit.pp_error e)

let is_dummy t l = Some l = t.dummy_top || Some l = t.dummy_bottom
