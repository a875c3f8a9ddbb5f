open Minup_lattice

type cst =
  | Geq_elt of string * Poset.elt
  | Leq_elt of string * Poset.elt
  | Geq_attr of string * string
  | Lub_geq of string list * string

type ccst =
  | CGeq_attr of int * int
  | CLub_geq of int array * int

type problem = {
  poset : Poset.t;
  attr_names : string array;
  attr_index : (string, int) Hashtbl.t;
  domains : Poset.elt list array;
      (* per attribute: elements compatible with its unary constraints,
         in ascending [Poset] depth (low elements tried first) *)
  csts : ccst array;
  csts_of : int list array; (* constraint indices touching each attribute *)
}

type error = Unknown_attr of string | Empty_lub

let pp_error ppf = function
  | Unknown_attr a -> Format.fprintf ppf "unknown attribute %S" a
  | Empty_lub -> Format.fprintf ppf "lub constraint with empty left-hand side"

exception Err of error

let compile poset attrs csts =
  try
    let attr_names = Array.of_list attrs in
    let n = Array.length attr_names in
    let attr_index = Hashtbl.create n in
    Array.iteri (fun i a -> Hashtbl.add attr_index a i) attr_names;
    let id a =
      match Hashtbl.find_opt attr_index a with
      | Some i -> i
      | None -> raise (Err (Unknown_attr a))
    in
    (* Split unary constraints into per-attribute domain filters. *)
    let lower = Array.make n [] and upper = Array.make n [] in
    let compiled =
      List.filter_map
        (fun c ->
          match c with
          | Geq_elt (a, l) ->
              lower.(id a) <- l :: lower.(id a);
              None
          | Leq_elt (a, l) ->
              upper.(id a) <- l :: upper.(id a);
              None
          | Geq_attr (a, a') -> Some (CGeq_attr (id a, id a'))
          | Lub_geq ([], _) -> raise (Err Empty_lub)
          | Lub_geq (lhs, a) ->
              Some (CLub_geq (Array.of_list (List.map id lhs), id a)))
        csts
    in
    let depth = poset.Poset.depth in
    let domains =
      Array.init n (fun a ->
          Poset.all poset
          |> List.filter (fun e ->
                 List.for_all (fun l -> Poset.leq poset l e) lower.(a)
                 && List.for_all (fun l -> Poset.leq poset e l) upper.(a))
          |> List.stable_sort (fun e1 e2 -> Int.compare depth.(e1) depth.(e2)))
    in
    let csts = Array.of_list compiled in
    (* Arc consistency over the binary order constraints: for [a ⊒ b],
       an element is feasible for [a] only if it dominates some feasible
       element of [b], and dually.  Iterate to a fixpoint; this keeps the
       backtracking search on reduction instances tractable without
       affecting the solution set. *)
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (function
          | CGeq_attr (a, b) ->
              let da = domains.(a) and db = domains.(b) in
              let da' =
                List.filter
                  (fun ea -> List.exists (fun eb -> Poset.leq poset eb ea) db)
                  da
              in
              let db' =
                List.filter
                  (fun eb -> List.exists (fun ea -> Poset.leq poset eb ea) da)
                  db
              in
              if List.length da' <> List.length da then begin
                domains.(a) <- da';
                changed := true
              end;
              if List.length db' <> List.length db then begin
                domains.(b) <- db';
                changed := true
              end
          | CLub_geq _ -> ())
        csts
    done;
    let csts_of = Array.make n [] in
    Array.iteri
      (fun ci c ->
        let touch a = csts_of.(a) <- ci :: csts_of.(a) in
        match c with
        | CGeq_attr (a, b) ->
            touch a;
            touch b
        | CLub_geq (lhs, b) ->
            Array.iter touch lhs;
            touch b)
      csts;
    Ok { poset; attr_names; attr_index; domains; csts; csts_of }
  with Err e -> Error e

let compile_exn poset attrs csts =
  match compile poset attrs csts with
  | Ok p -> p
  | Error e -> invalid_arg (Format.asprintf "Minposet.compile: %a" pp_error e)

let n_attrs p = Array.length p.attr_names
let attr_name p a = p.attr_names.(a)

let attr_id_exn p a =
  match Hashtbl.find_opt p.attr_index a with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Minposet.attr_id_exn: unknown %S" a)

(* Lub_geq semantics: common upper bounds exist and all dominate λ(A). *)
let lub_geq_holds poset lhs_elts target =
  match Poset.upper_bounds poset lhs_elts with
  | [] -> false
  | ubs -> List.for_all (fun u -> Poset.leq poset target u) ubs

let cst_holds p assignment = function
  | CGeq_attr (a, b) -> Poset.leq p.poset assignment.(b) assignment.(a)
  | CLub_geq (lhs, b) ->
      lub_geq_holds p.poset
        (Array.to_list (Array.map (fun a -> assignment.(a)) lhs))
        assignment.(b)

let satisfies p assignment =
  Array.for_all (cst_holds p assignment) p.csts
  && Array.for_all2
       (fun dom e -> List.mem e dom)
       p.domains
       (Array.map Fun.id assignment)

(* Check only constraints all of whose attributes are assigned. *)
let cst_checkable assigned = function
  | CGeq_attr (a, b) -> assigned.(a) && assigned.(b)
  | CLub_geq (lhs, b) -> assigned.(b) && Array.for_all (fun a -> assigned.(a)) lhs

let satisfiable_count p =
  let n = n_attrs p in
  let assignment = Array.make n (-1) in
  let assigned = Array.make n false in
  let decisions = ref 0 in
  (* Smallest domains first: fail early on the most constrained attributes. *)
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b -> compare (List.length p.domains.(a)) (List.length p.domains.(b)))
    order;
  let rec go i =
    if i = n then true
    else begin
      let a = order.(i) in
      let rec try_values = function
        | [] -> false
        | e :: rest ->
            incr decisions;
            assignment.(a) <- e;
            assigned.(a) <- true;
            let ok =
              List.for_all
                (fun ci ->
                  let c = p.csts.(ci) in
                  (not (cst_checkable assigned c)) || cst_holds p assignment c)
                p.csts_of.(a)
            in
            if ok && go (i + 1) then true
            else begin
              assigned.(a) <- false;
              try_values rest
            end
      in
      try_values p.domains.(a)
    end
  in
  if go 0 then (Some (Array.copy assignment), !decisions) else (None, !decisions)

let satisfiable p = fst (satisfiable_count p)

let minimize p assignment =
  let a = Array.copy assignment in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i e ->
        let lower_candidates =
          List.filter
            (fun e' -> e' <> e && Poset.leq p.poset e' e)
            p.domains.(i)
        in
        match
          List.find_opt
            (fun e' ->
              a.(i) <- e';
              let ok = Array.for_all (cst_holds p a) p.csts in
              a.(i) <- e;
              ok)
            lower_candidates
        with
        | Some e' ->
            a.(i) <- e';
            changed := true
        | None -> ())
      (Array.copy a)
  done;
  a

let all_solutions ?(cap = 2_000_000) p =
  let n = n_attrs p in
  let space =
    Array.fold_left
      (fun acc d ->
        match acc with
        | None -> None
        | Some s ->
            let k = List.length d in
            if k = 0 then Some 0 else if s > cap / k then None else Some (s * k))
      (Some 1) p.domains
  in
  match space with
  | None -> Error `Too_large
  | Some _ ->
      let out = ref [] in
      let assignment = Array.make n (-1) in
      let rec go a =
        if a = n then begin
          if Array.for_all (cst_holds p assignment) p.csts then
            out := Array.copy assignment :: !out
        end
        else
          List.iter
            (fun e ->
              assignment.(a) <- e;
              go (a + 1))
            p.domains.(a)
      in
      go 0;
      Ok (List.rev !out)

let minimal_solutions ?cap p =
  match all_solutions ?cap p with
  | Error _ as e -> e
  | Ok sols ->
      let dominates x y =
        Array.for_all2 (fun xi yi -> Poset.leq p.poset yi xi) x y
      in
      Ok
        (List.filter
           (fun s ->
             not (List.exists (fun s' -> dominates s s' && s' <> s) sols))
           sols)
