type 'lvl rhs = Rlevel of 'lvl | Rattr of int
type 'lvl cst = { lhs : int array; rhs : 'lvl rhs }

type csr = { off : int array; tgt : int array }

module Names = Hashtbl.Make (String)

type 'lvl t = {
  attr_names : string array;
  attr_index : int Names.t;
  csts : 'lvl cst array;
  complex_idx : int array;
  n_complex : int;
  constr_of : csr;
  complex_constr_of : csr;
  incoming : csr;
  dropped : 'lvl Cst.t list;
}

type error = Cst_error of Cst.error | Undeclared_attr of string

let pp_error ppf = function
  | Cst_error e -> Cst.pp_error ppf e
  | Undeclared_attr a ->
      Format.fprintf ppf "constraint mentions undeclared attribute %S" a

exception Err of error

(* [csr n each] — the CSR index over [n] rows of the (row, target) pairs
   [each f] enumerates (it calls [f row target] once per pair, the same
   sequence on both of the two calls).  Row [r] lists its targets in
   enumeration order.  Counts go to [off.(r+1)], prefix sums turn them
   into row ends, the fill advances [off.(r)] as each row's cursor, and a
   final shift restores the row starts: no scratch array. *)
let csr n each =
  let off = Array.make (n + 1) 0 in
  each (fun r _ -> off.(r + 1) <- off.(r + 1) + 1);
  for r = 1 to n do
    off.(r) <- off.(r) + off.(r - 1)
  done;
  let tgt = Array.make off.(n) 0 in
  each (fun r x ->
      tgt.(off.(r)) <- x;
      off.(r) <- off.(r) + 1);
  for r = n downto 1 do
    off.(r) <- off.(r - 1)
  done;
  off.(0) <- 0;
  { off; tgt }

let csr_iter c r f =
  for i = c.off.(r) to c.off.(r + 1) - 1 do
    f c.tgt.(i)
  done

(* Sort a compiled lhs in place.  [Array.sort] allocates its helper
   closures on every call, so the short lhs that make up nearly every
   policy are sorted by insertion, which allocates nothing. *)
let sort_lhs a =
  let k = Array.length a in
  if k > 8 then Array.sort Int.compare a
  else
    for i = 1 to k - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

let rec ascending a i = i >= Array.length a || (a.(i - 1) < a.(i) && ascending a (i + 1))

let sorted_lhs written =
  if ascending written 1 then written
  else begin
    let lhs = Array.copy written in
    sort_lhs lhs;
    lhs
  end

let rec fill intern lhs i = function
  | [] -> ()
  | a :: rest ->
      lhs.(i) <- intern a;
      fill intern lhs (i + 1) rest

(* A kept constraint's row: [intern]ed lhs, sorted, and rhs. *)
let row ~intern (c : _ Cst.t) =
  let lhs = Array.make (List.length c.lhs) 0 in
  fill intern lhs 0 c.lhs;
  sort_lhs lhs;
  { lhs; rhs = (match c.rhs with Cst.Level l -> Rlevel l | Cst.Attr a -> Rattr (intern a)) }

(* The indexing half of [compile]: a dense numbering of the complex
   constraints (the solver keeps one incremental lhs-lub aggregate and
   one unlabeled count per *complex* constraint, indexed by
   [complex_idx], -1 for simple ones), and the three CSR indexes, which
   enumerate constraints in ascending index, so every row is
   ascending. *)
let build ~dropped ~attr_names ~attr_index csts =
  let n = Array.length attr_names and m = Array.length csts in
  let complex_idx = Array.make m (-1) in
  let n_complex = ref 0 in
  for ci = 0 to m - 1 do
    if Array.length csts.(ci).lhs > 1 then begin
      complex_idx.(ci) <- !n_complex;
      incr n_complex
    end
  done;
  let each_lhs only_complex f =
    for ci = 0 to m - 1 do
      let k = complex_idx.(ci) in
      if k >= 0 || not only_complex then begin
        let lhs = csts.(ci).lhs in
        let x = if only_complex then k else ci in
        for i = 0 to Array.length lhs - 1 do
          f lhs.(i) x
        done
      end
    done
  in
  let each_rhs f =
    for ci = 0 to m - 1 do
      match csts.(ci).rhs with Rattr b -> f b ci | Rlevel _ -> ()
    done
  in
  {
    attr_names;
    attr_index;
    csts;
    complex_idx;
    n_complex = !n_complex;
    constr_of = csr n (each_lhs false);
    complex_constr_of = csr n (each_lhs true);
    incoming = csr n each_rhs;
    dropped;
  }

let of_rows ~attr_names ~attr_index csts =
  Minup_obs.Trace.with_span ~cat:"constraints" "problem.of_rows" @@ fun () ->
  build ~dropped:[] ~attr_names ~attr_index csts

let compile ?(attrs = []) ?(strict = false) source =
  Minup_obs.Trace.with_span ~cat:"constraints" "problem.compile" @@ fun () ->
  try
    let index = Names.create (List.length attrs) and next = ref 0 in
    let declare a =
      Names.add index a !next;
      incr next
    in
    List.iter (fun a -> if not (Names.mem index a) then declare a) attrs;
    (* [find] rather than [find_opt]: no [Some] box per lookup. *)
    let intern a =
      match Names.find index a with
      | i -> i
      | exception Not_found ->
          if strict then raise (Err (Undeclared_attr a));
          declare a;
          !next - 1
    in
    (* Trivially satisfied constraints (rhs ∈ lhs) are dropped, §3.  The
       kept ones are counted first, then written in place in input order. *)
    let dropped = List.filter Cst.is_trivial source in
    let m = List.length source - List.length dropped in
    let csts = Array.make m { lhs = [||]; rhs = Rattr 0 } and ci = ref 0 in
    List.iter
      (fun (c : _ Cst.t) ->
        if not (Cst.is_trivial c) then begin
          csts.(!ci) <- row ~intern c;
          incr ci
        end)
      source;
    (* Intern attributes of dropped constraints too: they are part of the
       universe and must still receive a (default ⊥) classification. *)
    List.iter (fun (c : _ Cst.t) -> List.iter (fun a -> ignore (intern a)) c.lhs) dropped;
    let attr_names = Array.make !next "" in
    Names.iter (fun a i -> attr_names.(i) <- a) index;
    Ok (build ~dropped ~attr_names ~attr_index:index csts)
  with Err e -> Error e

let compile_exn ?attrs ?strict csts =
  match compile ?attrs ?strict csts with
  | Ok p -> p
  | Error e -> invalid_arg (Format.asprintf "Problem.compile: %a" pp_error e)

let n_attrs p = Array.length p.attr_names
let n_csts p = Array.length p.csts
let iter_constr_of p a f = csr_iter p.constr_of a f
let iter_incoming p a f = csr_iter p.incoming a f

let total_size p =
  Array.fold_left (fun acc c -> acc + Array.length c.lhs + 1) 0 p.csts

let attr_name p a = p.attr_names.(a)
(* A session shares one growing index among the problems it builds, so
   a name interned after [p] was built has an id beyond [p]'s universe. *)
let attr_id p a =
  match Names.find p.attr_index a with
  | i when i < Array.length p.attr_names -> Some i
  | _ | (exception Not_found) -> None

let attr_id_exn p a =
  match attr_id p a with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Problem.attr_id_exn: unknown attribute %S" a)

let cst_to_source p c =
  Cst.make_exn
    ~lhs:(Array.to_list (Array.map (attr_name p) c.lhs))
    ~rhs:
      (match c.rhs with
      | Rlevel l -> Cst.Level l
      | Rattr a -> Cst.Attr (attr_name p a))

let set_rlevel p ci l =
  if ci < 0 || ci >= Array.length p.csts then
    invalid_arg "Problem.set_rlevel: constraint index out of range";
  match p.csts.(ci) with
  | { lhs; rhs = Rlevel _ } -> p.csts.(ci) <- { lhs; rhs = Rlevel l }
  | { rhs = Rattr _; _ } -> invalid_arg "Problem.set_rlevel: rhs is an attribute"

let is_acyclic p =
  let n = n_attrs p in
  (* colors: 0 unvisited, 1 on stack, 2 done *)
  let color = Array.make n 0 in
  let cyclic = ref false in
  let rec visit a =
    if color.(a) = 1 then cyclic := true
    else if color.(a) = 0 then begin
      color.(a) <- 1;
      iter_constr_of p a (fun ci ->
          match p.csts.(ci).rhs with Rattr b -> visit b | Rlevel _ -> ());
      color.(a) <- 2
    end
  in
  for a = 0 to n - 1 do
    if not !cyclic then visit a
  done;
  not !cyclic

let satisfies ~leq ~lub ~bottom p assignment =
  Array.for_all
    (fun c ->
      let combined =
        Array.fold_left (fun acc a -> lub acc (assignment a)) bottom c.lhs
      in
      let target =
        match c.rhs with Rlevel l -> l | Rattr a -> assignment a
      in
      leq target combined)
    p.csts

let pp pp_level ppf p =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun c -> Format.fprintf ppf "%a@," (Cst.pp pp_level) (cst_to_source p c))
    p.csts;
  Format.fprintf ppf "@]"
