type ast = {
  decls : string list;
  lowers : (int * string list * string) list;
  uppers : (int * string * string) list;
}

type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

exception Err of string

let fail fmt = Format.kasprintf (fun s -> raise (Err s)) fmt

let is_ident_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

(* The scanner walks index ranges [s, e) of the one text string and
   copies nothing but each distinct name, once.  Its helpers are top-level
   functions of explicit arguments, so a line allocates no closure.
   Trimming moves indices over [String.trim]'s whitespace. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false
let rec ltrim t s e = if s < e && is_space t.[s] then ltrim t (s + 1) e else s
let rec rtrim t s e = if e > s && is_space t.[e - 1] then rtrim t s (e - 1) else e

(* The first [c] in [s, e), or [e]. *)
let rec find t c s e = if s >= e || t.[s] = c then s else find t c (s + 1) e

(* [t.[s .. e-1]] starts with [p], whose first [i] characters matched. *)
let rec starts t s e p i =
  i = String.length p || (s + i < e && t.[s + i] = p.[i] && starts t s e p (i + 1))

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* A growable int array; [lowers] and [uppers] hold triples. *)
type ints = { mutable a : int array; mutable len : int }

let ints cap = { a = Array.make (max 4 cap) 0; len = 0 }

let push v x =
  if v.len = Array.length v.a then v.a <- grow v.a 0;
  v.a.(v.len) <- x;
  v.len <- v.len + 1

let push3 v a b c = push v a; push v b; push v c
let field v k j = v.a.((3 * k) + j)

(* What one scan records: each distinct name once, as an id, and each
   line's content as ids in flat arrays. *)
type scan = {
  text : string;
  mutable names : string array;  (** id -> the name's one shared copy *)
  mutable n_names : int;
  mutable slots : int array;  (** by name hash: id + 1, 0 if free; > 2 [n_names] *)
  decls : ints;  (** declared ids, repeats kept *)
  lowers : ints;  (** per [>=] line: line, end of its members in [lhs], rhs id *)
  lhs : ints;  (** the [>=] lines' lhs member ids, line after line *)
  uppers : ints;  (** per [<=] line: line, attribute id, rhs id *)
  mutable op : int;  (** the current line's first top-level operator, or -1 *)
  mutable h : int;  (** the hash of the last identifier run *)
}

(* The line from [i]: one pass to the end of its content — the first [#]
   or newline, or the end of the text — which it returns, recording in
   [sc.op] the first top-level [>=] or [<=] before it.  Operators inside
   braces belong to level syntax and are skipped. *)
let rec content_end sc t n i depth =
  if i >= n then i
  else
    match t.[i] with
    | '\n' | '#' -> i
    | '{' -> content_end sc t n (i + 1) (depth + 1)
    | '}' -> content_end sc t n (i + 1) (depth - 1)
    | ('>' | '<') when depth = 0 && i + 1 < n && t.[i + 1] = '=' ->
        sc.op <- i;
        rest_end t n (i + 2)
    | _ -> content_end sc t n (i + 1) depth

and rest_end t n i = if i >= n || t.[i] = '\n' || t.[i] = '#' then i else rest_end t n (i + 1)

(* FNV-1a over [t.[s .. e-1]]: a slice hashes without being copied. *)
let fnv_basis = 0x811c9dc5
let fnv h c = (h lxor Char.code c) * 0x100000001b3
let rec hash t s e h = if s = e then h else hash t (s + 1) e (fnv h t.[s])

(* [t.[s + i .. s + n - 1]] is [p.[i .. n - 1]], byte by byte.  The
   caller has checked that [p] is [n] bytes long and that the slice of
   [t] at [s] lies in [t], so the reads skip the bounds checks (one
   compare per byte of every name the scanner reads). *)
let rec same t s p i n =
  i = n || (String.unsafe_get t (s + i) = String.unsafe_get p i && same t s p (i + 1) n)

(* The slot holding the name [t.[s .. e-1]], or the free slot it goes in. *)
let rec probe slots names t s e i =
  let id = slots.(i) - 1 in
  if id < 0 || (String.length names.(id) = e - s && same t s names.(id) 0 (e - s)) then i
  else probe slots names t s e ((i + 1) land (Array.length slots - 1))

let slot slots names t s e h = probe slots names t s e (h land (Array.length slots - 1))

(* The id of the name [text.[s .. e-1]], whose hash is [h], copied out
   the first time it is seen. *)
let intern sc s e h =
  let i = slot sc.slots sc.names sc.text s e h in
  if sc.slots.(i) > 0 then sc.slots.(i) - 1
  else begin
    let id = sc.n_names in
    sc.names.(id) <- String.sub sc.text s (e - s);
    sc.n_names <- id + 1;
    sc.slots.(i) <- id + 1;
    (* Both tables double together, so [names] has room for the next id. *)
    if 2 * sc.n_names = Array.length sc.slots then begin
      let slots = Array.make (2 * Array.length sc.slots) 0 in
      for id = 0 to sc.n_names - 1 do
        let name = sc.names.(id) in
        let len = String.length name in
        slots.(slot slots sc.names name 0 len (hash name 0 len fnv_basis)) <- id + 1
      done;
      sc.slots <- slots;
      sc.names <- grow sc.names ""
    end;
    id
  end

(* [t]'s characters in [s, e) are all identifier characters. *)
let rec ident_chars t s e = s >= e || (is_ident_char t.[s] && ident_chars t (s + 1) e)

let is_ident name = name <> "" && ident_chars name 0 (String.length name)

(* The end of the run of identifier characters from [i] (at most [e]),
   their hash left in [sc.h]: a name is validated and hashed in one
   pass. *)
let rec ident_run sc t e i h =
  if i < e && is_ident_char t.[i] then ident_run sc t e (i + 1) (fnv h t.[i])
  else (sc.h <- h; i)

let ident sc s e =
  if s = e then fail "empty identifier";
  if ident_run sc sc.text e s fnv_basis < e then
    fail "invalid identifier %S" (String.sub sc.text s (e - s));
  intern sc s e sc.h

(* Push the ids of the comma-separated identifiers in [s, e) onto [v],
   skipping empty entries; [k] plus their count.  An entry is one run of
   identifier characters followed by [,] or the end of the span; anything
   else names the whole trimmed entry, up to its comma, as invalid. *)
let rec idents sc v s e k =
  let t = sc.text in
  let a = ltrim t s e in
  if a = e then k
  else if t.[a] = ',' then idents sc v (a + 1) e k
  else begin
    let b = ident_run sc t e a fnv_basis in
    let c = ltrim t b e in
    if b = a || (c < e && t.[c] <> ',') then
      fail "invalid identifier %S" (String.sub t a (rtrim t a (find t ',' a e) - a));
    push v (intern sc a b sc.h);
    if c < e then idents sc v (c + 1) e (k + 1) else k + 1
  end

(* Push a left-hand side's member ids onto [sc.lhs]; their count. *)
let lhs_ids sc s e =
  let t = sc.text in
  let s = ltrim t s e in
  let e = rtrim t s e in
  let body = if starts t s e "lub{" 0 then s + 4 else if starts t s e "{" 0 then s + 1 else -1 in
  if body < 0 then (push sc.lhs (ident sc s e); 1)
  else begin
    let s = ltrim t body e in
    if s = e || t.[e - 1] <> '}' then fail "unterminated '{' in left-hand side";
    let k = idents sc sc.lhs s (e - 1) 0 in
    if k = 0 then fail "empty left-hand side set";
    k
  end

(* The line whose content is [s, e), its operator in [sc.op]. *)
let scan_line sc lineno s e =
  let t = sc.text in
  let s = ltrim t s e in
  let e = rtrim t s e in
  (* [attrs] introduces declarations only alone or before whitespace:
     [attrset >= x] is a constraint. *)
  if s = e then ()
  else if starts t s e "attrs" 0 && (e - s = 5 || t.[s + 5] = ' ' || t.[s + 5] = '\t') then
    ignore (idents sc sc.decls (s + 5) e 0)
  else begin
    let i = sc.op in
    if i < 0 then fail "expected 'attrs', '... >= ...' or '... <= ...'";
    let r = ltrim t (i + 2) e in
    if r = e then fail "empty right-hand side";
    let k = lhs_ids sc s i in
    let rhs = intern sc r e (hash t r e fnv_basis) in
    if t.[i] = '>' then push3 sc.lowers lineno sc.lhs.len rhs
    else if k <> 1 then fail "upper-bound constraints take a single attribute"
    else (sc.lhs.len <- sc.lhs.len - 1; push3 sc.uppers lineno sc.lhs.a.(sc.lhs.len) rhs)
  end

(* Every buffer starts at a size read off the text's length, about one
   line per 16 bytes, so a one-line policy allocates a few dozen words. *)
let scan text =
  let n = String.length text in
  let lines = (n / 16) + 1 in
  let rec pow2 k = if k >= lines then k else pow2 (2 * k) in
  let sc =
    { text; names = Array.make (pow2 4) ""; n_names = 0; slots = Array.make (2 * pow2 4) 0;
      decls = ints lines; lowers = ints (3 * lines); lhs = ints (2 * lines); uppers = ints 3;
      op = -1; h = 0 }
  in
  let rec go lineno s =
    sc.op <- -1;
    let c = content_end sc text n s 0 in
    let e = if c < n && text.[c] = '#' then find text '\n' c n else c in
    match scan_line sc lineno s c with
    | () -> if e < n then go (lineno + 1) (e + 1) else Ok sc
    | exception Err message -> Error { line = lineno; message }
  in
  go 1 0

(* [f 0 (f 1 ... (f (k-1) acc))]: lists are consed from the back. *)
let rec back f k acc = if k = 0 then acc else back f (k - 1) (f (k - 1) acc)

(* The names of the ids [v.a.(s .. e-1)], consed onto [acc]. *)
let rec names sc v s e acc =
  if e = s then acc else names sc v s (e - 1) (sc.names.(v.a.(e - 1)) :: acc)
let name sc v k j = sc.names.(field v k j)

let lhs_names sc k =
  names sc sc.lhs (if k = 0 then 0 else field sc.lowers (k - 1) 1) (field sc.lowers k 1) []

let parse text =
  Result.map
    (fun sc ->
      let lower k acc = (field sc.lowers k 0, lhs_names sc k, name sc sc.lowers k 2) :: acc in
      let upper k acc = (field sc.uppers k 0, name sc sc.uppers k 1, name sc sc.uppers k 2) :: acc in
      let decls = names sc sc.decls 0 sc.decls.len [] in
      { decls; lowers = back lower (sc.lowers.len / 3) []; uppers = back upper (sc.uppers.len / 3) [] })
    (scan text)

type 'lvl resolved = {
  attrs : string list;
  csts : 'lvl Cst.t list;
  upper_bounds : (string * 'lvl) list;
}

(* Resolution reads the scan's arrays, and both emitters below share it.
   The attribute universe is the declarations, then lhs members, then
   upper-bounded names, then each [>=] right-hand side that is neither
   an attribute nor a level, in that order: [order] lists their scanner
   ids.  A name resolves once and keeps its right-hand side in [rhs],
   which is also the known flag: [attr id i] for the [i]-th attribute,
   [level l] for a level name, [unset] for neither yet. *)
let universe ~level_of_string sc ~unset ~attr ~level =
  let rhs = Array.make sc.n_names unset and order = ints sc.n_names in
  let declare id =
    if rhs.(id) == unset then begin
      rhs.(id) <- attr id order.len;
      push order id
    end
  in
  for i = 0 to sc.decls.len - 1 do declare sc.decls.a.(i) done;
  for i = 0 to sc.lhs.len - 1 do declare sc.lhs.a.(i) done;
  for k = 0 to (sc.uppers.len / 3) - 1 do declare (field sc.uppers k 1) done;
  for k = 0 to (sc.lowers.len / 3) - 1 do
    let id = field sc.lowers k 2 in
    if rhs.(id) == unset then
      match level_of_string sc.names.(id) with
      | Some l -> rhs.(id) <- level l
      | None -> declare id
  done;
  (rhs, order)

(* The error of the [>=] line [k], whose lhs [Cst.make] rejects. *)
let lower_error sc k e = { line = field sc.lowers k 0; message = Format.asprintf "%a" Cst.pp_error e }

(* The [<=] lines' bounds in file order, or the first one whose bound is
   not a level. *)
let upper_bounds ~level_of_string sc =
  let err = ref None in
  let upper k acc =
    let a = name sc sc.uppers k 1 and raw = name sc sc.uppers k 2 in
    match level_of_string raw with
    | Some l -> (a, l) :: acc
    | None ->
        let message = Printf.sprintf "upper bound for %S: %S is not a level of the lattice" a raw in
        err := Some { line = field sc.uppers k 0; message };
        acc
  in
  let bounds = back upper (sc.uppers.len / 3) [] in
  match !err with Some e -> Error e | None -> Ok bounds

(* The first error in file order wins, lowers before uppers. *)
let parse_resolve ~level_of_string text =
  match scan text with
  | Error _ as e -> e
  | Ok sc -> (
      let rhs, order =
        universe ~level_of_string sc ~unset:(Cst.Attr "")
          ~attr:(fun id _ -> Cst.Attr sc.names.(id))
          ~level:(fun l -> Cst.Level l)
      in
      let err = ref None in
      let cst k acc =
        match Cst.make ~lhs:(lhs_names sc k) ~rhs:rhs.(field sc.lowers k 2) with
        | Ok c -> c :: acc
        | Error e -> err := Some (lower_error sc k e); acc
      in
      let csts = back cst (sc.lowers.len / 3) [] in
      match !err with
      | Some e -> Error e
      | None ->
          Result.map
            (fun upper_bounds -> { attrs = names sc order 0 order.len []; csts; upper_bounds })
            (upper_bounds ~level_of_string sc))

type 'lvl rows = {
  attr_names : string array;
  attr_index : int Problem.Names.t;
  store : 'lvl Problem.store;
  dropped : 'lvl Cst.t list;
  upper_bounds : (string * 'lvl) list;
  written : int array array;
}

(* The second emitter: scanner ids map straight to attribute ids, the
   position of each name in [order], and every name is hashed once more,
   into the name index.  A [>=] line's lhs is read off [sc.lhs] in
   written order, into its [written] array and the store's next row,
   which is sorted there.  The store is sized for every line: the level
   right-hand sides exactly (a dropped line's rhs is an attribute), the
   rows and lhs ids trimmed only if a line was dropped. *)
let rows ~level_of_string text =
  Minup_obs.Trace.with_span ~cat:"constraints" "parse.rows" @@ fun () ->
  match scan text with
  | Error _ as e -> e
  | Ok sc -> (
      let unset = Problem.Rattr (-1) in
      let rhs_of, order =
        universe ~level_of_string sc ~unset
          ~attr:(fun _ i -> Problem.Rattr i)
          ~level:(fun l -> Problem.Rlevel l)
      in
      let n = order.len in
      let attr_of = Array.make sc.n_names (-1) in
      let attr_names = Array.make n "" and attr_index = Problem.Names.create n in
      for i = 0 to n - 1 do
        let id = order.a.(i) in
        attr_of.(id) <- i;
        attr_names.(i) <- sc.names.(id);
        Problem.Names.add attr_index sc.names.(id) i
      done;
      let m = sc.lowers.len / 3 in
      let n_levels = ref 0 in
      for k = 0 to m - 1 do
        match rhs_of.(field sc.lowers k 2) with
        | Problem.Rlevel _ -> incr n_levels
        | Problem.Rattr _ -> ()
      done;
      let b = Problem.builder ~rows:m ~size:sc.lhs.len ~levels:!n_levels () in
      let written = Array.make m [||] in
      let dropped = ref [] and err = ref None and k = ref 0 in
      while Option.is_none !err && !k < m do
        let k' = !k in
        let s = if k' = 0 then 0 else field sc.lowers (k' - 1) 1 in
        let w = Array.make (field sc.lowers k' 1 - s) 0 in
        for i = 0 to Array.length w - 1 do
          w.(i) <- attr_of.(sc.lhs.a.(s + i))
        done;
        Problem.add_lhs b w;
        (if Problem.lhs_repeats b then
           match Cst.make ~lhs:(lhs_names sc k') ~rhs:Cst.(Attr "") with
           | Error e -> err := Some (lower_error sc k' e)
           | Ok _ -> assert false
         else
           match rhs_of.(field sc.lowers k' 2) with
           | Problem.Rattr a when Problem.lhs_mem b a ->
               Problem.drop_row b;
               dropped := Cst.make_exn ~lhs:(lhs_names sc k') ~rhs:(Cst.Attr attr_names.(a)) :: !dropped
           | r ->
               (match r with
               | Problem.Rattr a -> Problem.close_attr b a
               | Problem.Rlevel l -> Problem.close_level b l);
               written.(k') <- w);
        incr k
      done;
      match !err with
      | Some e -> Error e
      | None ->
          Result.map
            (fun upper_bounds ->
              {
                attr_names;
                attr_index;
                store = Problem.finish b;
                dropped = List.rev !dropped;
                upper_bounds;
                written;
              })
            (upper_bounds ~level_of_string sc))

let render ~level_to_string r =
  let buf = Buffer.create 256 in
  if r.attrs <> [] then Printf.bprintf buf "attrs %s\n" (String.concat ", " r.attrs);
  List.iter
    (fun (c : _ Cst.t) ->
      let lhs = match c.Cst.lhs with [ a ] -> a | many -> "{" ^ String.concat ", " many ^ "}" in
      let rhs = match c.Cst.rhs with Cst.Attr a -> a | Cst.Level l -> level_to_string l in
      Printf.bprintf buf "%s >= %s\n" lhs rhs)
    r.csts;
  List.iter (fun (a, l) -> Printf.bprintf buf "%s <= %s\n" a (level_to_string l)) r.upper_bounds;
  Buffer.contents buf
