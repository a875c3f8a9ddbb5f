type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

exception Err of string

let fail fmt = Format.kasprintf (fun s -> raise (Err s)) fmt

(* Every byte's class, one character per byte value: ['i'] for an
   identifier byte, ['s'] for a space, ['n'] for the newline, ['c'] for
   the [#] that starts a comment, the byte itself for [{ } , > <], and
   ['x'] for any other.  The scanner reads a class with two unchecked
   loads, at an index it has checked against the text's length. *)
let classes =
  String.init 256 (fun b ->
      match Char.chr b with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> 'i'
      | ' ' | '\012' | '\r' | '\t' -> 's'
      | '\n' -> 'n'
      | '#' -> 'c'
      | ('{' | '}' | ',' | '>' | '<') as c -> c
      | _ -> 'x')

let cls t i = String.unsafe_get classes (Char.code (String.unsafe_get t i))
let is_ident_char c = String.unsafe_get classes (Char.code c) = 'i'
let is_space c = c = '\n' || String.unsafe_get classes (Char.code c) = 's'

let is_ident name = name <> "" && String.for_all is_ident_char name

let grow a fill =
  let b = Array.make (max 16 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* A growable int array; [uppers] holds triples. *)
type ints = { mutable a : int array; mutable len : int }

let ints cap = { a = Array.make (max 4 cap) 0; len = 0 }

let push v x =
  if v.len = Array.length v.a then v.a <- grow v.a 0;
  v.a.(v.len) <- x;
  v.len <- v.len + 1

let push3 v a b c = push v a; push v b; push v c
let field v k j = v.a.((3 * k) + j)

(* What one scan records: each distinct name once, as its id in
   [names], and each line's content as ids in flat arrays. *)
type scan = {
  text : string;
  names : Problem.Names.t;
  decls : ints;  (** declared ids, repeats kept *)
  ends : ints;
      (** [>=] line [k]'s members end at [ends.(k + 1)] in [lhs], after a
          first entry 0: the lines' compressed-row offsets *)
  lhs : ints;  (** the [>=] lines' lhs member ids, line after line *)
  rhs_ids : ints;  (** per [>=] line: its right-hand side's id *)
  linenos : ints;  (** per [>=] line: its line in the text *)
  uppers : ints;  (** per [<=] line: line, attribute id, rhs id *)
  mutable seen : int array;  (** id -> the last line whose lhs set listed it *)
  mutable repeat : int;  (** the first [>=] line, by index, whose lhs repeats a member; -1 *)
  mutable h : int;  (** the hash of the last run read *)
  mutable last : int;  (** the end of the last right-hand side, trimmed *)
}

(* [Problem.Names]' FNV-1a, folded byte by byte as the scanner reads. *)
let basis = 0x811c9dc5
let fnv h t i = (h lxor Char.code (String.unsafe_get t i)) * 0x100000001b3

(* The scanner's steps over [t], of length [n], are top-level functions
   of explicit arguments, so a line allocates no closure.  Each returns
   where the next line starts: past the newline, or [n + 1] at the end of
   the text. *)

(* The first index from [i] that is not a space, or [n]. *)
let rec skip t n i = if i < n && cls t i = 's' then skip t n (i + 1) else i

(* The end of the identifier run from [i], its hash left in [sc.h]: a
   name is validated and hashed in one pass. *)
let rec run sc t n i h =
  if i < n && cls t i = 'i' then run sc t n (i + 1) (fnv h t i)
  else begin
    sc.h <- h;
    i
  end

let rec next_line t n i =
  if i >= n then n + 1 else if String.unsafe_get t i = '\n' then i + 1 else next_line t n (i + 1)

(* The line continues at [i] with a comment, a newline or the text's end. *)
let ends t n i = i >= n || match cls t i with 'n' | 'c' -> true | _ -> false
let after t n i = if i < n && String.unsafe_get t i = '#' then next_line t n i else i + 1

(* [t] holds [>=] or [<=] at [i]. *)
let op t n i =
  i + 1 < n
  && (match String.unsafe_get t i with '>' | '<' -> true | _ -> false)
  && String.unsafe_get t (i + 1) = '='

let rec word t i w k =
  k = String.length w || (String.unsafe_get t (i + k) = w.[k] && word t i w (k + 1))

(* The line from [s] is outside the grammar: raise the error its first
   fault names, in the grammar's order.  A declaration line names its
   first bad entry.  Any other line needs a top-level operator (one
   outside braces), then a right-hand side, then a left-hand side of one
   identifier or a braced set of them.  An [<=] line left over holds a
   set.  Reached only on a bad line, so it reads the line again. *)
let reject sc s =
  let t = sc.text in
  let rec content i =
    if i < String.length t && t.[i] <> '\n' && t.[i] <> '#' then content (i + 1) else i
  in
  let c = content s in
  let a = skip t c s in
  let rec trim i e = if e > i && is_space t.[e - 1] then trim i (e - 1) else e in
  let e = trim a c in
  let starts w e = e - a >= String.length w && word t a w 0 in
  (* The number of entries of the comma-separated list in [i, e), or the
     first that is not one identifier, named up to its comma. *)
  let rec entries i e k =
    let i = skip t e i in
    if i = e then k
    else if t.[i] = ',' then entries (i + 1) e k
    else
      let j = run sc t e i basis in
      let o = skip t e j in
      if j = i || (o < e && t.[o] <> ',') then
        let rec comma m = if m < e && t.[m] <> ',' then comma (m + 1) else m in
        fail "invalid identifier %S" (String.sub t i (trim i (comma i) - i))
      else if o < e then entries (o + 1) e (k + 1)
      else k + 1
  in
  if starts "attrs" e && (e - a = 5 || t.[a + 5] = ' ' || t.[a + 5] = '\t') then
    ignore (entries (a + 5) e 0);
  let rec top i depth =
    if i + 1 >= e then fail "expected 'attrs', '... >= ...' or '... <= ...'"
    else
      match t.[i] with
      | '{' -> top (i + 1) (depth + 1)
      | '}' -> top (i + 1) (depth - 1)
      | ('>' | '<') when depth = 0 && t.[i + 1] = '=' -> i
      | _ -> top (i + 1) depth
  in
  let o = top a 0 in
  if skip t e (o + 2) = e then fail "empty right-hand side";
  let l = trim a o in
  let body = if starts "lub{" l then a + 4 else if starts "{" l then a + 1 else -1 in
  if body < 0 then begin
    if a = l then fail "empty identifier";
    if run sc t l a basis < l then fail "invalid identifier %S" (String.sub t a (l - a))
  end
  else begin
    let b = skip t l body in
    if b = l || t.[l - 1] <> '}' then fail "unterminated '{' in left-hand side";
    if entries b (l - 1) 0 = 0 then fail "empty left-hand side set"
  end;
  fail "upper-bound constraints take a single attribute"

let intern sc t i j = Problem.Names.add_slice sc.names t i j sc.h

(* The right-hand side from [i] to the content's end: [sc.h] is the
   hash up to [e], just past its last non-space byte, [he] the hash
   there.  Sets [sc.last] to [e]; returns where the content ends. *)
let rec rhs_run sc t n i h e he =
  if ends t n i then begin
    sc.h <- he;
    sc.last <- e;
    i
  end
  else
    let h = fnv h t i in
    if cls t i = 's' then rhs_run sc t n (i + 1) h e he else rhs_run sc t n (i + 1) h (i + 1) h

(* The rest of a constraint line whose operator is at [o], once its lhs
   of [k] members is pushed: the line's record, and where the next line
   starts. *)
let rhs sc lineno t n o k =
  let r = skip t n (o + 2) in
  let stop = rhs_run sc t n r basis r basis in
  let e = sc.last in
  if e = r then fail "empty right-hand side";
  let id = Problem.Names.add_slice sc.names t r e sc.h in
  if String.unsafe_get t o = '>' then begin
    push sc.ends sc.lhs.len;
    push sc.rhs_ids id;
    push sc.linenos lineno
  end
  else if k <> 1 then fail "upper-bound constraints take a single attribute"
  else begin
    sc.lhs.len <- sc.lhs.len - 1;
    push3 sc.uppers lineno sc.lhs.a.(sc.lhs.len) id
  end;
  after t n stop

(* An lhs set member: a repeat is noted, by line, for resolution to
   report after every syntax error. *)
let member sc lineno id =
  if id >= Array.length sc.seen then begin
    let seen = Array.make (Array.length (Problem.Names.names sc.names)) 0 in
    Array.blit sc.seen 0 seen 0 (Array.length sc.seen);
    sc.seen <- seen
  end;
  if sc.seen.(id) = lineno && sc.repeat < 0 then sc.repeat <- sc.rhs_ids.len;
  sc.seen.(id) <- lineno;
  push sc.lhs id

(* An lhs set's members from [i], [k] so far, up to its [}] and the
   operator after it. *)
let rec set sc lineno s t n i k =
  let i = skip t n i in
  if i >= n then reject sc s
  else
    match cls t i with
    | ',' -> set sc lineno s t n (i + 1) k
    | '}' -> close sc lineno s t n (i + 1) k
    | 'i' -> (
        let j = run sc t n i basis in
        member sc lineno (intern sc t i j);
        let o = skip t n j in
        match if o < n then String.unsafe_get t o else '\n' with
        | ',' -> set sc lineno s t n (o + 1) (k + 1)
        | '}' -> close sc lineno s t n (o + 1) (k + 1)
        | _ -> reject sc s)
    | _ -> reject sc s

and close sc lineno s t n i k =
  let o = skip t n i in
  if k > 0 && op t n o then rhs sc lineno t n o k else reject sc s

(* A declaration list from [i]: names separated by commas, empty
   entries skipped. *)
let rec decls sc s t n i =
  let i = skip t n i in
  if ends t n i then after t n i
  else if String.unsafe_get t i = ',' then decls sc s t n (i + 1)
  else if cls t i <> 'i' then reject sc s
  else begin
    let j = run sc t n i basis in
    push sc.decls (intern sc t i j);
    let o = skip t n j in
    if ends t n o then after t n o
    else if String.unsafe_get t o = ',' then decls sc s t n (o + 1)
    else reject sc s
  end

(* [attrs] ending at [j] opens a declaration line if a space or a tab
   follows, or nothing but spaces up to the content's end: [attrset >= x]
   and [attrs>=x] are constraints. *)
let attrs_line t n j =
  j >= n || (match String.unsafe_get t j with ' ' | '\t' -> true | _ -> ends t n (skip t n j))

(* The line from [s], one pass over its bytes: each identifier run is
   validated, hashed and interned as it is read, and the grammar is
   followed byte by byte; a byte it does not allow hands the line to
   [reject]. *)
let line sc lineno s =
  let t = sc.text in
  let n = String.length t in
  let i = skip t n s in
  if ends t n i then after t n i
  else
    match cls t i with
    | 'i' ->
        let j = run sc t n i basis in
        if j - i = 5 && word t i "attrs" 0 && attrs_line t n j then decls sc s t n j
        else if j - i = 3 && j < n && String.unsafe_get t j = '{' && word t i "lub" 0 then
          set sc lineno s t n (j + 1) 0
        else
          let o = skip t n j in
          if op t n o then begin
            push sc.lhs (intern sc t i j);
            rhs sc lineno t n o 1
          end
          else reject sc s
    | '{' -> set sc lineno s t n (i + 1) 0
    | _ -> reject sc s

(* The line arrays start at a size read off the text's length, about one
   line per 16 bytes; the name table and the declarations, far fewer than
   the lines, start at a third of that.  All grow as they fill.  A
   one-line policy allocates a few dozen words, an [n]-byte one O(n). *)
let scan text =
  let n = String.length text in
  let lines = (n / 16) + 1 in
  let sc =
    { text; names = Problem.Names.create (lines / 3); decls = ints (lines / 3);
      ends = ints (lines + 1); lhs = ints (2 * lines); rhs_ids = ints lines;
      linenos = ints lines; uppers = ints 3; seen = [||]; repeat = -1; h = 0; last = 0 }
  in
  push sc.ends 0;
  let rec go lineno s =
    if s > n then Ok sc
    else
      match line sc lineno s with
      | next -> go (lineno + 1) next
      | exception Err message -> Error { line = lineno; message }
  in
  go 1 0

(* [f 0 (f 1 ... (f (k-1) acc))]: lists are consed from the back. *)
let rec back f k acc = if k = 0 then acc else back f (k - 1) (f (k - 1) acc)

(* The names of the ids [v.a.(s .. e-1)], consed onto [acc]. *)
let rec names_of names v s e acc =
  if e = s then acc else names_of names v s (e - 1) (names.(v.a.(e - 1)) :: acc)

let lhs_names sc names k = names_of names sc.lhs sc.ends.a.(k) sc.ends.a.(k + 1) []

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
let universe ~level_of_string sc names ~unset ~attr ~level =
  let k = Problem.Names.length sc.names in
  let rhs = Array.make k unset and order = ints k in
  let declare id =
    if rhs.(id) == unset then begin
      rhs.(id) <- attr id order.len;
      push order id
    end
  in
  for i = 0 to sc.decls.len - 1 do declare sc.decls.a.(i) done;
  for i = 0 to sc.lhs.len - 1 do declare sc.lhs.a.(i) done;
  for k = 0 to (sc.uppers.len / 3) - 1 do declare (field sc.uppers k 1) done;
  for k = 0 to sc.rhs_ids.len - 1 do
    let id = sc.rhs_ids.a.(k) in
    if rhs.(id) == unset then
      match level_of_string names.(id) with
      | Some l -> rhs.(id) <- level l
      | None -> declare id
  done;
  (rhs, order)

(* The error of the [>=] line [k] the scan found repeating a member. *)
let repeat_error sc names k =
  match Cst.make ~lhs:(lhs_names sc names k) ~rhs:(Cst.Attr "") with
  | Error e -> { line = sc.linenos.a.(k); message = Format.asprintf "%a" Cst.pp_error e }
  | Ok _ -> invalid_arg "Parse: a repeated lhs member went unseen"

(* The [<=] lines' bounds in file order, or the first one whose bound is
   not a level. *)
let upper_bounds ~level_of_string sc names =
  let err = ref None in
  let upper k acc =
    let a = names.(field sc.uppers k 1) and raw = names.(field sc.uppers k 2) in
    match level_of_string raw with
    | Some l -> (a, l) :: acc
    | None ->
        let message = Printf.sprintf "upper bound for %S: %S is not a level of the lattice" a raw in
        err := Some { line = field sc.uppers k 0; message };
        acc
  in
  let bounds = back upper (sc.uppers.len / 3) [] in
  match !err with Some e -> Error e | None -> Ok bounds

(* The first error in file order wins: a repeated lhs member, which the
   scan noted on ids, before a bad upper bound.  Every other line's lhs
   is distinct, so its [Cst.t] is built unchecked. *)
let parse_resolve ~level_of_string text =
  match scan text with
  | Error _ as e -> e
  | Ok sc when sc.repeat >= 0 -> Error (repeat_error sc (Problem.Names.names sc.names) sc.repeat)
  | Ok sc ->
      let names = Problem.Names.names sc.names in
      let rhs, order =
        universe ~level_of_string sc names ~unset:(Cst.Attr "")
          ~attr:(fun id _ -> Cst.Attr names.(id))
          ~level:(fun l -> Cst.Level l)
      in
      (* A one-member lhs is one list per name, shared by its lines. *)
      let single = Array.make (Problem.Names.length sc.names) [] in
      let lhs k =
        let s = sc.ends.a.(k) in
        if sc.ends.a.(k + 1) - s > 1 then lhs_names sc names k
        else
          let id = sc.lhs.a.(s) in
          if single.(id) = [] then single.(id) <- [ names.(id) ];
          single.(id)
      in
      let cst k acc = Cst.of_distinct ~lhs:(lhs k) ~rhs:rhs.(sc.rhs_ids.a.(k)) :: acc in
      let csts = back cst sc.rhs_ids.len [] in
      Result.map
        (fun upper_bounds -> { attrs = names_of names order 0 order.len []; csts; upper_bounds })
        (upper_bounds ~level_of_string sc names)

type 'lvl rows = {
  attr_index : Problem.Names.t;
  lines : 'lvl Problem.lines;
  upper_bounds : (string * 'lvl) list;
}

(* [a] is among [w.(s .. i)]. *)
let rec mem (w : int array) a s i = i >= s && (w.(i) = a || mem w a s (i - 1))

(* The second emitter: scanner ids map straight to attribute ids, the
   position of each name in [order], and the scan's own table becomes
   the attribute index, renumbered in place: no name is hashed again.
   Each distinct right-hand side resolves to its code once, a level name
   to one entry of [levels], so lines with the same level share it.  The
   scan's [ends], [lhs] and [rhs_ids] arrays become the lines' [off],
   [tgt] and [rhs], the ids renumbered in place: no array per line. *)
let rows ~level_of_string text =
  Minup_obs.Trace.with_span ~cat:"constraints" "parse.rows" @@ fun () ->
  match scan text with
  | Error _ as e -> e
  | Ok sc when sc.repeat >= 0 -> Error (repeat_error sc (Problem.Names.names sc.names) sc.repeat)
  | Ok sc -> (
      let names = Problem.Names.names sc.names in
      match upper_bounds ~level_of_string sc names with
      | Error _ as e -> e
      | Ok upper_bounds ->
          let levels = ref [] and n_levels = ref 0 in
          let code_of, order =
            universe ~level_of_string sc names ~unset:min_int
              ~attr:(fun _ i -> i)
              ~level:(fun l ->
                levels := l :: !levels;
                incr n_levels;
                Problem.level_code (!n_levels - 1))
          in
          let n = order.len in
          let attr_of = Array.make (Problem.Names.length sc.names) (-1) in
          let attr_names = Array.make n "" in
          for i = 0 to n - 1 do
            let id = order.a.(i) in
            attr_of.(id) <- i;
            attr_names.(i) <- names.(id)
          done;
          let m = sc.rhs_ids.len and off = sc.ends.a and tgt = sc.lhs.a and rhs = sc.rhs_ids.a in
          for i = 0 to sc.lhs.len - 1 do
            tgt.(i) <- attr_of.(tgt.(i))
          done;
          let kept = Array.make m true in
          for k = 0 to m - 1 do
            let r = code_of.(rhs.(k)) in
            rhs.(k) <- r;
            kept.(k) <- not (Problem.rhs_is_attr r && mem tgt r off.(k) (off.(k + 1) - 1))
          done;
          Problem.Names.renumber sc.names attr_of attr_names;
          let levels = Array.of_list (List.rev !levels) in
          Ok
            {
              attr_index = sc.names;
              lines = { Problem.off; tgt; rhs; levels; kept };
              upper_bounds;
            })

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
