type 'lvl rhs = Rlevel of 'lvl | Rattr of int

type 'lvl lines = {
  off : int array;
  tgt : int array;
  rhs : int array;
  levels : 'lvl array;
  kept : bool array;
}

type csr = { off : int array; tgt : int array }

type 'lvl store = { rows : int; lhs : csr; rhs : int array; levels : 'lvl array }

(* A right-hand side code: an attribute id, or [-1 - j] for [levels.(j)]. *)
let rhs_is_attr r = r >= 0
let rhs_level_index r = -1 - r
let level_code j = -1 - j

module Names = struct
  (* Names numbered 0, 1, … in the order they are added.  [keys] lists
     them by id; [slots], a power of two, holds id + 1 at the slot a
     name's FNV-1a hash probes to (linearly), 0 in a free slot and -1 in
     one [renumber] emptied.  A full [keys] array is never written again
     (adding copies it), so it can be shared. *)
  type t = {
    mutable keys : string array;
    mutable length : int;
    mutable slots : int array;
    mutable used : int;  (* slots not free: ids and emptied ones *)
  }

  let basis = 0x811c9dc5
  let prime = 0x100000001b3

  let rec hash_from s i e h =
    if i = e then h else hash_from s (i + 1) e ((h lxor Char.code (String.unsafe_get s i)) * prime)

  let rec pow2 k n = if k >= n then k else pow2 (2 * k) n

  let create n =
    let slots = Array.make (pow2 16 ((2 * n) + 2)) 0 in
    { keys = Array.make (max 8 n) ""; length = 0; slots; used = 0 }

  let length t = t.length
  let names t = t.keys

  (* [k] is the [len] bytes of [text] at [s], compared from [i]; the
     caller has checked both lengths. *)
  let rec same k text s i len =
    i = len || (String.unsafe_get k i = String.unsafe_get text (s + i) && same k text s (i + 1) len)

  (* The slot holding the name [text.[s .. s+len-1]], or the free slot it
     goes in.  A name looked up as a whole string is most often the very
     string added: [==] settles it before the key itself is read. *)
  let rec probe slots keys text s len i =
    let v = Array.unsafe_get slots i in
    if v = 0 then i
    else if
      v > 0
      &&
      let k = Array.unsafe_get keys (v - 1) in
      (k == text && String.length text = len) || (String.length k = len && same k text s 0 len)
    then i
    else probe slots keys text s len ((i + 1) land (Array.length slots - 1))

  (* A slot from a hash: FNV-1a's low bits mix only the bytes' low bits,
     so its high half is folded in. *)
  let home h mask = (h lxor (h lsr 32)) land mask

  let slot t text s len h = probe t.slots t.keys text s len (home h (Array.length t.slots - 1))

  let rec free slots mask i = if slots.(i) = 0 then i else free slots mask ((i + 1) land mask)

  (* Double the slots and place every id again.  Names are distinct, so
     each goes in the first free slot its hash probes to; the loop makes
     no closure per id. *)
  let reslot t =
    let slots = Array.make (2 * Array.length t.slots) 0 in
    let mask = Array.length slots - 1 in
    for id = 0 to t.length - 1 do
      let k = t.keys.(id) in
      slots.(free slots mask (home (hash_from k 0 (String.length k) basis) mask)) <- id + 1
    done;
    t.slots <- slots;
    t.used <- t.length

  (* Number [name] at the free slot [i]. *)
  let insert t i name =
    let id = t.length in
    if id = Array.length t.keys then begin
      let keys = Array.make (max 8 (2 * id)) "" in
      Array.blit t.keys 0 keys 0 id;
      t.keys <- keys
    end;
    t.keys.(id) <- name;
    t.length <- id + 1;
    t.slots.(i) <- id + 1;
    t.used <- t.used + 1;
    if 2 * t.used >= Array.length t.slots then reslot t;
    id

  let id_at t i =
    let v = t.slots.(i) in
    if v > 0 then v - 1 else -1

  let whole t name =
    let len = String.length name in
    slot t name 0 len (hash_from name 0 len basis)

  let find t name = match id_at t (whole t name) with -1 -> raise Not_found | id -> id
  let find_opt t name = match id_at t (whole t name) with -1 -> None | id -> Some id

  let add t name =
    let i = whole t name in
    match id_at t i with -1 -> insert t i name | id -> id

  let add_slice t text s e h =
    let i = slot t text s (e - s) h in
    match id_at t i with -1 -> insert t i (String.sub text s (e - s)) | id -> id

  (* One pass over the slots: no name is hashed or compared. *)
  let renumber t ids names =
    let slots = t.slots in
    for i = 0 to Array.length slots - 1 do
      let v = slots.(i) in
      if v > 0 then begin
        let id = ids.(v - 1) in
        slots.(i) <- (if id >= 0 then id + 1 else -1)
      end
    done;
    t.keys <- names;
    t.length <- Array.length names
end

type 'lvl t = {
  attr_index : Names.t;
  n_attrs : int;
  store : 'lvl store;
  complex_idx : int array;
  n_complex : int;
  constr_of : csr;
  incoming : csr;
}

type error = |

let pp_error _ (e : error) = match e with _ -> .

type 'lvl room = Exact | Spare | Reuse of 'lvl t

(* The length of an array allocated for [len] entries: an eighth more,
   if [spare]. *)
let capacity ~spare len = if spare then len + (len / 8) + 16 else len

(* An int array of at least [len] entries: [old] if it is long enough,
   else a fresh one. *)
let fit ~spare old len = if Array.length old >= len then old else Array.make (capacity ~spare len) 0

(* What [room] recycles, and whether what it allocates has room. *)
let recycled = function Reuse p -> Some p | Exact | Spare -> None
let spare = function Exact -> false | Spare | Reuse _ -> true

let csr_iter c r f =
  for i = c.off.(r) to c.off.(r + 1) - 1 do
    f c.tgt.(i)
  done

(* Sort [a.(lo .. hi - 1)] in place.  [Array.sort] allocates its helper
   closures on every call, so the short lhs that make up nearly every
   policy are sorted by insertion, and a longer range only if it is out
   of order: a range already sorted allocates nothing. *)
let rec ascending a i hi = i >= hi || (a.(i - 1) <= a.(i) && ascending a (i + 1) hi)

let sort_range a lo hi =
  if hi - lo > 8 then begin
    if not (ascending a (lo + 1) hi) then begin
      let s = Array.sub a lo (hi - lo) in
      Array.sort Int.compare s;
      Array.blit s 0 a lo (hi - lo)
    end
  end
  else
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* A store being filled, row after row: row [ci] is open, its lhs ids
   written so far in [tgt.(off.(ci) .. hi - 1)]; [j] level right-hand
   sides are numbered.  [levels] is made at the first level, which is
   its filler, unless [room] lent one long enough. *)
type 'lvl builder = {
  b_off : int array;
  b_tgt : int array;
  b_rhs : int array;
  mutable b_levels : 'lvl array;
  n_levels : int;
  b_spare : bool;
  mutable ci : int;
  mutable hi : int;
  mutable j : int;
}

let builder ?(room = Exact) ~rows ~size ~levels () =
  let spare = spare room in
  let old =
    match recycled room with
    | Some p -> p.store
    | None -> { rows = 0; lhs = { off = [||]; tgt = [||] }; rhs = [||]; levels = [||] }
  in
  let b_off = fit ~spare old.lhs.off (rows + 1) in
  b_off.(0) <- 0;
  {
    b_off;
    b_tgt = fit ~spare old.lhs.tgt size;
    b_rhs = fit ~spare old.rhs rows;
    b_levels = (if Array.length old.levels >= levels then old.levels else [||]);
    n_levels = levels;
    b_spare = spare;
    ci = 0;
    hi = 0;
    j = 0;
  }

let push_lhs b a =
  b.b_tgt.(b.hi) <- a;
  b.hi <- b.hi + 1

let end_lhs b = sort_range b.b_tgt b.b_off.(b.ci) b.hi

(* Line [s .. e - 1] of [src], sorted into the open row.  A copy loop,
   since [Array.blit] is a C call per row. *)
let add_lhs b src s e =
  let tgt = b.b_tgt and hi = b.hi in
  for i = s to e - 1 do
    tgt.(hi + i - s) <- src.(i)
  done;
  b.hi <- hi + e - s;
  end_lhs b

let close b r =
  b.b_rhs.(b.ci) <- r;
  b.ci <- b.ci + 1;
  b.b_off.(b.ci) <- b.hi

let close_level b l =
  if Array.length b.b_levels = 0 then
    b.b_levels <- Array.make (capacity ~spare:b.b_spare b.n_levels) l;
  b.b_levels.(b.j) <- l;
  close b (level_code b.j);
  b.j <- b.j + 1

(* Every builder is sized for exactly the rows it gets, so an [Exact]
   store's arrays are exact. *)
let finish b =
  { rows = b.ci; lhs = { off = b.b_off; tgt = b.b_tgt }; rhs = b.b_rhs; levels = b.b_levels }

(* The indexing half of [compile]: a dense numbering of the complex
   constraints (the solver keeps one incremental lhs-lub aggregate and
   one unlabeled count per *complex* constraint, indexed by
   [complex_idx], -1 for simple ones), and the two CSR indexes.  One
   pass over the store numbers the complex rows and counts every index
   row into [off.(a + 1)]; prefix sums turn the counts into row ends;
   one more pass fills both, in ascending constraint index, each
   [off.(a)] advancing as its row's cursor, so every row is ascending;
   a final shift restores the row starts.  No closure and no scratch
   array. *)
let build ~room ~attr_index store =
  let n = Names.length attr_index and m = store.rows in
  let { off; tgt } = store.lhs and rhs = store.rhs in
  let spare = spare room in
  let empty = { off = [||]; tgt = [||] } in
  let old_idx, old_c, old_in =
    match recycled room with
    | Some p -> (p.complex_idx, p.constr_of, p.incoming)
    | None -> ([||], empty, empty)
  in
  let complex_idx = fit ~spare old_idx m in
  let c_off = fit ~spare old_c.off (n + 1) and in_off = fit ~spare old_in.off (n + 1) in
  Array.fill c_off 0 (n + 1) 0;
  Array.fill in_off 0 (n + 1) 0;
  let n_complex = ref 0 in
  for ci = 0 to m - 1 do
    let s = off.(ci) and e = off.(ci + 1) in
    if e - s > 1 then begin
      complex_idx.(ci) <- !n_complex;
      incr n_complex
    end
    else complex_idx.(ci) <- -1;
    for i = s to e - 1 do
      let r = tgt.(i) + 1 in
      c_off.(r) <- c_off.(r) + 1
    done;
    let b = rhs.(ci) in
    if rhs_is_attr b then in_off.(b + 1) <- in_off.(b + 1) + 1
  done;
  for r = 1 to n do
    c_off.(r) <- c_off.(r) + c_off.(r - 1);
    in_off.(r) <- in_off.(r) + in_off.(r - 1)
  done;
  let c_tgt = fit ~spare old_c.tgt c_off.(n) and in_tgt = fit ~spare old_in.tgt in_off.(n) in
  for ci = 0 to m - 1 do
    for i = off.(ci) to off.(ci + 1) - 1 do
      let a = tgt.(i) in
      let p = c_off.(a) in
      c_tgt.(p) <- ci;
      c_off.(a) <- p + 1
    done;
    let b = rhs.(ci) in
    if rhs_is_attr b then begin
      let p = in_off.(b) in
      in_tgt.(p) <- ci;
      in_off.(b) <- p + 1
    end
  done;
  for r = n downto 1 do
    c_off.(r) <- c_off.(r - 1);
    in_off.(r) <- in_off.(r - 1)
  done;
  c_off.(0) <- 0;
  in_off.(0) <- 0;
  {
    attr_index;
    n_attrs = n;
    store;
    complex_idx;
    n_complex = !n_complex;
    constr_of = { off = c_off; tgt = c_tgt };
    incoming = { off = in_off; tgt = in_tgt };
  }

(* The kept lines in line order, then the bound rows: one pass counts
   the rows, their lhs ids and their level right-hand sides, one fills
   the store, whose levels are numbered in row order. *)
let of_lines ?(room = Exact) ~attr_index ?count ?(bounds = ignore) lines =
  Minup_obs.Trace.with_span ~cat:"constraints" "problem.of_rows" @@ fun () ->
  let { off; tgt; rhs; levels; kept } = lines in
  let count = Option.value count ~default:(Array.length kept) in
  let m = ref 0 and size = ref 0 and n_levels = ref 0 in
  for i = 0 to count - 1 do
    if kept.(i) then begin
      incr m;
      size := !size + off.(i + 1) - off.(i);
      if not (rhs_is_attr rhs.(i)) then incr n_levels
    end
  done;
  bounds (fun _ _ -> incr m; incr size; incr n_levels);
  let b = builder ~room ~rows:!m ~size:!size ~levels:!n_levels () in
  for i = 0 to count - 1 do
    if kept.(i) then begin
      let r = rhs.(i) in
      add_lhs b tgt off.(i) off.(i + 1);
      if rhs_is_attr r then close b r else close_level b levels.(rhs_level_index r)
    end
  done;
  bounds (fun a l ->
      push_lhs b a;
      end_lhs b;
      close_level b l);
  build ~room ~attr_index (finish b)

(* {2 Editing a problem in place} *)

type 'lvl edit =
  | Insert of { src : int array; lo : int; hi : int; rhs : 'lvl rhs }
  | Bound of int * 'lvl
  | Delete of int

(* The first index in [lo, hi) of the ascending [a] whose entry is at
   least [v]. *)
let rec lower_bound a v lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if a.(mid) < v then lower_bound a v (mid + 1) hi else lower_bound a v lo mid

(* The level rows before row [r]: one past the last one's level index. *)
let rec levels_before rhs r =
  if r = 0 then 0
  else
    let c = rhs.(r - 1) in
    if rhs_is_attr c then levels_before rhs (r - 1) else rhs_level_index c + 1

(* Index row [a]'s entry [v] becomes [w]; the row stays ascending as
   long as no entry lies between them. *)
let renumber c a v w = c.tgt.(lower_bound c.tgt v c.off.(a) c.off.(a + 1)) <- w

(* [v] into each index row [src.(lo) < … < src.(hi - 1)] of [c], over [n]
   rows, at its ascending place: one pass from the end moves every entry
   after an insertion point right by the insertions before it. *)
let csr_insert c n src lo hi v =
  let { off; tgt } = c in
  let e = ref off.(n) in
  for j = hi - 1 downto lo do
    let a = src.(j) and d = j - lo + 1 in
    let p = lower_bound tgt v off.(a) off.(a + 1) in
    Array.blit tgt p tgt (p + d) (!e - p);
    tgt.(p + d - 1) <- v;
    e := p
  done;
  for j = lo to hi - 1 do
    let stop = if j + 1 < hi then src.(j + 1) else n in
    for a = src.(j) + 1 to stop do
      off.(a) <- off.(a) + (j - lo + 1)
    done
  done

(* [v] out of each index row [src.(lo) < … < src.(hi - 1)] of [c]: one
   pass from the front moves every entry after a deletion left by the
   deletions before it. *)
let csr_delete c n src lo hi v =
  let { off; tgt } = c in
  let prev = ref 0 in
  for j = lo to hi - 1 do
    let a = src.(j) in
    let p = lower_bound tgt v off.(a) off.(a + 1) in
    if j > lo then Array.blit tgt (!prev + 1) tgt (!prev + 1 - (j - lo)) (p - !prev - 1);
    prev := p
  done;
  if hi > lo then
    Array.blit tgt (!prev + 1) tgt (!prev + 1 - (hi - lo)) (off.(n) - !prev - 1);
  for j = lo to hi - 1 do
    let stop = if j + 1 < hi then src.(j + 1) else n in
    for a = src.(j) + 1 to stop do
      off.(a) <- off.(a) - (j - lo + 1)
    done
  done

let fits p edits =
  let s = p.store and n = Names.length p.attr_index in
  let m = s.rows in
  let rows = ref m and size = ref s.lhs.off.(m) and levels = ref 0 in
  let c_size = ref p.constr_of.off.(p.n_attrs) and in_size = ref p.incoming.off.(p.n_attrs) in
  let row k attr_rhs =
    incr rows;
    size := !size + k;
    c_size := !c_size + k;
    if attr_rhs then incr in_size else incr levels
  in
  List.iter
    (function
      | Insert { lo; hi; rhs = Rattr _; _ } -> row (hi - lo) true
      | Insert { lo; hi; rhs = Rlevel _; _ } -> row (hi - lo) false
      | Bound _ -> row 1 false
      | Delete _ -> ())
    edits;
  Array.length s.lhs.off > !rows
  && Array.length s.lhs.tgt >= !size
  && Array.length s.rhs >= !rows
  && Array.length p.complex_idx >= !rows
  && Array.length p.constr_of.off > n
  && Array.length p.incoming.off > n
  && Array.length p.constr_of.tgt >= !c_size
  && Array.length p.incoming.tgt >= !in_size
  && (!levels = 0 || Array.length s.levels >= levels_before s.rhs m + !levels)

(* A problem being edited: its arrays, and the counts that change. *)
type 'lvl editing = {
  e : 'lvl t;
  n : int;
  mutable m : int;
  mutable nc : int;
  mutable bound_rows : int;
}

(* Rows [r ..] move to [r + 1 ..] to make room for a row of [k] lhs ids
   with a level right-hand side iff [level], complex iff [k > 1]: their
   index entries are renumbered, last row first so that each index row
   stays ascending, and their level codes and complex ids shift.  The
   new row's lhs range is left to fill; returns its level index and
   complex id. *)
let open_row ed r k ~level =
  let { lhs = { off; tgt }; rhs; levels; _ } = ed.e.store and complex_idx = ed.e.complex_idx in
  let complex = k > 1 in
  let later_complex = ref 0 and first_level = ref (-1) in
  for ci = ed.m - 1 downto r do
    for i = off.(ci) to off.(ci + 1) - 1 do
      renumber ed.e.constr_of tgt.(i) ci (ci + 1)
    done;
    let b = rhs.(ci) in
    if rhs_is_attr b then renumber ed.e.incoming b ci (ci + 1)
    else begin
      let j = rhs_level_index b in
      first_level := j;
      if level then begin
        levels.(j + 1) <- levels.(j);
        rhs.(ci) <- level_code (j + 1)
      end
    end;
    let x = complex_idx.(ci) in
    if x >= 0 then begin
      incr later_complex;
      if complex then complex_idx.(ci) <- x + 1
    end
  done;
  let e = off.(ed.m) in
  Array.blit tgt off.(r) tgt (off.(r) + k) (e - off.(r));
  for i = ed.m downto r do
    off.(i + 1) <- off.(i) + k
  done;
  Array.blit rhs r rhs (r + 1) (ed.m - r);
  Array.blit complex_idx r complex_idx (r + 1) (ed.m - r);
  ed.m <- ed.m + 1;
  let j = if !first_level >= 0 then !first_level else levels_before rhs r in
  (j, ed.nc - !later_complex)

(* Row [r], its lhs range filled: sort it, write its right-hand side and
   complex id, and enter it in the index rows of its attributes. *)
let close_row ed r (j, x) rhs_of =
  let { lhs = { off; tgt }; rhs; levels; _ } = ed.e.store and complex_idx = ed.e.complex_idx in
  sort_range tgt off.(r) off.(r + 1);
  (match rhs_of with
  | Rattr b -> rhs.(r) <- b
  | Rlevel l ->
      levels.(j) <- l;
      rhs.(r) <- level_code j);
  if off.(r + 1) - off.(r) > 1 then begin
    complex_idx.(r) <- x;
    ed.nc <- ed.nc + 1
  end
  else complex_idx.(r) <- -1;
  csr_insert ed.e.constr_of ed.n tgt off.(r) off.(r + 1) r;
  if rhs_is_attr rhs.(r) then csr_insert ed.e.incoming ed.n rhs r (r + 1) r

let delete_row ed r =
  let { lhs = { off; tgt }; rhs; levels; _ } = ed.e.store and complex_idx = ed.e.complex_idx in
  let k = off.(r + 1) - off.(r) and b = rhs.(r) in
  let level = not (rhs_is_attr b) and complex = complex_idx.(r) >= 0 in
  csr_delete ed.e.constr_of ed.n tgt off.(r) off.(r + 1) r;
  if not level then csr_delete ed.e.incoming ed.n rhs r (r + 1) r;
  let m = ed.m in
  Array.blit tgt off.(r + 1) tgt off.(r) (off.(m) - off.(r + 1));
  for i = r + 1 to m - 1 do
    off.(i) <- off.(i + 1) - k
  done;
  Array.blit rhs (r + 1) rhs r (m - r - 1);
  Array.blit complex_idx (r + 1) complex_idx r (m - r - 1);
  (* The later rows, each one down: first row first, so that each index
     row stays ascending. *)
  for ci = r to m - 2 do
    for i = off.(ci) to off.(ci + 1) - 1 do
      renumber ed.e.constr_of tgt.(i) (ci + 1) ci
    done;
    let c = rhs.(ci) in
    if rhs_is_attr c then renumber ed.e.incoming c (ci + 1) ci
    else if level then begin
      let j = rhs_level_index c in
      levels.(j - 1) <- levels.(j);
      rhs.(ci) <- level_code (j - 1)
    end;
    if complex && complex_idx.(ci) >= 0 then complex_idx.(ci) <- complex_idx.(ci) - 1
  done;
  if complex then ed.nc <- ed.nc - 1;
  if r >= m - ed.bound_rows then ed.bound_rows <- ed.bound_rows - 1;
  ed.m <- m - 1

let edit p ~bounds edits =
  if not (fits p edits) then invalid_arg "Problem.edit: no room for the edits";
  Minup_obs.Trace.with_span ~cat:"constraints" "problem.edit" @@ fun () ->
  let n = Names.length p.attr_index in
  List.iter
    (fun c ->
      for a = p.n_attrs + 1 to n do
        c.off.(a) <- c.off.(p.n_attrs)
      done)
    [ p.constr_of; p.incoming ];
  let ed = { e = p; n; m = p.store.rows; nc = p.n_complex; bound_rows = bounds } in
  let level = function Rlevel _ -> true | Rattr _ -> false in
  List.iter
    (function
      | Insert { src; lo; hi; rhs } ->
          let r = ed.m - ed.bound_rows and k = hi - lo in
          let at = open_row ed r k ~level:(level rhs) in
          Array.blit src lo p.store.lhs.tgt p.store.lhs.off.(r) k;
          close_row ed r at rhs
      | Bound (a, l) ->
          let r = ed.m in
          let at = open_row ed r 1 ~level:true in
          p.store.lhs.tgt.(p.store.lhs.off.(r)) <- a;
          close_row ed r at (Rlevel l);
          ed.bound_rows <- ed.bound_rows + 1
      | Delete r ->
          if r < 0 || r >= ed.m then invalid_arg "Problem.edit: no such row";
          delete_row ed r)
    edits;
  { p with n_attrs = n; store = { p.store with rows = ed.m }; n_complex = ed.nc }

let rec add_names b intern = function
  | [] -> ()
  | a :: rest ->
      push_lhs b (intern a);
      add_names b intern rest

let compile ?(attrs = []) source : (_ t, error) result =
  Minup_obs.Trace.with_span ~cat:"constraints" "problem.compile" @@ fun () ->
  let index = Names.create (List.length attrs) in
  List.iter (fun a -> ignore (Names.add index a)) attrs;
  let intern a = Names.add index a in
  (* Trivially satisfied constraints (rhs ∈ lhs) are dropped, §3.  One
     pass counts the kept rows, their lhs ids and their level right-hand
     sides; a second writes the kept rows in input order, knowing a
     dropped constraint as the next one of [dropped]. *)
  let m = ref 0 and size = ref 0 and n_levels = ref 0 and dropped = ref [] in
  List.iter
    (fun (c : _ Cst.t) ->
      if Cst.is_trivial c then dropped := c :: !dropped
      else begin
        incr m;
        size := !size + List.length c.lhs;
        match c.rhs with Cst.Level _ -> incr n_levels | Cst.Attr _ -> ()
      end)
    source;
  let dropped = List.rev !dropped in
  let b = builder ~rows:!m ~size:!size ~levels:!n_levels () in
  let rec fill drops = function
    | [] -> ()
    | (c : _ Cst.t) :: rest -> (
        match drops with
        | d :: drops when d == c -> fill drops rest
        | _ ->
            add_names b intern c.lhs;
            end_lhs b;
            (match c.rhs with
            | Cst.Attr a -> close b (intern a)
            | Cst.Level l -> close_level b l);
            fill drops rest)
  in
  fill dropped source;
  (* Intern attributes of dropped constraints too: they are part of the
     universe and must still receive a (default ⊥) classification. *)
  List.iter (fun (c : _ Cst.t) -> List.iter (fun a -> ignore (intern a)) c.lhs) dropped;
  Ok (build ~room:Exact ~attr_index:index (finish b))

let compile_exn ?attrs csts = match compile ?attrs csts with Ok p -> p | Error _ -> .

let n_attrs p = p.n_attrs
let n_csts p = p.store.rows
let iter_constr_of p a f = csr_iter p.constr_of a f
let iter_incoming p a f = csr_iter p.incoming a f
let lhs_size p ci = p.store.lhs.off.(ci + 1) - p.store.lhs.off.(ci)
let iter_lhs p ci f = csr_iter p.store.lhs ci f

let fold_lhs p ci f init =
  let { off; tgt } = p.store.lhs in
  let acc = ref init in
  for i = off.(ci) to off.(ci + 1) - 1 do
    acc := f !acc tgt.(i)
  done;
  !acc

let lhs p ci =
  let { off; tgt } = p.store.lhs in
  Array.sub tgt off.(ci) (off.(ci + 1) - off.(ci))

let rhs p ci =
  let r = p.store.rhs.(ci) in
  if rhs_is_attr r then Rattr r else Rlevel p.store.levels.(rhs_level_index r)

let total_size p = p.store.lhs.off.(n_csts p) + n_csts p

(* A session shares one growing index among the problems it builds, so
   a name interned after [p] was built has an id beyond [p]'s universe. *)
let attr_name p a =
  if a < 0 || a >= p.n_attrs then invalid_arg "Problem.attr_name: unknown attribute id";
  (Names.names p.attr_index).(a)

let attr_id p a =
  match Names.find p.attr_index a with
  | i when i < p.n_attrs -> Some i
  | _ | (exception Not_found) -> None

let attr_id_exn p a =
  match attr_id p a with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Problem.attr_id_exn: unknown attribute %S" a)

let cst_to_source p ci =
  Cst.make_exn
    ~lhs:(Array.to_list (Array.map (attr_name p) (lhs p ci)))
    ~rhs:
      (match rhs p ci with
      | Rlevel l -> Cst.Level l
      | Rattr a -> Cst.Attr (attr_name p a))

let set_rlevel p ci l =
  if ci < 0 || ci >= n_csts p then
    invalid_arg "Problem.set_rlevel: constraint index out of range";
  let r = p.store.rhs.(ci) in
  if rhs_is_attr r then invalid_arg "Problem.set_rlevel: rhs is an attribute";
  p.store.levels.(rhs_level_index r) <- l

let is_acyclic p =
  let n = n_attrs p and rhs = p.store.rhs in
  (* colors: 0 unvisited, 1 on stack, 2 done *)
  let color = Array.make n 0 in
  let cyclic = ref false in
  let rec visit a =
    if color.(a) = 1 then cyclic := true
    else if color.(a) = 0 then begin
      color.(a) <- 1;
      iter_constr_of p a (fun ci -> if rhs_is_attr rhs.(ci) then visit rhs.(ci));
      color.(a) <- 2
    end
  in
  for a = 0 to n - 1 do
    if not !cyclic then visit a
  done;
  not !cyclic

let holds ~leq ~lub ~bottom p assignment ci =
  let combined = fold_lhs p ci (fun acc a -> lub acc (assignment a)) bottom in
  let target = match rhs p ci with Rlevel l -> l | Rattr a -> assignment a in
  leq target combined

let satisfies ~leq ~lub ~bottom p assignment =
  let rec from ci = ci = n_csts p || (holds ~leq ~lub ~bottom p assignment ci && from (ci + 1)) in
  from 0

let pp pp_level ppf p =
  Format.fprintf ppf "@[<v>";
  for ci = 0 to n_csts p - 1 do
    Format.fprintf ppf "%a@," (Cst.pp pp_level) (cst_to_source p ci)
  done;
  Format.fprintf ppf "@]"
