open Minup_lattice
module Cst = Minup_constraints.Cst
module Parse = Minup_constraints.Parse
module Problem = Minup_constraints.Problem

let case = Helpers.case

let sample =
  {|
# employee classification policy
attrs name, salary

salary >= Confidential
{name, salary} >= Secret        # association
lub{rank, department} >= salary # inference, lub keyword optional
name <= Secret
|}

let ladder = Total.create [ "Unclassified"; "Confidential"; "Secret"; "TopSecret" ]

let resolve = Parse.parse_resolve ~level_of_string:(Total.level_of_string ladder)

let parse_ok () =
  match resolve sample with
  | Error e -> Alcotest.failf "parse error: %a" Parse.pp_error e
  | Ok r ->
      Alcotest.(check (list string))
        "declared first" [ "name"; "salary" ]
        (List.filteri (fun i _ -> i < 2) r.Parse.attrs);
      Alcotest.(check (list (list string)))
        "lhss"
        [ [ "salary" ]; [ "name"; "salary" ]; [ "rank"; "department" ] ]
        (List.map (fun (c : _ Cst.t) -> c.Cst.lhs) r.Parse.csts);
      Alcotest.(check (list (pair string int))) "uppers" [ ("name", 2) ] r.Parse.upper_bounds;
      (* Source lines survive parsing (the sample starts with a blank
         line and ends with line 8). *)
      match resolve (sample ^ "x <= Nope\n") with
      | Error { line; _ } -> Alcotest.(check int) "error line" 9 line
      | Ok _ -> Alcotest.fail "accepted an unknown upper-bound level"

let resolve_ok () =
  match Parse.parse_resolve ~level_of_string:(Total.level_of_string ladder) sample with
  | Error e -> Alcotest.failf "resolve error: %a" Parse.pp_error e
  | Ok r ->
      Alcotest.(check (list string)) "attrs"
        [ "name"; "salary"; "rank"; "department" ]
        r.Parse.attrs;
      (* salary >= Confidential resolves to a level; the inference rhs
         resolves to the declared attribute salary even though no level
         named salary exists. *)
      (match (List.nth r.Parse.csts 0).Cst.rhs with
      | Cst.Level l -> Alcotest.(check int) "level" 1 l
      | Cst.Attr _ -> Alcotest.fail "expected level rhs");
      (match (List.nth r.Parse.csts 2).Cst.rhs with
      | Cst.Attr "salary" -> ()
      | _ -> Alcotest.fail "expected attr rhs");
      Alcotest.(check int) "upper bound" 2 (snd (List.hd r.Parse.upper_bounds))

let attr_shadows_level () =
  (* A declared attribute named like a level wins. *)
  let text = "attrs Secret\nSecret >= TopSecret\nother >= Secret\n" in
  match Parse.parse_resolve ~level_of_string:(Total.level_of_string ladder) text with
  | Error e -> Alcotest.failf "error: %a" Parse.pp_error e
  | Ok r -> (
      match (List.nth r.Parse.csts 1).Cst.rhs with
      | Cst.Attr "Secret" -> ()
      | _ -> Alcotest.fail "declared attribute should shadow the level")

let compartment_rhs () =
  let text = "cargo >= TS:{Army,Nuclear}\n" in
  let lat = Compartment.fig1a in
  match
    Parse.parse_resolve ~level_of_string:(Compartment.level_of_string lat) text
  with
  | Error e -> Alcotest.failf "error: %a" Parse.pp_error e
  | Ok r -> (
      match (List.hd r.Parse.csts).Cst.rhs with
      | Cst.Level l ->
          Alcotest.(check string) "level" "TS:{Army,Nuclear}"
            (Compartment.level_to_string lat l)
      | Cst.Attr _ -> Alcotest.fail "expected level")

let errors () =
  (match resolve "salary >=\n" with
  | Error { line = 1; _ } -> ()
  | _ -> Alcotest.fail "accepted empty rhs");
  (match resolve "x\n{a,b} >= c\ngarbage line here\n" with
  | Error { line = 1; _ } -> ()
  | _ -> Alcotest.fail "accepted garbage");
  (match resolve "{a, b} <= Secret\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted multi-attr upper bound");
  (match resolve "{a,, b} >= c\n" with
  (* empty entries are skipped; this parses *)
  | Ok r -> Alcotest.(check (list string)) "lhs" [ "a"; "b" ] (List.hd r.Parse.csts).Cst.lhs
  | Error _ -> Alcotest.fail "comma tolerance");
  match resolve "a <= NotALevel\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown upper bound level"

(* Regression: "attrs" is a keyword only when it stands alone or is
   followed by whitespace.  A bare "attrs" line is an empty declaration;
   an identifier that merely starts with "attrs" is an ordinary
   constraint line, not a mis-lexed declaration list. *)
let attrs_keyword () =
  (match resolve "attrs\n" with
  | Ok r -> Alcotest.(check (list string)) "bare attrs" [] r.Parse.attrs
  | Error e -> Alcotest.failf "bare attrs rejected: %a" Parse.pp_error e);
  (match resolve "attrs\ta, b\n" with
  | Ok r -> Alcotest.(check (list string)) "tab after attrs" [ "a"; "b" ] r.Parse.attrs
  | Error e -> Alcotest.failf "tab-separated attrs rejected: %a" Parse.pp_error e);
  match resolve "attrset >= x\n" with
  | Ok r -> (
      Alcotest.(check (list string)) "no decls" [ "attrset"; "x" ] r.Parse.attrs;
      match r.Parse.csts with
      | [ { Cst.lhs = [ "attrset" ]; rhs = Cst.Attr "x" } ] -> ()
      | _ -> Alcotest.fail "attrset >= x should be one constraint")
  | Error e -> Alcotest.failf "attrset >= x mis-lexed as declaration: %a" Parse.pp_error e

(* Regression: resolve-stage errors carry the source line of the offending
   constraint, not a fabricated line 0. *)
let resolve_line_numbers () =
  (match
     Parse.parse_resolve ~level_of_string:(Total.level_of_string ladder)
       "a >= Secret\nb >= Secret\nc <= NotALevel\n"
   with
  | Error { line = 3; _ } -> ()
  | Error { line; _ } ->
      Alcotest.failf "upper-bound error reported at line %d, want 3" line
  | Ok _ -> Alcotest.fail "accepted unknown upper-bound level");
  (match
     Parse.parse_resolve ~level_of_string:(Total.level_of_string ladder)
       "a >= Secret\n{x, x} >= Secret\n"
   with
  | Error { line = 2; _ } -> ()
  | Error { line; _ } ->
      Alcotest.failf "duplicate-lhs error reported at line %d, want 2" line
  | Ok _ -> Alcotest.fail "accepted duplicate lhs");
  (* Every syntax error in the file beats every resolve error. *)
  match
    Parse.parse_resolve ~level_of_string:(Total.level_of_string ladder)
      "a >= Secret\n{x, x} >= Secret\ngarbage\n"
  with
  | Error { line = 3; message } ->
      Alcotest.(check string) "syntax error text"
        "expected 'attrs', '... >= ...' or '... <= ...'" message
  | Error { line; _ } ->
      Alcotest.failf "syntax error reported at line %d, want 3" line
  | Ok _ -> Alcotest.fail "accepted a garbage line"

let comments_and_blanks () =
  match resolve "\n  \n# only comments\n" with
  | Ok r ->
      Alcotest.(check int) "no constraints" 0 (List.length r.Parse.csts);
      Alcotest.(check (list string)) "no attributes" [] r.Parse.attrs
  | Error e -> Alcotest.failf "error: %a" Parse.pp_error e


(* render ∘ parse_resolve round-trips policies, including compartmented
   level syntax on the right-hand side. *)
let render_roundtrip =
  QCheck.Test.make ~count:60 ~name:"render/parse_resolve round-trip"
    Helpers.seed_arb
    (fun seed ->
      let rng = Minup_workload.Prng.create seed in
      let lat = Compartment.fig1a in
      let spec =
        Minup_workload.Gen_constraints.
          {
            n_attrs = 6;
            n_simple = 4;
            n_complex = 3;
            max_lhs = 3;
            n_constants = 3;
            constants = List.of_seq (Compartment.levels lat);
          }
      in
      let attrs, csts = Minup_workload.Gen_constraints.acyclic rng spec in
      let r = Parse.{ attrs; csts; upper_bounds = [ (List.hd attrs, Compartment.top lat) ] } in
      let text = Parse.render ~level_to_string:(Compartment.level_to_string lat) r in
      match
        Parse.parse_resolve ~level_of_string:(Compartment.level_of_string lat) text
      with
      | Error _ -> false
      | Ok r' ->
          r'.Parse.attrs = r.Parse.attrs
          && List.length r'.Parse.csts = List.length r.Parse.csts
          && List.for_all2
               (fun (a : _ Cst.t) (b : _ Cst.t) ->
                 a.Cst.lhs = b.Cst.lhs
                 &&
                 match (a.Cst.rhs, b.Cst.rhs) with
                 | Cst.Attr x, Cst.Attr y -> x = y
                 | Cst.Level x, Cst.Level y -> Compartment.equal lat x y
                 | _ -> false)
               r.Parse.csts r'.Parse.csts
          && List.length r'.Parse.upper_bounds = 1)

(* Differential: the scanner against [Parse_oracle], the line-splitting
   parser it replaced, on rendered policies plus hand-shaped lines, each
   line mutated toward a corner of the grammar and the whole text
   sometimes cut at a random byte.  Results, error texts and error lines
   must all be equal. *)
let oracle_policy seed =
  let rng = Minup_workload.Prng.create seed in
  let int n = Minup_workload.Prng.int rng n and pick l = Minup_workload.Prng.pick rng l in
  let lat = Compartment.fig1a in
  let spec =
    Minup_workload.Gen_constraints.
      {
        n_attrs = 5;
        n_simple = 3;
        n_complex = 2;
        max_lhs = 3;
        n_constants = 2;
        constants = List.of_seq (Compartment.levels lat);
      }
  in
  let attrs, csts = Minup_workload.Gen_constraints.acyclic rng spec in
  let rendered =
    Parse.render ~level_to_string:(Compartment.level_to_string lat)
      Parse.{ attrs; csts; upper_bounds = [] }
  in
  let names = [ "A0"; "A1"; "A2"; "A3"; "x.1"; "y-2"; "S"; "TS"; "attrset" ] in
  let names = if int 3 = 0 then "b@d" :: "" :: names else names in
  (* Hostile names: a byte past ASCII, a NUL, a form feed, a comment
     right after a name, level syntax and an unbalanced brace inside a
     name, and names that differ only in their last byte. *)
  let names =
    if int 3 = 0 then
      "A\xc3\xa9" :: "A\000x" :: "A\012" :: "A0#c" :: "x>=y" :: "A}" :: "A01" :: "A02" :: names
    else names
  in
  let rhs = names @ [ "TS:{Army,Nuclear}"; "S:{Army}"; "TS:{ Army, Nuclear }"; "NotALevel" ] in
  let members () =
    String.concat (pick [ ", "; ","; " , "; ",, "; ",\t" ]) (List.init (1 + int 3) (fun _ -> pick names))
  in
  let lhs () =
    match int 6 with
    | 0 | 1 -> pick names
    | 2 -> "{" ^ members () ^ "}"
    | 3 -> "lub{" ^ members () ^ "}"
    | 4 -> "lub {" ^ members () ^ "}"
    | _ ->
        pick [ "{"; "lub{"; "{ }"; "{a >= b, "; "}"; "{\012" ]
        ^ members ()
        ^ pick [ "} A1"; "}}"; " "; "} }"; "}#"; "}\x80" ]
  in
  let shaped () =
    match int 6 with
    | 0 -> pick [ "attrs "; "attrs\t"; "attrs"; "attrsx "; "attrset >= " ] ^ members ()
    | 1 -> pick [ ""; "  "; "# a comment"; "\t# { >= x"; if int 4 = 0 then "garbage line" else "" ]
    | 2 -> lhs () ^ pick [ " <= "; "<=" ] ^ pick rhs
    | _ -> lhs () ^ pick [ " >= "; ">="; " >=\t" ] ^ pick rhs
  in
  let rate = pick [ 0; 5; 20 ] in
  let mutate l =
    let n = String.length l in
    let l =
      match if int 100 < rate then int 4 else 4 with
      | 0 -> l ^ " # note"
      | 1 when n > 0 ->
          let i = int (n + 1) in
          String.sub l 0 i ^ "#" ^ String.sub l i (n - i)
      | 2 -> String.map (fun c -> if c = ' ' then '\t' else c) l
      | 3 -> (
          match String.rindex_opt l '}' with
          | Some i -> String.sub l 0 i ^ String.sub l (i + 1) (n - i - 1)
          | None -> l)
      | _ -> l
    in
    l ^ pick [ "\n"; "\n"; "\r\n"; "\t\n" ]
  in
  let lines = String.split_on_char '\n' rendered @ List.init (int 6) (fun _ -> shaped ()) in
  let text = String.concat "" (List.map mutate lines) in
  if int 5 = 0 then String.sub text 0 (int (String.length text + 1)) else text

(* The scanner's byte classes, against the grammar's own definitions:
   letters, digits, [_], [.] and [-] make names; space, tab, form feed,
   carriage return and newline are white space. *)
let byte_classes () =
  for b = 0 to 255 do
    let c = Char.chr b in
    let ident =
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false
    and space = match c with ' ' | '\t' | '\012' | '\r' | '\n' -> true | _ -> false in
    if Parse.is_ident_char c <> ident then Alcotest.failf "byte %d: identifier class" b;
    if Parse.is_space c <> space then Alcotest.failf "byte %d: space class" b;
    if Parse.is_ident (String.make 1 c) <> ident then Alcotest.failf "byte %d: is_ident" b
  done

(* Texts the random oracle comparison draws too rarely: a 200 KB
   declaration line (then the same line with one bad name at its end),
   every byte value inside a name and inside a right-hand side, and
   names that differ only in their last byte. *)
let oracle_hostile_cases () =
  let level_of_string = Compartment.level_of_string Compartment.fig1a in
  let long = String.concat ", " (List.init 25_000 (Printf.sprintf "x%d")) in
  let bytes =
    List.concat_map
      (fun b ->
        let c = String.make 1 (Char.chr b) in
        [ "a" ^ c ^ "b >= TS\n"; "{a, b" ^ c ^ "} >= x\n"; "a >= T" ^ c ^ "S\n";
          "attrs a" ^ c ^ "\n" ])
      (List.init 256 Fun.id)
  in
  let last_byte =
    String.concat ""
      (List.init 64 (fun i ->
           Printf.sprintf "{ab%c, abc} >= ab%c\n" (Char.chr (48 + i)) (Char.chr (49 + i))))
  in
  List.iter
    (fun text ->
      if
        Parse.parse_resolve ~level_of_string text
        <> Parse_oracle.parse_resolve ~level_of_string text
      then Alcotest.failf "parse_resolve differs on %S" text)
    ([ "attrs " ^ long ^ "\n"; "attrs " ^ long ^ ", b@d\n"; last_byte ] @ bytes)

(* [Problem.Names] against a [Hashtbl] that numbers names as they come,
   over random adds, slice adds and lookups of short names from a small
   alphabet (so names share prefixes and differ in one byte), through
   several growths. *)
let names_table =
  QCheck.Test.make ~count:300 ~name:"Problem.Names = Hashtbl reference" Helpers.seed_arb
    (fun seed ->
      let rng = Minup_workload.Prng.create seed in
      let int n = Minup_workload.Prng.int rng n in
      let name () = String.init (1 + int 4) (fun _ -> "ab\000\xff.".[int 5]) in
      let t = Problem.Names.create (int 4) and r = Hashtbl.create 16 in
      let ok = ref true in
      for _ = 1 to 20 + int 400 do
        let a = name () in
        match int 3 with
        | 0 ->
            let want = match Hashtbl.find_opt r a with Some i -> i | None -> Hashtbl.length r in
            if not (Hashtbl.mem r a) then Hashtbl.add r a want;
            if Problem.Names.add t a <> want then ok := false
        | 1 ->
            let text = "<" ^ a ^ ">" in
            let want = match Hashtbl.find_opt r a with Some i -> i | None -> Hashtbl.length r in
            if not (Hashtbl.mem r a) then Hashtbl.add r a want;
            let h = ref 0x811c9dc5 in
            String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) a;
            if Problem.Names.add_slice t text 1 (String.length a + 1) !h <> want then ok := false
        | _ -> if Problem.Names.find_opt t a <> Hashtbl.find_opt r a then ok := false
      done;
      let names = Problem.Names.names t in
      !ok
      && Problem.Names.length t = Hashtbl.length r
      && Hashtbl.fold (fun a i acc -> acc && names.(i) = a && Problem.Names.find t a = i) r true)

let scanner_matches_oracle =
  QCheck.Test.make ~count:1000 ~name:"scanner = line-splitting oracle"
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "%d: %S" seed (oracle_policy seed))
       (QCheck.get_gen Helpers.seed_arb))
    (fun seed ->
      let text = oracle_policy seed in
      let level_of_string = Compartment.level_of_string Compartment.fig1a in
      Parse.parse_resolve ~level_of_string text
      = Parse_oracle.parse_resolve ~level_of_string text)

(* [Parse.rows] is [Problem.compile ~attrs] of [Parse.parse_resolve]'s
   result: the problem [Problem.of_lines] builds from its lines equals
   the compiled one (the same names, the same rows in the same order,
   the same level right-hand sides and indexes), each line is trivial
   exactly when its constraint is, the upper bounds are the same, the
   name index holds exactly the names, and each line's lhs is as written,
   a kept one sorting to its row; on a bad text, the same first error
   (line and message).  [why] names the first difference. *)
let rows_mismatch ~level_of_string text =
  match (Parse.rows ~level_of_string text, Parse.parse_resolve ~level_of_string text) with
  | Error e, Error e' -> if e = e' then None else Some "a different error"
  | Ok _, Error _ | Error _, Ok _ -> Some "one side failed"
  | Ok r, Ok pr ->
      let p = Problem.compile_exn ~attrs:pr.Parse.attrs pr.Parse.csts in
      let q = Problem.of_lines ~attr_index:r.Parse.attr_index r.Parse.lines in
      let names_of p = Array.init (Problem.n_attrs p) (Problem.attr_name p) in
      let index = r.Parse.attr_index and lines = r.Parse.lines in
      let names = Array.sub (Problem.Names.names index) 0 (Problem.Names.length index) in
      let off = lines.Problem.off and tgt = lines.Problem.tgt in
      let m = Array.length lines.Problem.kept in
      let written = List.init m (fun i -> Array.sub tgt off.(i) (off.(i + 1) - off.(i))) in
      let kept = List.filteri (fun i _ -> lines.Problem.kept.(i)) written in
      if off.(0) <> 0 || List.exists (fun i -> off.(i + 1) < off.(i)) (List.init m Fun.id) then
        Some "off"
      else if
        names <> names_of p || names_of q <> names || q.Problem.attr_index != index
      then Some "names"
      else if
        q.Problem.store <> p.Problem.store
        || q.Problem.complex_idx <> p.Problem.complex_idx
        || q.Problem.n_complex <> p.Problem.n_complex
        || q.Problem.constr_of <> p.Problem.constr_of
        || q.Problem.incoming <> p.Problem.incoming
      then Some "problem"
      else if
        Array.length lines.Problem.kept <> List.length pr.Parse.csts
        || List.exists2
             (fun k (c : _ Cst.t) -> k = Cst.is_trivial c)
             (Array.to_list lines.Problem.kept) pr.Parse.csts
      then Some "kept"
      else if r.Parse.upper_bounds <> pr.Parse.upper_bounds then Some "upper_bounds"
      else if
        Problem.Names.length r.Parse.attr_index <> Array.length names
        || not
             (Array.for_all
                (fun a -> Problem.Names.find_opt r.Parse.attr_index a = Problem.attr_id p a)
                names)
      then Some "attr_index"
      else if
        List.length written <> List.length pr.Parse.csts
        || List.map (fun w -> List.map (Array.get names) (Array.to_list w)) written
           <> List.map (fun (c : _ Cst.t) -> c.Cst.lhs) pr.Parse.csts
        || List.mapi (fun ci _ -> Problem.lhs p ci) kept
           <> List.map (fun w -> Array.of_list (List.sort compare (Array.to_list w))) kept
      then Some "written"
      else None

let rows_match_compile =
  QCheck.Test.make ~count:1000 ~name:"rows = compile of parse_resolve"
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "%d: %S" seed (oracle_policy seed))
       (QCheck.get_gen Helpers.seed_arb))
    (fun seed ->
      let level_of_string = Compartment.level_of_string Compartment.fig1a in
      match rows_mismatch ~level_of_string (oracle_policy seed) with
      | None -> true
      | Some why -> QCheck.Test.fail_reportf "rows differ from compile: %s" why)

(* Hand-picked texts for the same property: an lhs repeating two names
   is reported by its first repeat in written order ([b], though sorted
   ids meet [a] first), also past the 8 members sorted another way; a
   trivial line among kept ones; an lhs written out of order; level
   names shadowed by attributes. *)
let rows_match_compile_cases () =
  let level_of_string = Total.level_of_string ladder in
  let long = String.concat ", " (List.init 12 (Printf.sprintf "m%d")) in
  List.iter
    (fun text ->
      match rows_mismatch ~level_of_string text with
      | None -> ()
      | Some why -> Alcotest.failf "%S: %s" text why)
    [
      "{b, a, b, a} >= x\n";
      "a >= Secret\n{b, a, b, a} >= x\nc <= Nope\n";
      "lub{" ^ long ^ ", m11, m3} >= Secret\n";
      "lub{m11, " ^ long ^ "} >= Secret\n";
      "{a, b} >= a\nb >= Secret\n{c, a} >= b\n{b, a} >= c\n";
      "attrs z, y\n{y, z} >= Secret\nx >= z\n{a, b} >= Nope\nx <= Secret\n";
      "attrs Secret\nSecret >= TopSecret\nother >= Secret\n{Secret, other} >= Confidential\n";
      "c <= Nope\nd <= Bad\n";
      "";
    ];
  match Parse.rows ~level_of_string "a >= S\n{b, a, b, a} >= x\n" with
  | Error { line; message } ->
      Alcotest.(check int) "dup line" 2 line;
      Alcotest.(check string) "dup text" "attribute \"b\" repeated in left-hand side" message
  | Ok _ -> Alcotest.fail "accepted a repeated lhs member"

(* Policies shaped to hit the parser's worst cases: one declaration per
   line (the declaration list used to be appended to, quadratically) and
   a single huge association.  Declaration order, the duplicate reported,
   and the line number of an error must not depend on the shape. *)
let hostile_shapes () =
  let k = 32_000 in
  let names = List.init k (Printf.sprintf "x%d") in
  let one_per_line = String.concat "" (List.map (fun a -> "attrs " ^ a ^ "\n") names) in
  (match resolve one_per_line with
  | Ok r -> Alcotest.(check (list string)) "declaration order" names r.Parse.attrs
  | Error e -> Alcotest.failf "%a" Parse.pp_error e);
  (match resolve (one_per_line ^ "attrs ok, b@d\n") with
  | Error { line; message } ->
      Alcotest.(check int) "error line" (k + 1) line;
      Alcotest.(check string) "error text" "invalid identifier \"b@d\"" message
  | Ok _ -> Alcotest.fail "accepted an invalid identifier");
  let lub = "lub{" ^ String.concat ", " names ^ ", x17} >= Secret\n" in
  match Parse.parse_resolve ~level_of_string:(Total.level_of_string ladder) lub with
  | Error { line; message } ->
      Alcotest.(check int) "dup line" 1 line;
      Alcotest.(check string) "dup text" "attribute \"x17\" repeated in left-hand side"
        message
  | Ok _ -> Alcotest.fail "accepted a duplicate lhs member"

(* The scanner compares a name with an interned one of the same length.
   Names of 7, 8, 9, 16 and 17 bytes, each beside 26 copies differing
   only in the first byte, the last, or one on either side of an 8-byte
   boundary, must stay apart: a compare that reads at the wrong offset,
   or skips a stretch of bytes, merges two of them.
   Each name is declared, then read again as an lhs and as an rhs. *)
let word_boundary_names () =
  let base n = String.init n (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let flip s i x = String.mapi (fun j c -> if j = i then x else c) s in
  let names =
    List.concat_map
      (fun n ->
        base n
        :: List.concat_map
             (fun i -> List.map (flip (base n) i) (List.init 26 (fun k -> Char.chr (Char.code 'A' + k))))
             (List.sort_uniq compare (List.filter (fun i -> i < n) [ 0; n - 1; 7; 8; 15; 16 ])))
      [ 7; 8; 9; 16; 17 ]
  in
  let next = List.tl names @ [ List.hd names ] in
  let text =
    "attrs " ^ String.concat ", " names ^ "\n"
    ^ String.concat "" (List.map2 (Printf.sprintf "%s >= %s\n") names next)
  in
  let level_of_string = Total.level_of_string ladder in
  (match Parse.parse_resolve ~level_of_string text with
  | Error e -> Alcotest.failf "resolve error: %a" Parse.pp_error e
  | Ok r ->
      Alcotest.(check (list string)) "attrs" names r.Parse.attrs;
      Alcotest.(check (list (pair (list string) string)))
        "constraints"
        (List.map2 (fun a b -> ([ a ], b)) names next)
        (List.map
           (fun (c : _ Cst.t) ->
             (c.Cst.lhs, match c.Cst.rhs with Cst.Attr b -> b | Cst.Level _ -> "<level>"))
           r.Parse.csts));
  match Parse.rows ~level_of_string text with
  | Error e -> Alcotest.failf "rows error: %a" Parse.pp_error e
  | Ok r ->
      let index = r.Parse.attr_index in
      Alcotest.(check (array string))
        "names" (Array.of_list names)
        (Array.sub (Problem.Names.names index) 0 (Problem.Names.length index))

let suite =
  [
    case "parse" parse_ok;
    case "names apart at an 8-byte boundary stay distinct" word_boundary_names;
    case "hostile shapes stay linear" hostile_shapes;
    case "resolve" resolve_ok;
    case "attribute shadows level" attr_shadows_level;
    case "compartmented level rhs" compartment_rhs;
    case "errors" errors;
    case "attrs keyword boundary" attrs_keyword;
    case "resolve errors carry line numbers" resolve_line_numbers;
    case "comments and blanks" comments_and_blanks;
    Helpers.qcheck render_roundtrip;
    Helpers.qcheck scanner_matches_oracle;
    case "byte classes" byte_classes;
    case "scanner = oracle on hostile texts" oracle_hostile_cases;
    Helpers.qcheck names_table;
    Helpers.qcheck rows_match_compile;
    case "rows = compile of parse_resolve on hand-picked texts" rows_match_compile_cases;
  ]
