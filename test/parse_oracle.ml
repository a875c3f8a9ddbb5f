(* The line-splitting policy parser that [Minup_constraints.Parse]'s
   cursor scanner replaced, kept unchanged as the reference the
   differential property in [test_parse] compares the scanner against:
   same results, same error texts, same error lines.  It shares [Parse]'s
   error and result types so results compare with [=]; [ast] is its own
   intermediate form. *)
open Minup_constraints

type ast = {
  decls : string list;
  lowers : (int * string list * string) list;
  uppers : (int * string * string) list;
}

type error = Parse.error = { line : int; message : string }

exception Err of string

let fail fmt = Format.kasprintf (fun s -> raise (Err s)) fmt

let is_ident_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let check_ident s =
  if s = "" then fail "empty identifier";
  String.iter
    (fun c -> if not (is_ident_char c) then fail "invalid identifier %S" s)
    s;
  s

let split_commas s =
  s |> String.split_on_char ',' |> List.map String.trim
  |> List.filter (fun x -> x <> "")

(* Split a line at the first top-level occurrence of [op] (">=" or "<=").
   Occurrences inside braces belong to level syntax and are skipped. *)
let split_on_op line =
  let n = String.length line in
  let rec go i depth =
    if i >= n - 1 then None
    else
      match line.[i] with
      | '{' -> go (i + 1) (depth + 1)
      | '}' -> go (i + 1) (depth - 1)
      | ('>' | '<') when depth = 0 && line.[i + 1] = '=' ->
          Some (line.[i], String.sub line 0 i, String.sub line (i + 2) (n - i - 2))
      | _ -> go (i + 1) depth
  in
  go 0 0

let parse_lhs s =
  let s = String.trim s in
  let strip_prefix p s =
    if String.length s >= String.length p && String.sub s 0 (String.length p) = p
    then Some (String.sub s (String.length p) (String.length s - String.length p))
    else None
  in
  let body =
    match strip_prefix "lub{" s with
    | Some rest -> Some rest
    | None -> strip_prefix "{" s
  in
  match body with
  | Some rest ->
      let rest = String.trim rest in
      let n = String.length rest in
      if n = 0 || rest.[n - 1] <> '}' then fail "unterminated '{' in left-hand side";
      let inner = String.sub rest 0 (n - 1) in
      let attrs = List.map check_ident (split_commas inner) in
      if attrs = [] then fail "empty left-hand side set";
      attrs
  | None -> [ check_ident s ]

(* The [attrs] keyword only introduces a declaration list when it stands
   alone (an empty declaration) or is followed by whitespace; identifiers
   that merely start with "attrs" ([attrset >= x]) are ordinary constraint
   lines. *)
let attrs_rest line =
  if line = "attrs" then Some ""
  else if
    String.length line > 5
    && String.sub line 0 5 = "attrs"
    && (line.[5] = ' ' || line.[5] = '\t')
  then Some (String.sub line 5 (String.length line - 5))
  else None

let parse text =
  (* All three accumulate in reverse, so a policy parses in linear time
     however its declarations are split across lines. *)
  let decls = ref [] and lowers = ref [] and uppers = ref [] in
  let do_line lineno raw =
    let line =
      match String.index_opt raw '#' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    let line = String.trim line in
    if line <> "" then
      match attrs_rest line with
      | Some rest ->
          decls := List.rev_append (List.map check_ident (split_commas rest)) !decls
      | None -> (
          match split_on_op line with
          | None -> fail "expected 'attrs', '... >= ...' or '... <= ...'"
          | Some ('>', lhs, rhs) ->
              let rhs = String.trim rhs in
              if rhs = "" then fail "empty right-hand side";
              lowers := (lineno, parse_lhs lhs, rhs) :: !lowers
          | Some ('<', lhs, rhs) -> (
              let rhs = String.trim rhs in
              if rhs = "" then fail "empty right-hand side";
              match parse_lhs lhs with
              | [ a ] -> uppers := (lineno, a, rhs) :: !uppers
              | _ -> fail "upper-bound constraints take a single attribute")
          | Some _ -> assert false)
  in
  let lines = String.split_on_char '\n' text in
  let rec go lineno = function
    | [] ->
        Ok { decls = List.rev !decls; lowers = List.rev !lowers; uppers = List.rev !uppers }
    | l :: rest -> (
        match do_line lineno l with
        | () -> go (lineno + 1) rest
        | exception Err message -> Error { line = lineno; message })
  in
  go 1 lines

type 'lvl resolved = 'lvl Parse.resolved = {
  attrs : string list;
  csts : 'lvl Cst.t list;
  upper_bounds : (string * 'lvl) list;
}

let resolve ~level_of_string ast =
  (* Attributes known a priori: declarations, all lhs members, all
     upper-bounded names. *)
  let known = Hashtbl.create 64 in
  let order = ref [] in
  let declare a =
    if not (Hashtbl.mem known a) then begin
      Hashtbl.add known a ();
      order := a :: !order
    end
  in
  List.iter declare ast.decls;
  List.iter (fun (_, lhs, _) -> List.iter declare lhs) ast.lowers;
  List.iter (fun (_, a, _) -> declare a) ast.uppers;
  let resolve_rhs raw =
    if Hashtbl.mem known raw then Cst.Attr raw
    else
      match level_of_string raw with
      | Some l -> Cst.Level l
      | None ->
          declare raw;
          Cst.Attr raw
  in
  let rec build acc = function
    | [] -> Ok (List.rev acc)
    | (line, lhs, raw) :: rest -> (
        let rhs = resolve_rhs raw in
        match Cst.make ~lhs ~rhs with
        | Ok c -> build (c :: acc) rest
        | Error e -> Error { line; message = Format.asprintf "%a" Cst.pp_error e })
  in
  match build [] ast.lowers with
  | Error _ as e -> e
  | Ok csts -> (
      let rec ubs acc = function
        | [] -> Ok (List.rev acc)
        | (line, a, raw) :: rest -> (
            match level_of_string raw with
            | Some l -> ubs ((a, l) :: acc) rest
            | None ->
                Error
                  {
                    line;
                    message =
                      Printf.sprintf
                        "upper bound for %S: %S is not a level of the lattice" a
                        raw;
                  })
      in
      match ubs [] ast.uppers with
      | Error _ as e -> e
      | Ok upper_bounds -> Ok { attrs = List.rev !order; csts; upper_bounds })

let parse_resolve ~level_of_string text =
  match parse text with
  | Error _ as e -> e
  | Ok ast -> resolve ~level_of_string ast
