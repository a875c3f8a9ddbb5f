type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

exception Err of string

let fail fmt = Format.kasprintf (fun s -> raise (Err s)) fmt

let split_commas s =
  s |> String.split_on_char ',' |> List.map String.trim
  |> List.filter (fun x -> x <> "")

let parse_raw text =
  (* Both accumulate reversed and are reversed once at the end. *)
  let names = ref [] and order = ref [] in
  let do_line raw =
    let line =
      match String.index_opt raw '#' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    let line = String.trim line in
    if line <> "" then
      (* [levels] is a keyword only when white space follows it: a level
         may be named [levelsA]. *)
      if String.length line > 6 && String.starts_with ~prefix:"levels" line
         && (line.[6] = ' ' || line.[6] = '\t')
      then
        let declared = split_commas (String.sub line 6 (String.length line - 6)) in
        names := List.rev_append declared !names
      else
        match String.index_opt line '<' with
        | Some i ->
            let lo = String.trim (String.sub line 0 i) in
            let hi = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
            if lo = "" || hi = "" then fail "malformed order pair";
            order := (lo, hi) :: !order
        | None -> fail "expected 'levels ...' or 'lo < hi'"
  in
  let rec go lineno = function
    | [] -> Ok (List.rev !names, List.rev !order)
    | l :: rest -> (
        match do_line l with
        | () -> go (lineno + 1) rest
        | exception Err message -> Error { line = lineno; message })
  in
  go 1 (String.split_on_char '\n' text)

let parse text =
  match parse_raw text with
  | Error _ as e -> e
  | Ok (names, order) -> (
      match Explicit.create ~names ~order with
      | Ok l -> Ok l
      | Error e ->
          Error { line = 0; message = Format.asprintf "%a" Explicit.pp_error e })

let parse_semilattice text =
  match parse_raw text with
  | Error _ as e -> e
  | Ok (names, order) -> (
      match Semilattice.complete ~names ~order with
      | Ok s -> Ok s
      | Error e ->
          Error { line = 0; message = Format.asprintf "%a" Explicit.pp_error e })

let to_string lat =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    ("levels "
    ^ String.concat ", " (List.map (Explicit.name lat) (Explicit.all lat))
    ^ "\n");
  List.iter
    (fun (lo, hi) ->
      Buffer.add_string buf
        (Printf.sprintf "%s < %s\n" (Explicit.name lat lo) (Explicit.name lat hi)))
    (Explicit.cover_pairs lat);
  Buffer.contents buf
