type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Raw of string

(* --- rendering ------------------------------------------------------ *)

let hex = "0123456789abcdef"

(* One pass over [s]: each run of bytes that need no escape is copied
   with one [add_substring], and only ['"'], ['\\'] and the control bytes
   below 0x20 are written as escapes. *)
let add_escaped buf s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      if i > !start then Buffer.add_substring buf s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex.[Char.code c lsr 4];
          Buffer.add_char buf hex.[Char.code c land 15]);
      start := i + 1
    end
  done;
  if n > !start then Buffer.add_substring buf s !start (n - !start)

let add_num buf v =
  if Float.is_nan v || v = Float.infinity || v = Float.neg_infinity then
    Buffer.add_string buf "null"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.bprintf buf "%.0f" v
  else begin
    (* Shortest decimal that round-trips: 15 digits when they suffice,
       17 otherwise (IEEE 754 double). *)
    let short = Printf.sprintf "%.15g" v in
    if float_of_string short = v then Buffer.add_string buf short
    else Printf.bprintf buf "%.17g" v
  end

(* --- parsing -------------------------------------------------------- *)

exception Fail of int * string

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal lit v =
    let len = String.length lit in
    if !pos + len <= n && String.sub s !pos len = lit then begin
      pos := !pos + len;
      v
    end
    else fail ("expected " ^ lit)
  in
  (* Exactly four hex digits ([int_of_string] would also take a sign or
     an underscore). *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let p = !pos in
    pos := p + 4;
    let v = ref 0 in
    for k = p to p + 3 do
      let d =
        match s.[k] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v lsl 4) lor d
    done;
    !v
  in
  (* The end of the clean run from [i]: the next '"', '\\' or control
     byte (raw control bytes are not allowed in a JSON string). *)
  let rec clean i =
    if i < n then
      let c = String.unsafe_get s i in
      if c = '"' || c = '\\' || c < ' ' then i else clean (i + 1)
    else i
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = clean start in
    if stop < n && s.[stop] = '"' then begin
      (* No escape: the string is one run. *)
      pos := stop + 1;
      String.sub s start (stop - start)
    end
    else begin
      let buf = Buffer.create (stop - start + 16) in
      Buffer.add_substring buf s start (stop - start);
      pos := stop;
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        if c = '"' then begin
          incr pos;
          Buffer.contents buf
        end
        else if c = '\\' then begin
          incr pos;
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              (* Surrogate halves are not code points: a high half must be
                 followed by a low half (together one astral code point), and
                 anything else would make [add_utf8] emit invalid UTF-8. *)
              let cp = hex4 () in
              if cp >= 0xD800 && cp <= 0xDBFF then begin
                if
                  !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo < 0xDC00 || lo > 0xDFFF then
                    fail "high surrogate not followed by a low surrogate";
                  add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
                end
                else fail "unpaired high surrogate"
              end
              else if cp >= 0xDC00 && cp <= 0xDFFF then
                fail "unpaired low surrogate"
              else add_utf8 buf cp
          | _ -> fail "bad escape");
          go ()
        end
        else if c < ' ' then fail "control character in string"
        else begin
          let stop = clean !pos in
          Buffer.add_substring buf s !pos (stop - !pos);
          pos := stop;
          go ()
        end
      in
      go ()
    end
  in
  (* The full JSON number grammar, enforced by the scanner itself:
     [float_of_string_opt] is far laxer (it accepts "1.", "-.5", "01",
     hex, underscores), so validation cannot be delegated to it. *)
  let parse_number () =
    let start = !pos in
    let digit c = c >= '0' && c <= '9' in
    let digits1 what =
      let d0 = !pos in
      while !pos < n && digit s.[!pos] do
        incr pos
      done;
      if !pos = d0 then fail ("expected digit " ^ what)
    in
    if peek () = Some '-' then incr pos;
    (match peek () with
    | Some '0' ->
        incr pos;
        if !pos < n && digit s.[!pos] then fail "leading zero in number"
    | Some c when digit c -> digits1 "in number"
    | _ -> fail "expected digit in number");
    if peek () = Some '.' then begin
      incr pos;
      digits1 "after '.'"
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits1 "in exponent"
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let members = ref [] in
          let rec go () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = value () in
            members := (k, v) :: !members;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                go ()
            | Some '}' -> incr pos
            | _ -> fail "expected ',' or '}'"
          in
          go ();
          Obj (List.rev !members)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let items = ref [] in
          let rec go () =
            let v = value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                go ()
            | Some ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          go ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  try
    let v = value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
    else Ok v
  with Fail (p, m) -> Error (Printf.sprintf "%s at offset %d" m p)

(* --- rendering a tree (after [parse]: pretty output re-reads [Raw]) - *)

let render ~pretty j =
  let buf = Buffer.create 256 in
  let indent d =
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * d) ' ')
    end
  in
  let rec go d = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num v -> add_num buf v
    | Str s ->
        Buffer.add_char buf '"';
        add_escaped buf s;
        Buffer.add_char buf '"'
    | Raw s when not pretty -> Buffer.add_string buf s
    | Raw s -> (
        match parse s with
        | Ok v -> go d v
        | Error e -> invalid_arg ("Json.to_string: Raw is not JSON: " ^ e))
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            indent (d + 1);
            go (d + 1) item)
          items;
        indent d;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            indent (d + 1);
            Buffer.add_char buf '"';
            add_escaped buf k;
            Buffer.add_string buf (if pretty then "\": " else "\":");
            go (d + 1) v)
          fields;
        indent d;
        Buffer.add_char buf '}'
  in
  go 0 j;
  Buffer.contents buf

(* A top-level [Raw] is already the compact rendering. *)
let to_string ?(pretty = false) = function
  | Raw s when not pretty -> s
  | j -> render ~pretty j

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None
