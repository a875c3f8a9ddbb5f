module Json = Minup_obs.Json
module Trace = Minup_obs.Trace
module Metrics = Minup_obs.Metrics
module Wire = Minup_core.Wire
module Explicit = Minup_lattice.Explicit
module Lattice_file = Minup_lattice.Lattice_file
module Parse = Minup_constraints.Parse
module S = Session.Make (Explicit)
module Solver = S.Solver

(* The sessions by name, each with the tick of its last use: a lookup
   restamps its entry in place, and only an [open] past the cap scans
   for the least recently used.  Each also keeps the fragments its
   solution replies are written from: [keys.(i)], for [i < n_keys], is
   attribute [i]'s escaped ["name":] and [values.(l)] level [l]'s escaped
   ["level"], both empty until the first reply.  Names are append-only,
   so a key once escaped stays right; a reply escapes only the names
   added since the last one. *)
type held = {
  session : S.t;
  mutable used : int;
  mutable keys : string array;
  mutable n_keys : int;
  mutable values : string array;
}

type conn = {
  max_sessions : int;
  deadline_ms : int option;
  max_steps : int option;
  sessions : (string, held) Hashtbl.t;
  mutable tick : int;
}

let create ?(max_sessions = 8) ?deadline_ms ?max_steps () =
  if max_sessions < 1 then invalid_arg "Serve.create: max_sessions < 1";
  { max_sessions; deadline_ms; max_steps; sessions = Hashtbl.create 16; tick = 0 }

let session_names conn =
  Hashtbl.fold (fun name h acc -> (h.used, name) :: acc) conn.sessions []
  |> List.sort (fun (u, _) (v, _) -> Int.compare v u)
  |> List.map snd

let err ?problem detail = Wire.v1 ?problem (Wire.Error { detail })
let errf ?problem fmt = Format.kasprintf (err ?problem) fmt

let str_field name doc =
  match Json.member name doc with Some (Json.Str s) -> Some s | _ -> None

(* An optional count field: [Ok None] if absent or null, the integer if
   it is one JSON numbers hold exactly ([0, 2^53), so [int_of_float]
   cannot wrap), otherwise an error naming the field. *)
let int_field name doc =
  match Json.member name doc with
  | None | Some Json.Null -> Ok None
  | Some (Json.Num f) when Float.is_integer f && f >= 0. && f < 0x1p53 ->
      Ok (Some (int_of_float f))
  | Some _ -> Error (Printf.sprintf "%S must be an integer in [0, 2^53)" name)

(* An attribute name field the policy syntax can express. *)
let attr_field doc =
  match Json.member "attr" doc with
  | Some (Json.Str a) when Parse.is_ident a -> Ok a
  | Some (Json.Str a) -> Error (Printf.sprintf "invalid attribute name %S" a)
  | _ -> Error "missing \"attr\""

let stamp conn h =
  conn.tick <- conn.tick + 1;
  h.used <- conn.tick

(* The session held as [name], marked most recently used; raises
   [Not_found] if there is none.  Allocates nothing. *)
let find conn name =
  let h = Hashtbl.find conn.sessions name in
  stamp conn h;
  h

let evictions = lazy (Metrics.counter "serve/evicted")

(* Hold [session] as [name], most recently used; past the cap, the least
   recently used session goes. *)
let insert conn name session =
  let h = { session; used = 0; keys = [||]; n_keys = 0; values = [||] } in
  stamp conn h;
  Hashtbl.replace conn.sessions name h;
  if Hashtbl.length conn.sessions > conn.max_sessions then begin
    let victim, _ =
      Hashtbl.fold
        (fun name h (v, used) -> if h.used < used then (name, h.used) else (v, used))
        conn.sessions ("", max_int)
    in
    Hashtbl.remove conn.sessions victim;
    if Metrics.enabled () then Metrics.incr (Lazy.force evictions)
  end

(* One policy-format line, resolved against the session's lattice. *)
let parse_constraint session text =
  let lat = S.lattice session in
  match Parse.parse_resolve ~level_of_string:(Explicit.level_of_string lat) text with
  | Error e -> Error (Format.asprintf "%a" Parse.pp_error e)
  | Ok { Parse.upper_bounds = _ :: _; _ } ->
      Error "upper-bound (<=) lines are not constraints; pass \"bounds\" to resolve"
  | Ok { Parse.csts = [ c ]; _ } -> Ok c
  | Ok { Parse.csts; _ } ->
      Error
        (Printf.sprintf "expected exactly one constraint, got %d"
           (List.length csts))

let open_session conn problem doc =
  match str_field "lattice" doc with
  | None -> err ~problem "open: missing \"lattice\""
  | Some lattice_text -> (
      match Lattice_file.parse lattice_text with
      | Error e -> errf ~problem "open: lattice: %a" Lattice_file.pp_error e
      | Ok lat -> (
          let constraints = Option.value ~default:"" (str_field "constraints" doc) in
          match Parse.rows ~level_of_string:(Explicit.level_of_string lat) constraints with
          | Error e -> errf ~problem "open: constraints: %a" Parse.pp_error e
          | Ok { Parse.upper_bounds = _ :: _; _ } ->
              err ~problem
                "open: policy has upper-bound (<=) lines; pass \"bounds\" to \
                 resolve instead"
          | Ok rows ->
              insert conn problem (S.of_rows ~lattice:lat rows);
              Wire.v1 ~problem (Wire.Ack { id = None })))

(* A solution reply over [h]'s first [Array.length levels] attributes,
   from its fragments, escaping those not cached yet. *)
let solution_reply h problem levels stats =
  let n = Array.length levels in
  if Array.length h.values = 0 then begin
    let lat = S.lattice h.session in
    h.values <-
      Array.init (Explicit.cardinal lat) (fun l ->
          Wire.value_fragment (Explicit.level_to_string lat l))
  end;
  if n > h.n_keys then begin
    if n > Array.length h.keys then begin
      let keys = Array.make (max n (2 * h.n_keys)) "" in
      Array.blit h.keys 0 keys 0 h.n_keys;
      h.keys <- keys
    end;
    for i = h.n_keys to n - 1 do
      h.keys.(i) <- Wire.key_fragment (S.name h.session i)
    done;
    h.n_keys <- n
  end;
  Wire.v1 ~problem (Wire.Levels { levels; keys = h.keys; values = h.values; stats })

let resolve_under ?budget problem h doc =
  let session = h.session in
  let lat = S.lattice session in
  let config = Solver.Config.make ?budget () in
  let want_stats =
    match Json.member "stats" doc with Some (Json.Bool true) -> true | _ -> false
  in
  (* [Ok None]: a plain resolve; [Ok (Some bl)]: a §6 upper-bounded one. *)
  let bounds =
    match Json.member "bounds" doc with
    | Some (Json.Obj fields) ->
        List.fold_left
          (fun acc (a, j) ->
            match acc with
            | Error _ -> acc
            | Ok bl -> (
                match j with
                | Json.Str s -> (
                    match Explicit.level_of_string lat s with
                    | Some l -> Ok ((a, l) :: bl)
                    | None -> Error (Printf.sprintf "unknown level %S" s))
                | _ -> Error (Printf.sprintf "bound of %S is not a string" a)))
          (Ok []) fields
        |> Result.map (fun bl -> Some (List.rev bl))
    | Some _ -> Error "\"bounds\" is not an object"
    | None -> Ok None
  in
  let solve = function
    | None -> Ok (S.resolve ~config session)
    | Some bl -> S.resolve_with_bounds ~config session bl
  in
  match bounds with
  | Error detail -> err ~problem ("resolve: " ^ detail)
  | Ok bounds -> (
      match solve bounds with
      | Ok (sol : Solver.solution) ->
          solution_reply h problem sol.Solver.levels
            (if want_stats then Some sol.Solver.stats else None)
      | Error (Solver.Unknown_attr a) ->
          errf ~problem "resolve: bound on unknown attribute %S" a
      | Error inc ->
          Wire.v1 ~problem
            (Wire.Infeasible
               { detail = Format.asprintf "%a" (Solver.pp_inconsistency lat) inc })
      | exception Solver.Cancelled { reason; progress } ->
          let fault = Solver.fault_of_cancelled reason progress in
          Wire.v1 ~problem (Wire.Fault { fault; attempts = 1; task = None }))

(* The request's budget fields override the connection's defaults. *)
let resolve_op conn problem h doc =
  let limit name default =
    Result.map (function None -> default | d -> d) (int_field name doc)
  in
  match (limit "deadline_ms" conn.deadline_ms, limit "max_steps" conn.max_steps) with
  | Error detail, _ | _, Error detail -> err ~problem ("resolve: " ^ detail)
  | Ok None, Ok None -> resolve_under problem h doc
  | Ok deadline_ms, Ok max_steps ->
      resolve_under ~budget:(Minup_core.Solver.budget ?deadline_ms ?max_steps ()) problem
        h doc

let dispatch conn op problem h doc =
  let session = h.session in
  match op with
  | "add_constraint" -> (
      match str_field "constraint" doc with
      | None -> err ~problem "add_constraint: missing \"constraint\""
      | Some text -> (
          match parse_constraint session text with
          | Error detail -> err ~problem ("add_constraint: " ^ detail)
          | Ok c ->
              let id = S.add_constraint session c in
              Wire.v1 ~problem (Wire.Ack { id = Some id })))
  | "remove_constraint" -> (
      match int_field "id" doc with
      | Error detail -> err ~problem ("remove_constraint: " ^ detail)
      | Ok None -> err ~problem "remove_constraint: missing \"id\""
      | Ok (Some id) ->
          if S.remove_constraint session id then
            Wire.v1 ~problem (Wire.Ack { id = Some id })
          else errf ~problem "remove_constraint: unknown constraint id %d" id)
  | "set_lower_bound" -> (
      match attr_field doc with
      | Error detail -> err ~problem ("set_lower_bound: " ^ detail)
      | Ok attr -> (
          match Json.member "level" doc with
          | None | Some Json.Null ->
              S.set_lower_bound session attr None;
              Wire.v1 ~problem (Wire.Ack { id = None })
          | Some (Json.Str s) -> (
              match Explicit.level_of_string (S.lattice session) s with
              | None -> errf ~problem "set_lower_bound: unknown level %S" s
              | Some l ->
                  S.set_lower_bound session attr (Some l);
                  Wire.v1 ~problem (Wire.Ack { id = None }))
          | Some _ -> err ~problem "set_lower_bound: \"level\" is not a string"))
  | "add_attribute" -> (
      match attr_field doc with
      | Error detail -> err ~problem ("add_attribute: " ^ detail)
      | Ok attr ->
          S.add_attribute session attr;
          Wire.v1 ~problem (Wire.Ack { id = None }))
  | "resolve" -> resolve_op conn problem h doc
  | "close" ->
      Hashtbl.remove conn.sessions problem;
      Wire.v1 ~problem (Wire.Ack { id = None })
  | op -> errf ~problem "unknown op %S" op

let requests = lazy (Metrics.counter "serve/requests")
let errors = lazy (Metrics.counter "serve/errors")

let handle_line conn line =
  let metering = Metrics.enabled () in
  if metering then Metrics.incr (Lazy.force requests);
  let resp =
    match Json.parse line with
    | Error msg -> err ("request is not JSON: " ^ msg)
    | Ok doc -> (
        match (str_field "op" doc, str_field "problem" doc) with
        | None, problem -> err ?problem "missing \"op\""
        | Some _, None -> err "missing \"problem\""
        | Some op, Some problem -> (
            Trace.with_span ~cat:"serve" ("serve." ^ op) @@ fun () ->
            try
              if op = "open" then open_session conn problem doc
              else
                match find conn problem with
                | h -> dispatch conn op problem h doc
                | exception Not_found -> errf ~problem "unknown session %S" problem
            with
            | (Sys.Break | Out_of_memory) as e -> raise e
            | e -> err ~problem (Printexc.to_string e)))
  in
  if metering && Wire.status resp = "error" then
    Metrics.incr (Lazy.force errors);
  resp

let run conn ic oc =
  let continue = ref true in
  while !continue do
    match input_line ic with
    | exception End_of_file -> continue := false
    | line ->
        if String.trim line <> "" then begin
          let resp = handle_line conn line in
          output_string oc (Json.to_string (Wire.to_json resp));
          output_char oc '\n';
          flush oc
        end
  done
