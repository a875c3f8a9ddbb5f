module Json = Minup_obs.Json
module Trace = Minup_obs.Trace
module Metrics = Minup_obs.Metrics
module Clock = Minup_obs.Clock
module Wire = Minup_core.Wire
module Explicit = Minup_lattice.Explicit
module Lattice_file = Minup_lattice.Lattice_file
module Parse = Minup_constraints.Parse
module S = Session.Make (Explicit)
module Solver = S.Solver

(* The sessions by name, each with the tick of its last use: a lookup
   restamps its entry in place, and only an [open] past the cap scans
   for the least recently used.  Each also keeps the cache its solution
   replies are rendered through, made at the first reply: its names are
   the session's first ones, and a reply adds only the names added since
   the last one. *)
type held = { session : S.t; mutable used : int; mutable runs : Wire.runs option }

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

(* Hold [session] as [name], most recently used; past the cap, the least
   recently used session goes. *)
let insert conn name session =
  let h = { session; used = 0; runs = None } in
  stamp conn h;
  Hashtbl.replace conn.sessions name h;
  if Hashtbl.length conn.sessions > conn.max_sessions then begin
    let victim, _ =
      Hashtbl.fold
        (fun name h (v, used) -> if h.used < used then (name, h.used) else (v, used))
        conn.sessions ("", max_int)
    in
    Hashtbl.remove conn.sessions victim;
    if Metrics.enabled () then Metrics.incr (Metrics.counter "serve/evicted")
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
   through its cache, which learns the names it lacks. *)
let solution_reply h problem levels stats =
  let runs =
    match h.runs with
    | Some runs -> runs
    | None ->
        let lat = S.lattice h.session in
        let runs =
          Wire.runs (Array.init (Explicit.cardinal lat) (Explicit.level_to_string lat))
        in
        h.runs <- Some runs;
        runs
  in
  for i = Wire.n_names runs to Array.length levels - 1 do
    Wire.add_name runs (S.name h.session i)
  done;
  Wire.v1 ~problem (Wire.Levels { levels; runs; stats })

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

exception Unknown_op

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
  | _ -> raise Unknown_op

(* The reply to one request line, and its op if the loop ran one: not
   for a line it could not read, an unknown session or an unknown op, so
   no request line can name a metric. *)
let handle conn line =
  let metering = Metrics.enabled () in
  if metering then Metrics.incr (Metrics.counter "serve/requests");
  let ((_, resp) as handled) =
    match Json.parse line with
    | Error msg -> (None, err ("request is not JSON: " ^ msg))
    | Ok doc -> (
        match (str_field "op" doc, str_field "problem" doc) with
        | None, problem -> (None, err ?problem "missing \"op\"")
        | Some _, None -> (None, err "missing \"problem\"")
        | Some op, Some problem -> (
            Trace.with_span ~cat:"serve" ("serve." ^ op) @@ fun () ->
            try
              if op = "open" then (Some op, open_session conn problem doc)
              else
                match find conn problem with
                | exception Not_found -> (None, errf ~problem "unknown session %S" problem)
                | h -> (
                    match dispatch conn op problem h doc with
                    | resp -> (Some op, resp)
                    | exception Unknown_op -> (None, errf ~problem "unknown op %S" op))
            with
            | (Sys.Break | Out_of_memory) as e -> raise e
            | e -> (Some op, err ~problem (Printexc.to_string e))))
  in
  if metering && Wire.status resp = "error" then
    Metrics.incr (Metrics.counter "serve/errors");
  handled

let handle_line conn line = snd (handle conn line)

let respond conn line =
  let metering = Metrics.enabled () in
  let t0 = if metering then Clock.now_ns () else 0L in
  let op, resp = handle conn line in
  let reply = Json.to_string (Wire.to_json resp) in
  if metering then begin
    Option.iter
      (fun op ->
        Metrics.observe
          (Metrics.histogram ("serve/" ^ op ^ "_ns"))
          (Int64.to_int (Clock.elapsed_ns ~since:t0)))
      op;
    match resp.Wire.body with
    | Wire.Levels { runs; _ } ->
        let rendered, reused = Wire.last_render runs in
        Metrics.add (Metrics.counter "serve/reply_runs_rendered") rendered;
        Metrics.add (Metrics.counter "serve/reply_runs_reused") reused
    | _ -> ()
  end;
  reply

let run conn ic oc =
  let continue = ref true in
  while !continue do
    match input_line ic with
    | exception End_of_file -> continue := false
    | line ->
        if String.trim line <> "" then begin
          output_string oc (respond conn line);
          output_char oc '\n';
          flush oc
        end
  done
