module Json = Minup_obs.Json
module Trace = Minup_obs.Trace
module Metrics = Minup_obs.Metrics
module Wire = Minup_core.Wire
module Explicit = Minup_lattice.Explicit
module Lattice_file = Minup_lattice.Lattice_file
module Parse = Minup_constraints.Parse
module S = Session.Make (Explicit)
module Solver = S.Solver

type conn = {
  max_sessions : int;
  deadline_ms : int option;
  max_steps : int option;
  mutable sessions : (string * S.t) list;  (** most recently used first *)
}

let create ?(max_sessions = 8) ?deadline_ms ?max_steps () =
  if max_sessions < 1 then invalid_arg "Serve.create: max_sessions < 1";
  { max_sessions; deadline_ms; max_steps; sessions = [] }

let session_names conn = List.map fst conn.sessions

let err ?problem detail = Wire.v1 ?problem (Wire.Error { detail })
let errf ?problem fmt = Format.kasprintf (err ?problem) fmt

let str_field name doc =
  match Json.member name doc with Some (Json.Str s) -> Some s | _ -> None

let int_field name doc =
  match Json.member name doc with
  | Some (Json.Num f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

(* Find a session and mark it most recently used. *)
let find conn name =
  match List.assoc_opt name conn.sessions with
  | None -> None
  | Some s ->
      conn.sessions <- (name, s) :: List.remove_assoc name conn.sessions;
      Some s

let evictions = lazy (Metrics.counter "serve/evicted")

let insert conn name session =
  conn.sessions <- (name, session) :: List.remove_assoc name conn.sessions;
  let rec take k = function
    | [] -> ([], 0)
    | _ :: rest when k = 0 -> ([], 1 + List.length rest)
    | x :: rest ->
        let kept, dropped = take (k - 1) rest in
        (x :: kept, dropped)
  in
  let kept, dropped = take conn.max_sessions conn.sessions in
  conn.sessions <- kept;
  if dropped > 0 && Metrics.enabled () then
    Metrics.add (Lazy.force evictions) dropped

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
          match
            Parse.parse_resolve
              ~level_of_string:(Explicit.level_of_string lat)
              constraints
          with
          | Error e -> errf ~problem "open: constraints: %a" Parse.pp_error e
          | Ok { Parse.upper_bounds = _ :: _; _ } ->
              err ~problem
                "open: policy has upper-bound (<=) lines; pass \"bounds\" to \
                 resolve instead"
          | Ok { Parse.attrs; csts; _ } ->
              insert conn problem (S.create ~lattice:lat ~attrs csts);
              Wire.v1 ~problem (Wire.Ack { id = None })))

let render_assignment lat assignment =
  List.map (fun (a, l) -> (a, Explicit.level_to_string lat l)) assignment

let resolve_op conn problem session doc =
  let lat = S.lattice session in
  let deadline_ms =
    match int_field "deadline_ms" doc with Some _ as d -> d | None -> conn.deadline_ms
  in
  let max_steps =
    match int_field "max_steps" doc with Some _ as s -> s | None -> conn.max_steps
  in
  let budget =
    if deadline_ms <> None || max_steps <> None then
      Some (Minup_core.Solver.budget ?deadline_ms ?max_steps ())
    else None
  in
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
          Wire.v1 ~problem
            (Wire.Solution
               {
                 assignment = render_assignment lat sol.Solver.assignment;
                 stats = (if want_stats then Some sol.Solver.stats else None);
               })
      | Error (Solver.Unknown_attr a) ->
          errf ~problem "resolve: bound on unknown attribute %S" a
      | Error inc ->
          Wire.v1 ~problem
            (Wire.Infeasible
               { detail = Format.asprintf "%a" (Solver.pp_inconsistency lat) inc })
      | exception Solver.Cancelled { reason; progress } ->
          let fault = Solver.fault_of_cancelled reason progress in
          Wire.v1 ~problem (Wire.Fault { fault; attempts = 1; task = None }))

let dispatch conn op problem session doc =
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
      | None -> err ~problem "remove_constraint: missing \"id\""
      | Some id ->
          if S.remove_constraint session id then
            Wire.v1 ~problem (Wire.Ack { id = Some id })
          else errf ~problem "remove_constraint: unknown constraint id %d" id)
  | "set_lower_bound" -> (
      match str_field "attr" doc with
      | None -> err ~problem "set_lower_bound: missing \"attr\""
      | Some attr -> (
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
      match str_field "attr" doc with
      | None -> err ~problem "add_attribute: missing \"attr\""
      | Some attr ->
          S.add_attribute session attr;
          Wire.v1 ~problem (Wire.Ack { id = None }))
  | "resolve" -> resolve_op conn problem session doc
  | "close" ->
      conn.sessions <- List.remove_assoc problem conn.sessions;
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
                | None -> errf ~problem "unknown session %S" problem
                | Some session -> dispatch conn op problem session doc
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
