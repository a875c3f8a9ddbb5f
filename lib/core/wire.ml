module Json = Minup_obs.Json

type body =
  | Solution of { assignment : (string * string) list; stats : Instr.t option }
  | Levels of {
      levels : int array;
      keys : string array;
      values : string array;
      stats : Instr.t option;
    }
  | Fault of { fault : Fault.t; attempts : int; task : int option }
  | Infeasible of { detail : string }
  | Error of { detail : string }
  | Ack of { id : int option }

type t = { v : int; problem : string option; body : body }

let v1 ?problem body = { v = 1; problem; body }

let status t =
  match t.body with
  | Solution _ | Levels _ | Ack _ -> "ok"
  | Fault _ -> "fault"
  | Infeasible _ -> "infeasible"
  | Error _ -> "error"

let equal a b = a = b

let quoted s close =
  let buf = Buffer.create (String.length s + 3) in
  Buffer.add_char buf '"';
  Json.add_escaped buf s;
  Buffer.add_string buf close;
  Buffer.contents buf

let key_fragment name = quoted name "\":"
let value_fragment level = quoted level "\""

(* The one solution writer: [{"v":..,"status":"ok","problem":..,
   "solution":{..},"stats":{..}}], as [Json.to_string] writes the tree of
   the same envelope, filled into one buffer of [size] bytes plus the
   envelope's own.  [members buf] writes the solution's members. *)
let solution_json t ~size ~stats members =
  let stats = Option.map (fun st -> Json.to_string (Instr.to_json st)) stats in
  let len = function None -> 0 | Some s -> String.length s + 16 in
  let buf = Buffer.create (size + 48 + len t.problem + len stats) in
  Buffer.add_string buf "{\"v\":";
  Buffer.add_string buf (Json.to_string (Json.Num (float_of_int t.v)));
  Buffer.add_string buf ",\"status\":\"ok\"";
  Option.iter
    (fun p ->
      Buffer.add_string buf ",\"problem\":\"";
      Json.add_escaped buf p;
      Buffer.add_char buf '"')
    t.problem;
  Buffer.add_string buf ",\"solution\":{";
  members buf;
  Buffer.add_char buf '}';
  Option.iter
    (fun st ->
      Buffer.add_string buf ",\"stats\":";
      Buffer.add_string buf st)
    stats;
  Buffer.add_char buf '}';
  Json.Raw (Buffer.contents buf)

(* A small envelope, as a tree. *)
let envelope t fields =
  Json.Obj
    (("v", Json.Num (float_of_int t.v))
    :: ("status", Json.Str (status t))
    :: ((match t.problem with
        | None -> []
        | Some p -> [ ("problem", Json.Str p) ])
       @ fields))

let to_json t =
  match t.body with
  | Solution { assignment; stats } ->
      let size =
        List.fold_left
          (fun n (a, l) -> n + String.length a + String.length l + 6)
          0 assignment
      in
      solution_json t ~size ~stats (fun buf ->
          List.iteri
            (fun i (a, l) ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_char buf '"';
              Json.add_escaped buf a;
              Buffer.add_string buf "\":\"";
              Json.add_escaped buf l;
              Buffer.add_char buf '"')
            assignment)
  | Levels { levels; keys; values; stats } ->
      let n = Array.length levels in
      let size = ref (max 0 (n - 1)) in
      for i = 0 to n - 1 do
        size := !size + String.length keys.(i) + String.length values.(levels.(i))
      done;
      solution_json t ~size:!size ~stats (fun buf ->
          for i = 0 to n - 1 do
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf keys.(i);
            Buffer.add_string buf values.(levels.(i))
          done)
  | Fault { fault; attempts; task } ->
      envelope t
        ((match task with
         | None -> []
         | Some i -> [ ("task", Json.Num (float_of_int i)) ])
        @ [
            ("attempts", Json.Num (float_of_int attempts));
            ("fault", Fault.to_json fault);
          ])
  | Infeasible { detail } | Error { detail } ->
      envelope t [ ("detail", Json.Str detail) ]
  | Ack { id } ->
      envelope t
        (match id with
        | None -> []
        | Some i -> [ ("id", Json.Num (float_of_int i)) ])

let as_int name j =
  match j with
  | Json.Num f when Float.is_integer f -> Stdlib.Ok (int_of_float f)
  | _ -> Stdlib.Error (Printf.sprintf "Wire.of_json: %S is not an integer" name)

let opt_int name doc =
  match Json.member name doc with
  | None -> Stdlib.Ok None
  | Some j -> Result.map Option.some (as_int name j)

let req_str name doc =
  match Json.member name doc with
  | Some (Json.Str s) -> Stdlib.Ok s
  | _ -> Stdlib.Error (Printf.sprintf "Wire.of_json: missing string %S" name)

let ( let* ) = Result.bind

let of_json doc =
  match doc with
  | Json.Obj _ -> (
      let* v =
        match Json.member "v" doc with
        | Some j -> as_int "v" j
        | None -> Stdlib.Error "Wire.of_json: missing version field \"v\""
      in
      if v <> 1 then
        Stdlib.Error (Printf.sprintf "Wire.of_json: unsupported version %d" v)
      else
        let* st = req_str "status" doc in
        let* problem =
          match Json.member "problem" doc with
          | None -> Stdlib.Ok None
          | Some (Json.Str p) -> Stdlib.Ok (Some p)
          | Some _ -> Stdlib.Error "Wire.of_json: \"problem\" is not a string"
        in
        let* body =
          match st with
          | "ok" -> (
              match Json.member "solution" doc with
              | Some (Json.Obj fields) ->
                  let* assignment =
                    List.fold_left
                      (fun acc (a, j) ->
                        let* acc = acc in
                        match j with
                        | Json.Str l -> Stdlib.Ok ((a, l) :: acc)
                        | _ ->
                            Stdlib.Error
                              (Printf.sprintf
                                 "Wire.of_json: level of %S is not a string" a))
                      (Stdlib.Ok []) fields
                  in
                  let assignment = List.rev assignment in
                  let* stats =
                    match Json.member "stats" doc with
                    | None -> Stdlib.Ok None
                    | Some j -> Result.map Option.some (Instr.of_json j)
                  in
                  Stdlib.Ok (Solution { assignment; stats })
              | Some _ ->
                  Stdlib.Error "Wire.of_json: \"solution\" is not an object"
              | None ->
                  let* id = opt_int "id" doc in
                  Stdlib.Ok (Ack { id }))
          | "fault" ->
              let* fault =
                match Json.member "fault" doc with
                | Some j -> Fault.of_json j
                | None -> Stdlib.Error "Wire.of_json: missing \"fault\""
              in
              let* attempts =
                match Json.member "attempts" doc with
                | Some j -> as_int "attempts" j
                | None -> Stdlib.Error "Wire.of_json: missing \"attempts\""
              in
              let* task = opt_int "task" doc in
              Stdlib.Ok (Fault { fault; attempts; task })
          | "infeasible" ->
              let* detail = req_str "detail" doc in
              Stdlib.Ok (Infeasible { detail })
          | "error" ->
              let* detail = req_str "detail" doc in
              Stdlib.Ok (Error { detail })
          | other ->
              Stdlib.Error
                (Printf.sprintf "Wire.of_json: unknown status %S" other)
        in
        Stdlib.Ok { v; problem; body })
  | _ -> Stdlib.Error "Wire.of_json: expected an object"

(* A [Levels] body's pairs: each member re-read from its two fragments. *)
let solution_pairs = function
  | Solution { assignment; _ } -> Some assignment
  | Levels { levels; keys; values; _ } ->
      Some
        (List.init (Array.length levels) (fun i ->
             match Json.parse ("{" ^ keys.(i) ^ values.(levels.(i)) ^ "}") with
             | Stdlib.Ok (Json.Obj [ (a, Json.Str l) ]) -> (a, l)
             | _ -> invalid_arg "Wire.solution_pairs: malformed fragment"))
  | Fault _ | Infeasible _ | Error _ | Ack _ -> None
