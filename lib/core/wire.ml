module Json = Minup_obs.Json

let run_size = 64

(* The fragments of one producer's [Levels] replies and the runs of its
   last one.  [keys.(i)], [i < n_keys], is attribute [i]'s escaped
   ["name":] and [values.(l)] level [l]'s escaped ["level"].  The first
   [n_rendered] entries of [rendered] are the levels the runs were last
   rendered from: [run.(r)] holds the members of attributes
   [r * run_size] to [min n_rendered ((r + 1) * run_size) - 1], joined by
   commas; the last render rendered [fresh] of them again.  [reply] is
   the last reply whose runs were all reused or rendered, with no stats,
   under the envelope of [head_of]; [head] is that envelope's opening, up
   to the solution's brace.  [last] is the levels array rendered last. *)
type runs = {
  mutable keys : string array;
  mutable n_keys : int;
  values : string array;
  mutable rendered : int array;
  mutable n_rendered : int;
  mutable run : string array;
  mutable fresh : int;
  mutable head_of : (int * string option) option;
  mutable head : string;
  mutable reply : string;
  mutable last : int array;
}

type body =
  | Solution of { assignment : (string * string) list; stats : Instr.t option }
  | Levels of { levels : int array; runs : runs; stats : Instr.t option }
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

let runs levels =
  {
    keys = [||];
    n_keys = 0;
    values = Array.map (fun l -> quoted l "\"") levels;
    rendered = [||];
    n_rendered = 0;
    run = [||];
    fresh = 0;
    head_of = None;
    head = "";
    reply = "";
    last = [||];
  }

let n_names r = r.n_keys
let n_runs n = (n + run_size - 1) / run_size
let last_render r = (r.fresh, n_runs r.n_rendered - r.fresh)

let add_name r name =
  if r.n_keys = Array.length r.keys then begin
    let keys = Array.make (max 64 (2 * r.n_keys)) "" in
    Array.blit r.keys 0 keys 0 r.n_keys;
    r.keys <- keys
  end;
  r.keys.(r.n_keys) <- quoted name "\":";
  r.n_keys <- r.n_keys + 1

(* The one solution writer, in three pieces: [head t] opens the envelope
   up to the solution's brace, the members follow, and [tail stats]
   closes it — [{"v":..,"status":"ok","problem":..,"solution":{..},
   "stats":{..}}], as [Json.to_string] writes the tree of the same
   envelope. *)
let head t =
  let buf = Buffer.create 64 in
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
  Buffer.contents buf

let tail = function
  | None -> "}}"
  | Some st -> "},\"stats\":" ^ Json.to_string (Instr.to_json st) ^ "}"

(* [s] written into [b] at [pos]; the position after it. *)
let put b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* Run [r] of [levels] from [runs]' fragments, into one exact-size
   string; [levels] is copied into [rendered]. *)
let render_run runs levels r =
  let lo = r * run_size and hi = min (Array.length levels) ((r + 1) * run_size) in
  let keys = runs.keys and values = runs.values in
  let size = ref (hi - lo - 1) in
  for i = lo to hi - 1 do
    size := !size + String.length keys.(i) + String.length values.(levels.(i))
  done;
  let b = Bytes.create !size and pos = ref 0 in
  for i = lo to hi - 1 do
    if i > lo then pos := put b !pos ",";
    pos := put b (put b !pos keys.(i)) values.(levels.(i));
    runs.rendered.(i) <- levels.(i)
  done;
  Bytes.unsafe_to_string b

(* Typed [int]: a polymorphic [=] here calls the generic compare per
   level, which made an unchanged reply about ten times slower. *)
let rec same (rendered : int array) (levels : int array) i hi =
  i = hi || (rendered.(i) = levels.(i) && same rendered levels (i + 1) hi)

(* Run [r] as cached covers the same attributes as [levels]' run [r], at
   the same levels. *)
let run_current runs levels r =
  let lo = r * run_size and hi = min (Array.length levels) ((r + 1) * run_size) in
  min runs.n_rendered ((r + 1) * run_size) = hi && same runs.rendered levels lo hi

let grow a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* A [Levels] reply: each run whose attributes or levels differ from the
   cached one is rendered again, then the envelope and all runs are
   joined into one exact-size string — or, when the reply has the last
   one's attributes, every run was reused and the envelope is the last
   reply's, with no stats, that reply is returned. *)
let render_levels t runs levels stats envelope =
  let n = Array.length levels in
  if n > runs.n_keys then invalid_arg "Wire.to_json: a Levels body has more levels than names";
  let n_runs = n_runs n in
  if Array.length runs.rendered < n then
    runs.rendered <- grow runs.rendered (max n (2 * Array.length runs.rendered)) 0;
  if Array.length runs.run < n_runs then
    runs.run <- grow runs.run (max n_runs (2 * Array.length runs.run)) "";
  let fresh = ref 0 and same_n = n = runs.n_rendered in
  for r = 0 to n_runs - 1 do
    if not (run_current runs levels r) then begin
      runs.run.(r) <- render_run runs levels r;
      incr fresh
    end
  done;
  runs.n_rendered <- n;
  runs.fresh <- !fresh;
  runs.last <- levels;
  if !fresh = 0 && same_n && stats = None && runs.reply <> "" && runs.head_of = envelope then
    runs.reply
  else begin
    if runs.head_of <> envelope then begin
      runs.head <- head t;
      runs.head_of <- envelope
    end;
    let tail = tail stats in
    let size = ref (String.length runs.head + max 0 (n_runs - 1) + String.length tail) in
    for r = 0 to n_runs - 1 do
      size := !size + String.length runs.run.(r)
    done;
    let b = Bytes.create !size in
    let pos = ref (put b 0 runs.head) in
    for r = 0 to n_runs - 1 do
      if r > 0 then pos := put b !pos ",";
      pos := put b !pos runs.run.(r)
    done;
    ignore (put b !pos tail);
    let reply = Bytes.unsafe_to_string b in
    runs.reply <- (if stats = None then reply else "");
    reply
  end

(* The levels array rendered last, under the same envelope with no
   stats, is that reply's, with no run compared. *)
let levels_json t runs levels stats =
  let envelope = Some (t.v, t.problem) in
  if levels == runs.last && stats = None && runs.reply <> "" && runs.head_of = envelope then begin
    runs.fresh <- 0;
    runs.reply
  end
  else render_levels t runs levels stats envelope

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
      let head = head t and tail = tail stats in
      let size =
        List.fold_left
          (fun n (a, l) -> n + String.length a + String.length l + 6)
          (String.length head + String.length tail)
          assignment
      in
      let buf = Buffer.create size in
      Buffer.add_string buf head;
      List.iteri
        (fun i (a, l) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Json.add_escaped buf a;
          Buffer.add_string buf "\":\"";
          Json.add_escaped buf l;
          Buffer.add_char buf '"')
        assignment;
      Buffer.add_string buf tail;
      Json.Raw (Buffer.contents buf)
  | Levels { levels; runs; stats } -> Json.Raw (levels_json t runs levels stats)
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
  | Levels { levels; runs; _ } ->
      Some
        (List.init (Array.length levels) (fun i ->
             match Json.parse ("{" ^ runs.keys.(i) ^ runs.values.(levels.(i)) ^ "}") with
             | Stdlib.Ok (Json.Obj [ (a, Json.Str l) ]) -> (a, l)
             | _ -> invalid_arg "Wire.solution_pairs: malformed fragment"))
  | Fault _ | Infeasible _ | Error _ | Ack _ -> None
