type arg = Int of int | Float of float | Str of string | Bool of bool

type event = {
  ph : char;
  name : string;
  cat : string;
  ts_ns : int64;
  tid : int;
  args : (string * arg) list;
}

(* One buffer per (domain, collection generation).  The emit path touches
   only domain-local state; the registry mutex is taken once per domain per
   collection, at first emit.  [generation] invalidates buffers cached in
   domain-local storage by earlier collections (domains survive a
   [start ()]; their buffers must not). *)
type buf = {
  tid : int;
  gen : int;
  mutable events : event list;  (* newest first *)
  mutable count : int;
  mutable open_spans : (string * string) list;
      (* (name, cat) of every span begun but not yet ended on this domain,
         innermost first — consulted by [unwind_to] to close spans
         abandoned when an exception unwinds past their [end_span] site. *)
}

let enabled_flag = Atomic.make false
let generation = Atomic.make 0
let registry_lock = Mutex.create ()
let registry : buf list ref = ref []

let key : buf option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let enabled () = Atomic.get enabled_flag

let buffer () =
  let slot = Domain.DLS.get key in
  let gen = Atomic.get generation in
  match !slot with
  | Some b when b.gen = gen -> b
  | _ ->
      let b =
        {
          tid = (Domain.self () :> int);
          gen;
          events = [];
          count = 0;
          open_spans = [];
        }
      in
      Mutex.lock registry_lock;
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      slot := Some b;
      b

let emit ph ?ts_ns ?(args = []) ?(cat = "minup") name =
  if Atomic.get enabled_flag then begin
    let b = buffer () in
    let ts_ns = match ts_ns with Some t -> t | None -> Clock.now_ns () in
    b.events <- { ph; name; cat; ts_ns; tid = b.tid; args } :: b.events;
    b.count <- b.count + 1;
    if ph = 'B' then b.open_spans <- (name, cat) :: b.open_spans
    else
      match b.open_spans with [] -> () | _ :: rest -> b.open_spans <- rest
  end

let begin_span ?ts_ns ?args ?cat name = emit 'B' ?ts_ns ?args ?cat name
let end_span ?ts_ns ?args ?cat name = emit 'E' ?ts_ns ?args ?cat name

let open_depth () =
  if Atomic.get enabled_flag then List.length (buffer ()).open_spans else 0

let unwind_to depth =
  if Atomic.get enabled_flag then begin
    let b = buffer () in
    while List.length b.open_spans > depth do
      match b.open_spans with
      | (name, cat) :: _ -> end_span ~cat name
      | [] -> assert false
    done
  end

let with_span ?args ?cat name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    begin_span ?args ?cat name;
    Fun.protect ~finally:(fun () -> end_span ?cat name) f
  end

let start () =
  Mutex.lock registry_lock;
  registry := [];
  Mutex.unlock registry_lock;
  Atomic.incr generation;
  Atomic.set enabled_flag true

let stop () = Atomic.set enabled_flag false

let buffers () =
  Mutex.lock registry_lock;
  let bufs = !registry in
  Mutex.unlock registry_lock;
  bufs

let events () =
  let all = List.concat_map (fun b -> List.rev b.events) (buffers ()) in
  (* Per-buffer lists are already chronological (monotonic clock within a
     domain); a stable sort on the timestamp therefore preserves each
     domain's B/E ordering even for equal timestamps. *)
  List.stable_sort (fun a b -> Int64.compare a.ts_ns b.ts_ns) all

let event_count () =
  List.fold_left (fun acc b -> acc + b.count) 0 (buffers ())

let json_of_arg = function
  | Int i -> Json.Num (float_of_int i)
  | Float f -> Json.Num f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let to_json () =
  let evs = events () in
  let t0 = match evs with [] -> 0L | e :: _ -> e.ts_ns in
  let meta_event ~tid name args =
    Json.Obj
      [
        ("name", Json.Str name);
        ("ph", Json.Str "M");
        ("pid", Json.Num 1.);
        ("tid", Json.Num (float_of_int tid));
        ("args", Json.Obj args);
      ]
  in
  let tids =
    List.sort_uniq compare (List.map (fun (e : event) -> e.tid) evs)
  in
  let meta =
    meta_event ~tid:0 "process_name" [ ("name", Json.Str "minup") ]
    :: List.map
         (fun tid ->
           meta_event ~tid "thread_name"
             [ ("name", Json.Str (Printf.sprintf "domain %d" tid)) ])
         tids
  in
  let event_json e =
    Json.Obj
      ([
         ("name", Json.Str e.name);
         ("cat", Json.Str e.cat);
         ("ph", Json.Str (String.make 1 e.ph));
         ("ts", Json.Num (Clock.ns_to_us (Int64.sub e.ts_ns t0)));
         ("pid", Json.Num 1.);
         ("tid", Json.Num (float_of_int e.tid));
       ]
      @
      match e.args with
      | [] -> []
      | args ->
          [ ("args", Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) args)) ])
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (meta @ List.map event_json evs));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string (to_json ()));
      output_char oc '\n')
