(** Versioned response envelopes for the JSON-facing surfaces.

    Every machine-readable answer the tool emits — a [serve] response
    line, an entry of [batch --failures-json], a selfcheck repro
    descriptor — is one {!t}: a version tag, an optional problem name,
    and a body.  The JSON shape is
    [{"v": 1, "status": ..., ...body fields}], where [status] is one of
    ["ok"], ["fault"], ["infeasible"] or ["error"].  Consumers dispatch
    on [v] and [status] only; producers never hand-build response
    objects, so the three surfaces cannot drift apart.

    {!of_json} inverts {!to_json} exactly (the battery's [wire] property
    checks the round-trip through rendering and parsing), and rejects
    any version other than 1.  A solution answer has two bodies, one
    wire form: {!Levels} is what a long-lived producer ([serve]) renders
    through its {!runs} cache, and it reads back as the {!Solution} with
    the same pairs. *)

(** A long-lived producer's cache for its {!Levels} replies: one escaped
    ["name":] fragment per attribute and one escaped ["level"] fragment
    per level, each escaped once, and the last reply rendered, kept as
    runs of 64 consecutive attributes, each with the levels it was
    rendered from.  Rendering a {!Levels} body through it renders again
    only the runs whose attributes or levels differ from the cached ones,
    then joins the envelope and all runs into one string of exact size;
    when no run differs and the envelope is the last reply's, with no
    stats, it returns that reply's string itself — without comparing the
    runs when the body's levels are the very array rendered last, since a
    producer never writes a levels array it has rendered.  Names are
    append-only, so a cached run stays exact as long as its levels do.
    Mutable and single-domain: render one body at a time through it. *)
type runs

(** [runs levels] — an empty cache over the level strings [levels]: level
    [l] of a {!Levels} body is [levels.(l)]. *)
val runs : string array -> runs

(** [add_name r name] — the next attribute id of [r] is named [name]. *)
val add_name : runs -> string -> unit

(** The attribute names [r] holds. *)
val n_names : runs -> int

(** [(rendered, reused)]: how many runs the last {!Levels} body rendered
    through [r] rendered again, and how many it took from the cache;
    [(0, 0)] before the first. *)
val last_render : runs -> int * int

type body =
  | Solution of { assignment : (string * string) list; stats : Instr.t option }
      (** a successful solve: attribute -> level-string, in attribute-id
          order, plus optional operation counters *)
  | Levels of { levels : int array; runs : runs; stats : Instr.t option }
      (** the same answer as the {!Solution} whose pairs are, for each
          attribute id [i < Array.length levels], [runs]' [i]-th name and
          its level string of index [levels.(i)]; its JSON bytes are that
          {!Solution}'s, byte for byte.  [runs] may hold more names than
          [levels] has entries, never fewer ({!to_json} raises
          [Invalid_argument]).  Rendering it updates [runs] (see
          {!type-runs} and {!last_render}). *)
  | Fault of { fault : Fault.t; attempts : int; task : int option }
      (** a supervised task that kept failing; [task] is its batch index
          when the envelope describes one task of a batch *)
  | Infeasible of { detail : string }
      (** the instance admits no solution (conflicting lower bounds) *)
  | Error of { detail : string }
      (** the request itself is bad: parse error, unknown op, unknown
          session, … *)
  | Ack of { id : int option }
      (** a mutation was applied; [id] is the fresh constraint id for
          [add_constraint] *)

type t = { v : int; problem : string option; body : body }

(** Version-1 envelope. *)
val v1 : ?problem:string -> body -> t

(** The [status] string of the envelope: ["ok"] for {!Solution} and
    {!Ack}, ["fault"], ["infeasible"] or ["error"] for the others. *)
val status : t -> string

(** Structural: a {!Levels} body never equals a {!Solution}, even one
    with the same bytes. *)
val equal : t -> t -> bool

(** The JSON form.  Both solution bodies share one writer of the
    envelope's opening and closing and return the whole envelope as one
    string, sized up front, in a {!Minup_obs.Json.Raw}, which
    [Json.to_string] returns as is; the bytes are those of the tree
    [{"v", "status", "problem"?, "solution": {name: level, …}, "stats"?}]
    rendered compact.  A {!Solution} is written into one buffer; a
    {!Levels} body is joined from its cached runs (see {!type-runs}).
    Other bodies are small trees. *)
val to_json : t -> Minup_obs.Json.t

(** Reads a parsed document: a solution always reads back as
    {!Solution}. *)
val of_json : Minup_obs.Json.t -> (t, string) result

(** The (attribute, level string) pairs of a solution body, in attribute
    id order; [None] for any other body. *)
val solution_pairs : body -> (string * string) list option
