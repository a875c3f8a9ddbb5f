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
    wire form: {!Levels} is what a long-lived producer ([serve]) builds
    from cached fragments, and it reads back as the {!Solution} with the
    same pairs. *)

type body =
  | Solution of { assignment : (string * string) list; stats : Instr.t option }
      (** a successful solve: attribute -> level-string, in attribute-id
          order, plus optional operation counters *)
  | Levels of {
      levels : int array;
      keys : string array;
      values : string array;
      stats : Instr.t option;
    }
      (** the same answer as the {!Solution} whose pairs are, for each
          attribute id [i < Array.length levels], the name in [keys.(i)]
          and the level string in [values.(levels.(i))]; its JSON bytes
          are that {!Solution}'s, byte for byte.  [keys.(i)] is
          {!key_fragment} of the name and [values.(l)] {!value_fragment}
          of level [l]'s string: escaped once and reused for every reply,
          so a reply copies fragments instead of building and escaping
          a tree.  [keys] may be longer than [levels]. *)
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

(** ["name":], escaped by {!Minup_obs.Json.add_escaped}: a {!Levels} key. *)
val key_fragment : string -> string

(** ["level"], escaped by {!Minup_obs.Json.add_escaped}: a {!Levels}
    value. *)
val value_fragment : string -> string

(** The JSON form.  Both solution bodies go through one writer that fills
    one buffer, sized up front, with the whole envelope and returns it as
    one {!Minup_obs.Json.Raw}, which [Json.to_string] returns as is; the
    bytes are those of the tree [{"v", "status", "problem"?,
    "solution": {name: level, …}, "stats"?}] rendered compact.  Other
    bodies are small trees. *)
val to_json : t -> Minup_obs.Json.t

(** Reads a parsed document: a solution always reads back as
    {!Solution}. *)
val of_json : Minup_obs.Json.t -> (t, string) result

(** The (attribute, level string) pairs of a solution body, in attribute
    id order; [None] for any other body. *)
val solution_pairs : body -> (string * string) list option
