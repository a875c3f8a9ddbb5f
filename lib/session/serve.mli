(** [mlsclassify serve] — an NDJSON request/response loop over sessions.

    One request per line, one {!Minup_core.Wire} response envelope per
    line, in order.  Requests are JSON objects with an ["op"] field and,
    for every op but [open] on a fresh name, the ["problem"] field naming
    the session:

    - [{"op": "open", "problem": p, "lattice": text, "constraints": text}]
      — create (or replace) session [p] from a lattice file and an
      optional policy file, both passed inline as text.  Policies with
      [<=] lines are rejected: upper bounds are per-resolve inputs.  The
      policy is resolved straight to lines over attribute ids
      ({!Minup_constraints.Parse.rows}), which the session adopts whole
      ({!Session.Make.of_rows}): no constraint list and no store is
      built, and no name is hashed again, now or at the first resolve,
      which builds the session's one store.
    - [{"op": "add_constraint", "problem": p, "constraint": line}] — parse
      one policy line and add it; the response [Ack] carries the fresh
      constraint id.
    - [{"op": "remove_constraint", "problem": p, "id": n}]
    - [{"op": "set_lower_bound", "problem": p, "attr": a, "level": l}] —
      omit ["level"] (or pass [null]) to clear the bound.
    - [{"op": "add_attribute", "problem": p, "attr": a}]
    - [{"op": "resolve", "problem": p, ...}] — re-solve incrementally (see
      {!Session}).  Optional fields: ["deadline_ms"] and ["max_steps"]
      build a {!Minup_core.Solver.budget} (falling back to the
      connection-wide defaults); a cancelled solve answers with a
      [status: "fault"] envelope carrying the {!Minup_core.Fault.t}.
      ["bounds"] (object of attr -> level) runs the §6 upper-bounded
      solve instead, answering [status: "infeasible"] when the bounds
      conflict.  ["stats": true] includes the operation counters.
    - [{"op": "close", "problem": p}]

    Anything else — unparseable line, unknown op, unknown session, bad
    field — answers a [status: "error"] envelope; the loop never dies on
    a bad request.  Sessions are kept in a table by name, each stamped
    with its last use, capped at [max_sessions]: a request's lookup
    restamps in place and allocates nothing, and opening one beyond the
    cap silently evicts the least recently used (one scan of the table,
    counted in the [serve/evicted] metric).

    A solution reply is a {!Minup_core.Wire.Levels} body rendered
    through the {!Minup_core.Wire.type-runs} cache the held session
    keeps: one escaped ["name":] key per attribute, one escaped ["level"]
    string per lattice level, and the last reply as runs of 64
    attributes, each with the levels it was rendered from.  The cache is
    made at the session's first solution reply, not at [open], and a
    later reply escapes only the names added since and renders again
    only the runs whose attributes or levels changed; a reply whose
    levels all match the last one's is that reply's string.  A resolve
    that changes no level returns the session's previous levels array
    itself, so its reply is the last string with no run compared: such
    a patch transaction ([set_lower_bound] lines, then [resolve]) costs
    the same at any number of attributes.  Names are
    append-only (an id never changes name, and no delta removes one), so
    a cached key or run stays valid for the session's life while its
    levels do.  The reply's bytes are those of the
    {!Minup_core.Wire.Solution} of the same pairs.

    With {!Minup_obs.Metrics} on, every request counts in
    [serve/requests] and every error reply in [serve/errors].  Through
    {!respond} (and so {!run}), each request of an op the loop ran adds
    the time from reading its line to its rendered reply to a
    [serve/<op>_ns] histogram ([serve/resolve_ns], …; a line that cannot
    be read, an unknown op or an unknown session adds none), and each
    solution reply counts the runs it rendered again in
    [serve/reply_runs_rendered] and those it reused in
    [serve/reply_runs_reused]. *)

type conn

val create :
  ?max_sessions:int -> ?deadline_ms:int -> ?max_steps:int -> unit -> conn

(** Sessions currently held, most recently used first. *)
val session_names : conn -> string list

(** Handle one request line (without trailing newline).  Total: every
    exception but [Sys.Break] and [Out_of_memory] becomes an error
    envelope. *)
val handle_line : conn -> string -> Minup_core.Wire.t

(** [handle_line] and the reply rendered to its compact-JSON line
    (without trailing newline), as {!run} writes it. *)
val respond : conn -> string -> string

(** Read lines until EOF, writing one compact-JSON envelope line per
    request and flushing after each — the loop is usable as a pipe peer. *)
val run : conn -> in_channel -> out_channel -> unit
