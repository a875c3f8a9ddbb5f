(** Structured execution tracing in the Chrome trace-event format.

    Spans ([B]/[E] pairs) accumulate in {e per-domain} buffers — no lock
    on the emit path, no cross-domain interleaving — and export as a JSON
    document loadable in Perfetto ({:https://ui.perfetto.dev}) or
    [chrome://tracing].  Each OCaml domain appears as its own track
    ([tid] = domain id).

    Spans mark phases, never single items of work: the solver opens
    [solve], [schedule] and [bigloop] spans plus one [try_lower] span per
    cyclic priority set, and the per-attribute story is left to the
    solver's event callback and its [Instr] counters.  A span costs an
    allocation and a clock read, so a span per attribute would cost as
    much as the work it measures.

    Tracing is {e disabled by default} and every emit function starts with
    a single load-and-branch on the global flag, so instrumentation left in
    hot paths costs one predictable branch when off.  Instrumentation must
    never perform counted work of its own: with tracing off, instrumented
    code is behaviourally identical to uninstrumented code (the
    [Instr]-counter identity checked by [dev/counters_check.ml]).

    Typical lifecycle:
    {[
      Trace.start ();
      (* ... run the traced workload ... *)
      Trace.stop ();
      Trace.write "trace.json"
    ]} *)

(** Span/event argument values, rendered into the event's [args] object. *)
type arg = Int of int | Float of float | Str of string | Bool of bool

(** One recorded event (exposed for tests and custom sinks). *)
type event = {
  ph : char;  (** 'B' or 'E' *)
  name : string;
  cat : string;
  ts_ns : int64;
  tid : int;  (** domain id of the emitting domain *)
  args : (string * arg) list;
}

val enabled : unit -> bool

(** Drop all previously collected events and enable collection. *)
val start : unit -> unit

(** Disable collection; collected events remain available for export. *)
val stop : unit -> unit

(** [begin_span name] opens a span on the calling domain's track; close it
    with {!end_span} [name] on the same domain.  [ts_ns] overrides the
    clock (tests pin timestamps with it); [cat] defaults to ["minup"].
    No-ops when disabled. *)
val begin_span :
  ?ts_ns:int64 -> ?args:(string * arg) list -> ?cat:string -> string -> unit

(** Arguments on the end event are merged with the begin event's by the
    viewer, so end-of-span measurements (iteration counts, deltas) can ride
    on [end_span]. *)
val end_span :
  ?ts_ns:int64 -> ?args:(string * arg) list -> ?cat:string -> string -> unit

(** Number of spans currently open on the calling domain's track (0 when
    disabled).  Record it before running code that opens spans, and pass it
    to {!unwind_to} on the exception path. *)
val open_depth : unit -> int

(** [unwind_to d] ends the calling domain's open spans, innermost first,
    until only [d] remain — the exception-path counterpart of the matched
    {!end_span} calls that were skipped.  No-op when disabled. *)
val unwind_to : int -> unit

(** [with_span name f] wraps [f ()] in a span (exception-safe).  When
    disabled this is exactly [f ()]. *)
val with_span :
  ?args:(string * arg) list -> ?cat:string -> string -> (unit -> 'a) -> 'a

(** All collected events, merged across domains in timestamp order. *)
val events : unit -> event list

val event_count : unit -> int

(** The Chrome trace document:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}].  Timestamps are
    microseconds relative to the earliest event; thread-name metadata
    records each domain. *)
val to_json : unit -> Json.t

(** Write {!to_json} to a file. *)
val write : string -> unit
