(** Process-wide metrics registry: named counters, gauges, and log-scale
    histograms with percentile summaries.

    Metrics aggregate across solves and domains.  Each solve updates the
    registry once, when it ends: its [Instr] operation counters (as
    [instr/*]) and its [solver/*] counters and latency sample.  The engine
    and the serve loop add their own; one registry snapshot renders them
    all, human-readably ({!pp}) or as JSON ({!to_json}).

    All metric values are atomics, so workers on different domains update
    them without locks; registration (name lookup) takes a mutex, so look
    names up once per solve or request, never in a hot loop.

    Like {!Trace}, the registry is disabled by default and instrumentation
    sites guard their updates with a single branch on {!enabled}, keeping
    the disabled path free of clock reads and atomic traffic. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** Zero every registered metric (registrations are kept). *)
val reset : unit -> unit

(** Drop every registration — for test isolation. *)
val clear : unit -> unit

(** {1 Counters} *)

type counter

(** Get or create the counter [name].
    @raise Invalid_argument if [name] is registered as another kind. *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms}

    Power-of-two (log-scale) buckets over non-negative integers — bucket 0
    holds the value 0, bucket [k ≥ 1] holds [2^(k-1) .. 2^k - 1] — with
    atomically-maintained count/sum/min/max.  Intended for nanosecond
    latencies and iteration counts; the unit is a naming convention
    (e.g. ["solver/solve_ns"]). *)

type histogram

val histogram : string -> histogram

(** Record one sample (negative values clamp to 0). *)
val observe : histogram -> int -> unit

val histogram_count : histogram -> int

(** [percentile h q] estimates the [q]-quantile ([0 < q <= 1]) by linear
    interpolation inside the covering bucket, clamped to the observed
    min/max.  Returns [0.] for an empty histogram. *)
val percentile : histogram -> float -> float

(** Bucket index of a sample value (exposed for the bucketing tests). *)
val bucket_index : int -> int

(** {1 Snapshots} *)

(** One line per metric, sorted by name:
    [counter NAME V], [gauge NAME V], and
    [histogram NAME count=… sum=… min=… max=… p50=… p90=… p99=…]. *)
val pp : Format.formatter -> unit -> unit

(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}], fields
    sorted by name. *)
val to_json : unit -> Json.t
