(** Named counters, gauges and fixed-bucket latency histograms.

    Instruments are registered once by name — re-requesting a name returns
    the existing instrument, requesting it with a different kind raises
    [Invalid_argument] — and every registered instrument appears in
    {!snapshot}.  All state is [Atomic]; updates are safe from any domain.

    The instruments themselves are unconditional.  Instrumentation sites in
    the advisor gate their updates on [Obs.on ()] so the disabled path costs
    a single atomic load. *)

type counter
type gauge
type histogram

val counter : string -> counter
val gauge : string -> gauge

val histogram : ?bounds_us:float array -> string -> histogram

(** An instrument registered on first use, for module-level handles.  Unlike
    a toplevel [lazy], [force] is safe from several domains at once: racing
    callers may both run the constructor, and as registration is once per
    name they get the same instrument. *)
type 'a once

val once : (unit -> 'a) -> 'a once
val force : 'a once -> 'a
(** [histogram name] registers a latency histogram.  [bounds_us] are the
    strictly-increasing bucket upper bounds in microseconds (default spans
    1us – 1s); an implicit overflow bucket is appended.  [bounds_us] is
    ignored when [name] is already registered. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val set : gauge -> float -> unit
val get : gauge -> float

val observe_us : histogram -> float -> unit
val observe_s : histogram -> float -> unit

val observe : histogram -> float -> unit
(** [observe h v] records a unitless sample (batch sizes, counts): [v] is
    bucketed against the registered bounds as-is.  Pass explicit [bounds_us]
    at registration so the default latency bounds don't misbucket it. *)

type snapshot_value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { count : int; sum_us : int; buckets : (float * int) list }
      (** [buckets] pairs each upper bound (us; [infinity] for the overflow
          bucket) with its own count (not cumulative). *)

val snapshot : unit -> (string * snapshot_value) list
(** Every registered metric with its current value, sorted by name. *)

val to_json : (string * snapshot_value) list -> string
(** Serialize a snapshot: one JSON object per metric per line, inside a
    [{"metrics":[...]}] wrapper, so fixtures diff line-by-line. *)

val reset_all : unit -> unit
(** Zero every registered instrument, keeping registrations. *)
