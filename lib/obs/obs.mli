(** Observability for the checking pipeline.

    One {!t} instruments a whole session. Metrics live in a registry:
    each library declares its own named {!counter}s, high-water
    {!gauge}s and log2 {!histogram}s once, at module initialisation,
    and updates them through the generic {!add}, {!max} and {!record}.
    On top of the registry, Obs itself owns the section span protocol
    (dispatch, worker checking, in-order merge), the per-worker and
    per-shard tables, and the counters that protocol feeds. Everything
    is exposed as immutable {!snapshot} values that can be
    pretty-printed, serialized to TSV (machine-readable, round-trippable
    via {!of_tsv}) or to JSON lines.

    The disabled path is deliberately free: {!disabled} is a singleton
    whose [on] field is an immutable [false], every hook is guarded by
    callers with a single [if Obs.enabled obs] load-and-branch, and
    [Sink.observed] returns the {e unwrapped} sink when given
    {!disabled}, so the per-event hot path is byte-for-byte the
    uninstrumented one.

    Timestamps come from the monotonic clock, so a section's stamps
    satisfy sent <= start <= done <= merged as taken, and the
    end-to-end >= check-latency invariant holds without correction. *)

type t

val disabled : t
(** The shared no-op instance; every hook returns immediately. *)

val create : ?max_spans:int -> unit -> t
(** A live collector. At most [max_spans] (default 1024) of the most
    recent completed section spans are retained. *)

val enabled : t -> bool

val now_ns : unit -> int
(** Monotonic-clock nanoseconds from an arbitrary origin: only
    differences are meaningful. *)

(** {1 Registry}

    Declare each metric once, as a toplevel value of the library that
    updates it; the name is its spelling in every sink. Declaring after
    the first {!create}, or declaring a name twice (counters and gauges
    share one namespace), raises [Invalid_argument]. Updates are safe
    from any domain and are no-ops on {!disabled}. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** A monotonic sum. *)

val gauge : string -> gauge
(** A high-water mark: the largest value ever sampled. *)

val histogram : string -> histogram
(** A log2 histogram of nanosecond durations. *)

val add : t -> counter -> int -> unit
(** Lock-free. *)

val max : t -> gauge -> int -> unit
(** Raise the gauge to the sample if it is higher. Lock-free. *)

val record : t -> histogram -> int -> unit

(** {1 Pipeline}

    [seq] is the runtime's dispatch sequence number; [worker] identifies
    the checking domain (the synchronous [workers:0] path uses worker
    0). *)

val events_traced : counter
(** Trace entries recorded by an instrumentation sink or emitter. *)

val sections_dropped : counter
(** [send_trace] found an empty section: nothing was dispatched. *)

val queue_hwm : gauge
(** Sections dispatched but not yet merged, sampled at dispatch. *)

val section_sent : t -> seq:int -> entries:int -> unit
(** Section [seq] ([entries] trace entries) handed to the runtime. *)

val check_started : t -> seq:int -> worker:int -> unit
val check_finished : t -> seq:int -> unit
(** Bracket the engine pass over section [seq] on a worker. On finish
    the per-worker section count and busy time and the check-latency
    histogram are updated. *)

val section_merged : t -> seq:int -> unit
(** Section [seq] merged into the aggregate in dispatch order; closes
    its span and feeds the end-to-end latency histogram. *)

val sync_section : t -> seq:int -> entries:int -> (unit -> 'a) -> 'a
(** Run [f] as the one checking pass over section [seq], replayed
    rather than traced live: the [entries] count as traced, then the
    whole span (sent, queue depth 1, checked on worker 0, merged)
    brackets [f]. On {!disabled} it is just [f ()]. *)

val shard_session : t -> shard:int -> unit
(** A session was admitted onto (pinned to) the given daemon shard. *)

val shard_section : t -> shard:int -> unit
(** One section dispatched by the given shard's runtime. *)

(** {1 Snapshots} *)

type hist = {
  total : int;  (** Samples recorded. *)
  sum_ns : int;
  min_ns : int;  (** 0 when [total = 0]. *)
  max_ns : int;
  buckets : (int * int) list;
      (** [(i, count)] with count > 0, ascending [i]: durations in
          [\[2{^i}, 2{^i+1}) ns] (bucket 0 also holds 0 and 1 ns). *)
}

type worker_stat = { id : int; sections : int; busy_ns : int }

type shard_stat = { shard : int; shard_sessions : int; shard_sections : int }
(** Sessions admitted onto / sections dispatched by one daemon shard. *)

type span = {
  seq : int;
  worker : int;
  entries : int;
  sent_ns : int;  (** Relative to collector creation. *)
  start_ns : int;
  done_ns : int;
  merged_ns : int;
}

type snapshot = {
  elapsed_ns : int;  (** Since collector creation. *)
  counters : (string * int) list;  (** Counters and gauges, in declaration order. *)
  hists : (string * hist) list;  (** In declaration order. *)
  workers : worker_stat list;  (** Ascending worker id. *)
  shards : shard_stat list;  (** Ascending shard index; empty in-process. *)
  spans : span list;  (** Oldest retained first. *)
}

val snapshot : t -> snapshot
(** A copy of the current state listing every declared metric;
    {!disabled} yields all zeros. Counters are monotonic from one
    snapshot to the next. *)

val find : snapshot -> string -> int option
(** A counter's or gauge's value by name. *)

(** {1 Sinks} *)

val pp : Format.formatter -> snapshot -> unit
(** Console profile: non-zero counters, per-shard and per-worker
    tables, histogram bars. *)

val to_tsv : snapshot -> string
(** Machine-readable: one [tag\tfield...] line per datum. *)

val of_tsv : string -> (snapshot, string) result
(** Inverse of {!to_tsv}: [of_tsv (to_tsv s) = Ok s]. Rejects
    malformed lines, non-integer fields and repeated counter or
    histogram names. *)

val to_jsonl : snapshot -> string
(** JSON-lines: one object per line ([counters], [worker], [shard],
    [hist], [span]), integer fields only. *)
