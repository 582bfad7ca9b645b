(** Decoupled trace checking (paper §3.2, §4.4 Fig. 8).

    The program under test keeps executing while a master dispatches
    completed trace sections to the least-loaded worker in a pool, each
    of which drains its queue in batches, runs the {!Engine} on each
    section independently and merges the resulting report into the
    session aggregate. [get_result] implements
    [PMTest_GET_RESULT]: it blocks until every dispatched section has been
    tested.

    With [~workers:0] checking runs synchronously inside [send_trace] —
    used by deterministic tests and by the overhead-breakdown experiment
    (checking cost on the critical path vs. decoupled). *)

open Pmtest_model
open Pmtest_trace

type t

val create :
  ?workers:int ->
  ?model:Model.kind ->
  ?obs:Pmtest_obs.Obs.t ->
  ?shard:int ->
  ?arena_pool:Packed.pool ->
  unit ->
  t
(** [create ~workers ()] spawns that many checking domains (default 1).
    [obs] (default {!Pmtest_obs.Obs.disabled}) collects pipeline metrics:
    section dispatch/check/merge spans, queue depth and reorder-buffer
    occupancy high-water marks, per-worker busy time.  [shard] (unset
    for in-process runtimes) tags this runtime's obs records so several
    runtimes — the daemon's shards — can share one collector without
    their span keys colliding, and enables the per-shard dispatch
    counters.  [arena_pool] (default the process-wide
    {!Packed.default_pool}) is the freelist checked packed sections are
    recycled to; the daemon passes each shard's own pool so arenas cycle
    shard-locally. *)

val model : t -> Model.kind
val obs : t -> Pmtest_obs.Obs.t

val send_trace : ?prelude:Event.t array -> t -> Event.t array -> unit
(** Queue a section for checking. [prelude] (default empty) is a boxed
    prefix — the session's exclusion preamble — replayed before the
    section, as if prepended to it. Raises [Invalid_argument] after
    {!shutdown}. Dispatch samples two workers at a rotating start index
    (O(1) per send, round-robin when idle) and posts with a lock-free
    CAS push — a loaded pipeline takes no mutex anywhere on the send
    path, so tracing threads never contend with the merge side or with
    each other. *)

val send_packed : ?prelude:Event.t array -> t -> Packed.t -> unit
(** Like {!send_trace} for a packed arena: the worker checks it with
    [Engine.check_packed] (no [Event.t array] is materialised) and then
    recycles the arena to the freelist. [prelude] (default empty) is a
    boxed prefix — the session's exclusion preamble — replayed before
    the arena, so sessions with active exclusion scopes stay on the
    packed path. Ownership transfers to the runtime — the caller must
    not touch the arena afterwards. *)

val send_packed_cb :
  ?model:Model.kind -> ?prelude:Event.t array -> t -> Packed.t -> (Report.t -> unit) -> unit
(** Like {!send_packed}, but the section's report is handed to the
    callback instead of entering the global aggregate — the building
    block for per-session aggregation in [pmtestd], where one worker
    pool serves many independent client sessions. Callbacks fire in
    dispatch order (from inside the in-order merge loop), so a consumer
    that merges callback reports as they arrive reproduces exactly the
    aggregate a dedicated synchronous runtime would have produced. The
    callback runs on a worker (or, with [workers:0], the sending)
    thread with the runtime's merge lock held: it must be brief and
    must not call back into the runtime. [model] overrides the
    runtime's persistency model for this section only. *)

val get_result : t -> Report.t
(** Block until all sections dispatched so far are checked; returns the
    aggregate report. Aggregation is deterministic: reports are merged in
    dispatch order regardless of which worker finished first, so the
    result is byte-identical to a [~workers:0] synchronous run over the
    same section stream. *)

val pending : t -> int
(** Sections dispatched but not yet checked (for tests and monitors).
    Lock-free: reads two atomic counters without touching the merge
    lock, so polling never contends with the pipeline. *)

val shutdown : t -> Report.t
(** Drain, stop the workers, join their domains, and return the final
    aggregate. Idempotent. *)
