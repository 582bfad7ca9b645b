(** [pmtestd]: a multi-client checking service over the packed wire
    format.

    One daemon owns a Unix domain socket, [shards] checking shards and
    one domain running one [select] loop over every session.  A shard is
    a private copy of the checking path: its own
    {!Pmtest_core.Runtime} (worker domains + merge lock) and its own
    packed-arena freelist, so two sessions pinned to different shards
    share {e no} checking mutex.  The loop accepts each connection and
    pins it to the least-loaded shard; a session never migrates, so its
    completion callbacks fire in dispatch order on one merge loop and
    its aggregate report stays byte-identical to a dedicated in-process
    run over the same sections.  {!Dispatch} decides what each frame,
    completion and deadline does; the loop does the I/O.

    Each accepted connection is a {e session}: it declares a persistency
    model in its [Hello], then streams packed trace sections
    ({!Pmtest_wire.Wire} frames), each decoded in the loop and checked
    by its shard's pool with a per-session completion callback.

    Robustness contract:
    - a corrupt frame (bad CRC, bad packed bytes) fails {e that
      session} with an [Err] reply; the worker pool never sees the
      bytes;
    - a client that crashes mid-frame is reaped when its socket reads
      EOF; sections it already sent finish checking and are discarded;
    - a session that sends no complete frame for [idle_timeout] while
      the daemon waits on it, or takes longer to take in a reply, is
      closed;
    - sessions past [max_inflight] unchecked sections are either paused
      ([Block]: the daemon stops reading their socket) or trimmed
      ([Shed]: further sections are dropped and counted);
    - {!stop} drains: nothing new is admitted or read, every pending
      result is answered, then the loop exits and every shard's
      workers drain. *)

module Wire = Pmtest_wire.Wire

type config = {
  socket : string;  (** Path of the Unix domain socket to bind. *)
  shards : int;  (** Checking shards (clamped up to 1). *)
  workers : int;  (** Checking domains {e per shard}. *)
  max_sessions : int;  (** Concurrent sessions, whole daemon; excess get [Err]. *)
  max_inflight : int;  (** Unchecked sections per session. *)
  idle_timeout : float;  (** Seconds between frames, and per reply; [0.] disables. *)
  policy : Wire.policy;  (** What to do past [max_inflight]. *)
}

val default_config : config
(** [pmtestd.sock], 1 shard, 2 workers, 32 sessions, 64 inflight, 30 s
    idle, [Block]. *)

type t

val start : ?obs:Pmtest_obs.Obs.t -> config -> t
(** Bind, listen and return immediately; the loop runs on a domain of
    its own, beside each shard's worker domains.  A stale socket file at
    [cfg.socket] is replaced; a socket that cannot be bound raises
    [Unix.Unix_error].
    [Block] clamps [max_inflight] up to 1 (zero would deadlock); [Shed]
    keeps it, so [max_inflight = 0] + [Shed] drops every section — the
    deterministic shed configuration tests use. *)

val stop : t -> unit
(** Graceful drain, idempotent: stop accepting and reading, answer every
    pending result once its sections are checked (a client that does not
    read it holds this up for at most [idle_timeout]), close every
    session, join the loop's domain, drain every shard's worker pool and
    unlink the socket. *)

val config : t -> config

val active_sessions : t -> int
(** Admitted (post-handshake) sessions currently live, whole daemon. *)

val shard_count : t -> int

val sessions_per_shard : t -> int array
(** Connections currently pinned to each shard (admitted sessions plus
    any still in handshake), by shard index — the least-loaded admission
    metric, exposed for tests and monitoring. *)
