(** pmfarm: fault-tolerant distributed campaigns over the wire protocol.

    A {e coordinator} splits one campaign (fuzz, crashfs or litmus)
    into jobs — contiguous seed (or suite-index) ranges — and serves
    them to {e workers} over the version-3 farm frames of
    {!Pmtest_wire.Wire}: [Worker_hello] handshake, [Job_offer] /
    [Job_claim] / [Job_result] per chunk, [Checkpoint] heartbeats.

    Fault tolerance rests on three properties:

    - {e Jobs are pure.} A job is [(spec, lo, hi)] and nothing else;
      {!run_units} derives everything from it deterministically, so any
      worker can run any job, any number of times, with an identical
      result digest. A digest mismatch between two attempts of one job
      is flagged as nondeterminism, never silently resolved.
    - {e Loss is recovery.} A worker that disconnects, times out its
      heartbeat, or is SIGKILLed simply returns its in-flight job to
      the pending queue (attempt + 1). Stolen duplicates of slow jobs
      land on idle workers; whichever attempt reports first wins and
      the loser's digest is compared.
    - {e The checkpoint is the campaign.} Every completed job is
      appended to an atomically-rewritten on-disk checkpoint, so a
      SIGKILLed coordinator resumes from its last result with the same
      eventual finding set and per-job digests as an uninterrupted run.

    Findings travel back as full reproducer texts inside [Job_result]
    and are deduplicated by content digest into a single triage
    directory. *)

module Model = Pmtest_model.Model
module Obs = Pmtest_obs.Obs
module Crashfs = Pmtest_crashfs.Crashfs

(** {1 Campaign specs} *)

module Spec : sig
  type kind = Spec.kind =
    | Fuzz
    | Crashfs of { fs : Crashfs.fs_kind; fault : string option }
        (** [fault]: a seeded crashfs fault, by canonical name. *)
    | Litmus

  type t = Spec.t = {
    kind : kind;
    model : Model.kind;
    seed : int;  (** Base seed ([Litmus]: base suite index). *)
    count : int;  (** Total units (programs / runs / tests). *)
    chunk : int;  (** Units per job. *)
    max_ops : int option;  (** Generator / workload op bound. *)
  }

  val kind_name : kind -> string

  val fuzz : ?max_ops:int -> model:Model.kind -> seed:int -> count:int -> chunk:int -> unit -> t

  val crashfs :
    ?max_ops:int ->
    ?fault:string ->
    fs:Crashfs.fs_kind ->
    model:Model.kind ->
    seed:int ->
    count:int ->
    chunk:int ->
    unit ->
    t

  val litmus : chunk:int -> unit -> t
  (** The whole curated suite as index jobs over
      {!Pmtest_litmus.Suite.all}. *)

  (** {2 What a spec runs}

      The one derivation of each kind's configuration: {!run_units}
      and [pmtest-cli fuzz], [crashfs] and [farm serve] all go through
      these, so a farm job and a CLI run of the same spec explore the
      same states and write the same reproducers. *)

  val campaign_cfg : t -> Pmtest_fuzz.Campaign.cfg
  (** {!Pmtest_fuzz.Campaign.default_cfg} under [model], over
      [\[seed, seed + count)], with [max_ops] when given. *)

  val crashfs_config : t -> (Crashfs.config, string) result
  (** {!Pmtest_crashfs.Crashfs.make_config} from a [Crashfs] spec's file
      system, fault, model and [max_ops]; [Error] for an unknown fault
      or another kind. *)

  val to_string : t -> string
  (** One line, [kind key=value...]; round-trips through
      {!of_string}. This is what travels in [Job_offer] frames and
      checkpoint files. [fs=] and [fault=] appear for crashfs only. *)

  val of_string : string -> (t, string) result
  (** Parses and {!validate}s: a spec that decodes is runnable. [fs=]
      and [fault=] are rejected outside crashfs, and a litmus spec takes
      only [count] and [chunk] of its own. *)

  val validate : t -> (unit, string) result
  (** Rejects what no worker could ever run: negative seed or count
      (job ranges travel as unsigned varints), [chunk < 1], an unknown
      crashfs fault name, a litmus range past the suite.  A litmus spec
      must also keep {!litmus}'s model, seed and (absent) [max_ops],
      which the suite fixes.  {!Coordinator.run} applies this before
      offering any job. *)

  val jobs : t -> (int * int * int) list
  (** [(id, lo, hi)] for every job: [count] units cut into [chunk]-sized
      ranges starting at [seed], ascending [id]. *)
end

(** {1 Job execution} *)

type unit_result = {
  digest : string;  (** Deterministic outcome digest for the range. *)
  units : int;  (** Units actually run ([hi - lo]). *)
  findings : (string * string) list;  (** [(name, reproducer_text)]. *)
}

val run_units :
  ?between:(unit -> unit) -> Spec.t -> lo:int -> hi:int -> (unit_result, string) result
(** Execute one job: the campaign chunk for absolute range [\[lo, hi)].
    Pure in [(spec, lo, hi)] — re-running yields a byte-identical
    digest, which is what replay verification and nondeterminism
    flagging rely on.  [between] runs at every unit boundary: a worker
    heartbeats there. *)

(** {1 Checkpoints} *)

module Checkpoint : sig
  type done_job = Checkpoint.done_job = {
    job : int;
    attempt : int;
    units : int;
    digest : string;
  }

  type t = Checkpoint.t = {
    spec : Spec.t;
    jobs : int;
    done_jobs : done_job list;  (** Ascending job id. *)
    findings : (string * string) list;  (** [(digest, name)], sorted. *)
    nondet : int list;  (** Jobs whose attempts disagreed. *)
  }

  val save : path:string -> t -> unit
  (** Atomic write-to-temp + rename: a crash mid-write leaves at worst
      a stray [.tmp] sibling, never a truncated checkpoint. *)

  val load : string -> (t, string) result
  val pp : Format.formatter -> t -> unit
end

(** {1 Coordinator} *)

module Coordinator : sig
  type cfg = {
    socket : string;  (** Unix socket path to listen on. *)
    spec : Spec.t;
    triage_dir : string;  (** Deduplicated reproducer store. *)
    checkpoint : string;  (** Checkpoint file path. *)
    resume : bool;  (** Load [checkpoint] and skip completed jobs. *)
    heartbeat_timeout : float;
        (** Seconds without any frame from a worker before its jobs are
            reassigned. Also the deadline for a new connection's
            [Worker_hello] and for every frame written to a worker: a
            peer that does not take a whole frame within it is
            dropped. *)
    steal_after : float;
        (** Seconds in flight before an idle worker may be offered a
            duplicate attempt of a slow job. *)
    stop_after_results : int option;
        (** Testing hook: hard-stop (as a crash would) after this many
            [Job_result] frames — the checkpoint written so far is the
            only survivor. [None] runs to completion. *)
    obs : Obs.t;
  }

  val default_cfg : spec:Spec.t -> socket:string -> dir:string -> cfg
  (** [triage_dir = dir/triage], [checkpoint = dir/checkpoint], no
      resume, 5 s heartbeat timeout, 2 s steal threshold. *)

  type summary = {
    jobs : int;
    jobs_done : int;  (** [< jobs] only under [stop_after_results]. *)
    digests : (int * string) list;  (** Per-job result digests. *)
    findings : (string * string) list;  (** [(digest, name)], sorted. *)
    nondet : int list;  (** Jobs flagged nondeterministic. *)
    reassigned : int;  (** Jobs recovered from lost workers. *)
    steals : int;  (** Duplicate offers onto idle workers. *)
    workers_seen : int;
  }

  val run : ?ready:(unit -> unit) -> cfg -> (summary, string) result
  (** Serve the campaign until every job is done (or the
      [stop_after_results] hook fires), then send [Bye] to every
      worker and tear down. [ready] fires once the socket is
      listening. One thread runs the whole campaign: a [select] loop
      driving {!Sched}, with no lock and no wait without a deadline
      while a heartbeat, steal or handshake is pending.

      [Error] on an invalid spec ({!Spec.validate}, checked before the
      socket opens), or when some job is refused ([Job_refused]) by
      workers three times — a deterministically failing job would
      otherwise bounce forever. A refused job below that cap is simply
      unassigned and requeued.  [Error] too when some job has been
      requeued three times because every worker holding it was lost:
      workers heartbeat only between units, so a unit longer than
      [heartbeat_timeout] gets its worker dropped on every attempt. *)
end

(** {1 Workers} *)

module Worker : sig
  type cfg = {
    socket : string;
    name : string;
    attempts : int;  (** Consecutive connect failures before giving up. *)
    base_delay : float;  (** Reconnect backoff start (doubles, jittered). *)
    max_delay : float;
    hb_interval : float;  (** Heartbeat period, busy or idle, seconds. *)
    log : string -> unit;  (** Progress lines ([ignore] to silence). *)
  }

  val default_cfg : socket:string -> name:string -> cfg
  (** 8 attempts, 50 ms..2 s backoff, 1 s heartbeats, silent. *)

  val run : cfg -> (int, string) result
  (** Serve jobs until the coordinator says [Bye]; returns jobs
      completed across all connections. Reconnects with jittered
      exponential backoff when the link drops. A job the worker cannot
      run (bad spec, unknown fault) is answered with [Job_refused] so
      the coordinator unassigns it; an undecodable offer payload is
      answered with [Err]. In both cases the connection {e survives} —
      only framing-level corruption forces a reconnect, and so do six
      idle heartbeats in a row that the coordinator leaves unanswered,
      or a frame it does not take within six heartbeat periods.  One
      thread runs it all: jobs heartbeat between their units. *)
end
