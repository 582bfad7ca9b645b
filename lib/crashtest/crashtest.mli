(** Systematic crash-injection testing.

    PMTest validates traces; this harness validates {e outcomes}: it runs
    an instrumented program step by step on a version-tracked simulated
    device, and after every step generates durable images the hardware
    reordering rules admit — exhaustively when the space is small, by
    sampling otherwise — then boots each image, runs the application's
    recovery, and checks its consistency invariant.

    This is the Yat execution model packaged as a reusable harness; the
    tests use it to demonstrate ground truth behind PMTest's verdicts:
    programs whose traces check clean also survive every injected crash,
    and programs with seeded crash-consistency bugs produce images the
    recovery cannot repair. *)

module Machine = Pmtest_pmem.Machine

type config = {
  samples_per_point : int;
      (** Random durable images tested per crash point when the reachable
          space is larger than [exhaustive_limit]. *)
  exhaustive_limit : int;
      (** Enumerate exhaustively when the space has at most this many
          images. *)
  seed : int;
  max_failures : int;  (** Stop collecting after this many violations. *)
}

val default_config : config

type failure = {
  crash_point : int;  (** Index of the step after which the crash happened. *)
  message : string;  (** What the recovery check rejected. *)
}

type verdict = {
  crash_points : int;
  images_tested : int;
  exhaustive_points : int;  (** Crash points that were fully enumerated. *)
  failures : failure list;
}

val survived : verdict -> bool

val run :
  ?config:config ->
  machine:Machine.t ->
  recover:(bytes -> (unit, string) result) ->
  steps:int ->
  step:(int -> unit) ->
  unit ->
  verdict
(** [run ~machine ~recover ~steps ~step ()] executes [step i] for
    [i = 0 .. steps-1] on a program bound to [machine] (which must have
    been created with [~track_versions:true]), injecting crashes after
    every step and at the start. [recover] receives a durable image and
    must boot it, run recovery, and verify the application invariant.
    Exceptions raised by [recover] are converted into failures. Litmus
    runs through it: its [Any]-scoped states need every point. *)

val pp_verdict : Format.formatter -> verdict -> unit

val explore :
  limit:int -> samples:int -> Machine.t -> Pmtest_util.Rng.t -> (bytes -> unit) -> bool
(** One crash point: call the function on every durable image the
    machine could leave behind if it lost power now, when there are at
    most [limit] of them, and return [true]; otherwise on [samples]
    images drawn from [rng], and return [false]. The buffer may be
    reused between calls — copy it to keep it. {!run}, {!attach},
    crashfs and the fuzz engine/crashtest contract explore through it. *)

(** {1 Operation-granular injection}

    [run] injects crashes between program steps; correct transactional
    code is fully persisted there, so the interesting windows — {e inside}
    a transaction, between the in-place update and its writeback — are
    never sampled. {!attach} returns an instrumentation sink instead:
    plugged into the program (tee'd with the testing tool's sink if both
    are wanted), it injects a crash after every [every]-th PM operation,
    exercising exactly those windows. *)

type live

val attach :
  ?config:config ->
  ?every:int ->
  machine:Machine.t ->
  recover:(bytes -> (unit, string) result) ->
  unit ->
  live * Pmtest_trace.Sink.t
(** [every] defaults to 4 (crash after every 4th PM operation). *)

val live_verdict : live -> verdict
(** Also injects one final crash at the current point. *)
