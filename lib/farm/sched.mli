(** The pmfarm coordinator's scheduler, as a state machine with no I/O.

    It owns the job and worker records, the pending queue, attempts,
    holders, refusals, finding dedup and nondeterminism flags. It
    touches no socket, file or clock: every transition takes the
    current time as [~now] and returns the {!action}s the caller must
    carry out, in order. {!Farm.Coordinator.run} drives it from one
    [select] loop; tests drive it in logical time.

    Scheduling rules:
    - a worker runs one job at a time: a pending job goes to a live
      worker holding none (ties to the lower worker id);
    - a duplicate attempt of a job in flight longer than [steal_after]
      goes to an idle worker that does not hold it, only while nothing
      is pending;
    - a worker silent for longer than [heartbeat_timeout] is lost, and
      every job only it held is requeued with a fresh attempt;
    - the first result for a job wins; a later one with another digest
      flags the job nondeterministic;
    - the third refusal of one job aborts the campaign, and so does its
      third requeue after losing every worker that held it: a worker
      heartbeats only between units, so a unit longer than
      [heartbeat_timeout] would otherwise be dropped and re-offered
      forever. *)

module Obs = Pmtest_obs.Obs

type t

type action =
  | Offer of { wid : int; job : int; attempt : int; lo : int; hi : int }
      (** Send this [Job_offer] to worker [wid]. If the write fails,
          report {!lost}. *)
  | Drop of int  (** Worker timed out and is already lost: close its link. *)
  | Store of { name : string; text : string }
      (** A new deduplicated finding: write [name.pmt] to the triage
          store. Always precedes the [Save] that records it. *)
  | Save  (** Write {!checkpoint_of} to the checkpoint file. *)

val create :
  ?stop_after_results:int ->
  heartbeat_timeout:float ->
  steal_after:float ->
  obs:Obs.t ->
  Spec.t ->
  Checkpoint.t option ->
  t
(** A campaign over [Spec.jobs spec], with the jobs a resume checkpoint
    records as done already done. The caller checks that the checkpoint
    belongs to [spec]. *)

(** {1 Transitions} *)

val start : t -> action list
(** The initial [Save], so that a campaign killed before its first
    result resumes cleanly. *)

val join : t -> now:float -> int * action list
(** A worker said hello: its id, then the offers for it. *)

val seen : t -> int -> now:float -> heartbeat:bool -> unit
(** Any frame from the worker proves it alive; [heartbeat] counts a
    [Checkpoint] frame. *)

val result :
  t ->
  int ->
  now:float ->
  job:int ->
  attempt:int ->
  digest:string ->
  units:int ->
  findings:(string * string) list ->
  action list
(** [job] must be in [\[0, jobs t)]. Frames from lost or unknown
    workers, and any after {!over}, are ignored. *)

val refusal : t -> int -> now:float -> job:int -> reason:string -> action list
val lost : t -> int -> now:float -> action list

val tick : t -> now:float -> action list
(** Expire silent workers, then steal for idle ones. *)

val next_deadline : t -> float option
(** When {!tick} next has work: the earliest heartbeat expiry or steal
    time, [None] when neither can happen before the next frame. *)

(** {1 Views} *)

val jobs : t -> int

val over : t -> bool
(** Every job is done, or the campaign stopped: aborted, or the
    [stop_after_results] hook fired. *)

val failed : t -> string option
(** Why the campaign aborted. *)

val crashed : t -> bool
(** The [stop_after_results] hook fired: tear down with no [Bye], as a
    SIGKILL would. *)

val checkpoint_of : t -> Checkpoint.t

type summary = {
  jobs : int;
  jobs_done : int;
  digests : (int * string) list;
  findings : (string * string) list;
  nondet : int list;
  reassigned : int;
  steals : int;
  workers_seen : int;
}

val summary : t -> summary
