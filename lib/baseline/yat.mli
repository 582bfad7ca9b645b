(** A Yat-style exhaustive crash-consistency tester (paper §2.2, [43]).

    Yat validates a PM program by {e brute force}: it replays the trace of
    PM operations and, at every possible crash point, enumerates every
    durable image the hardware reordering rules admit, then runs the
    application's recovery/consistency check on each image. This is sound
    and complete — and exponentially slow (the paper quotes > 5 years for
    a 100k-operation PMFS trace), which is the motivation for PMTest's
    interval deduction.

    Here it serves two purposes:
    - the {e oracle} for the property tests: PMTest's verdicts are
      validated against exhaustive enumeration on small traces;
    - the cost comparison for the scaling benchmark (`bench yat`). *)

open Pmtest_trace
module Machine = Pmtest_pmem.Machine

type outcome = {
  crash_points : int;  (** Trace positions at which a crash was modelled. *)
  states_tested : int;  (** Durable images checked in total. *)
  violations : int;  (** Images the consistency predicate rejected. *)
  first_violation : (int * bytes) option;
      (** Crash point index and durable image of the first failure. *)
  exhaustive : bool;  (** [false] if the per-point state limit truncated. *)
}

val replay_op : Machine.t -> Pmtest_model.Model.op -> unit
(** Apply one PM operation to the simulated machine (checker and
    annotation entries are not operations and must be filtered upstream).
    Trace entries carry no store payloads, so writes store a [0xff] fill —
    enough to distinguish new from old bytes against a zeroed device,
    which is what the ordering oracle needs. *)

(** {1 Live attachment}

    For end-to-end recovery checking the tester must see the program's
    {e actual} machine (with real payloads): {!attach} returns a sink to
    instrument the program with; every fence triggers exhaustive
    enumeration of the machine's crash states and runs the consistency
    predicate on each — Yat's execution model, cost included. *)

type live

val attach :
  ?limit_per_point:int -> machine:Machine.t -> check:(bytes -> bool) -> unit -> live * Sink.t

val live_outcome : live -> outcome
(** Outcome so far; also models the crash at the current point before
    reporting. *)

val replay : Machine.t -> Event.t array -> unit
(** Apply every PM operation of the trace in order. *)

val run :
  ?limit_per_point:int ->
  ?every_op:bool ->
  size:int ->
  check:(bytes -> bool) ->
  Event.t array ->
  outcome
(** [run ~size ~check trace] replays [trace] on a fresh machine of [size]
    bytes and models a crash after {e every} operation plus at the trace
    end (only at fence boundaries when [every_op] is [false]),
    enumerating up to
    [limit_per_point] durable images per crash point (default 65536) and
    applying [check] to each. *)

val estimated_states : size:int -> Event.t array -> float
(** Product, over all crash points of the trace, of the number of durable
    images — the size of Yat's search space (computed without
    enumerating). *)
