(** The PMTest programmer interface (paper Table 2).

    A {e session} owns per-thread trace builders and the variable registry,
    and hands finished sections to a {!target}: the in-process worker
    runtime or a [pmtestd] daemon. The function names map onto the paper's
    C API:

    {v
    PMTest_INIT          init          PMTest_EXCLUDE       exclude
    PMTest_EXIT          finish        PMTest_INCLUDE       include_
    PMTest_THREAD_INIT   thread_init   PMTest_REG_VAR       reg_var
    PMTest_START         start         PMTest_UNREG_VAR     unreg_var
    PMTest_END           stop          PMTest_GET_VAR       get_var
    PMTest_SEND_TRACE    send_trace    isPersist            is_persist
    PMTest_GET_RESULT    get_result    isOrderedBefore      is_ordered_before
    TX_CHECKER_START     tx_checker_start
    TX_CHECKER_END       tx_checker_end
    v}

    Typical use mirrors Fig. 6: create a session, hand {!sink} to the
    instrumented program (or call the emission functions directly), place
    checkers, send completed sections with {!send_trace}, and read the
    verdict with {!get_result} or {!finish}. *)

open Pmtest_util
open Pmtest_model
open Pmtest_trace

type t

val init : ?model:Model.kind -> ?workers:int -> ?obs:Pmtest_obs.Obs.t -> ?packed:bool -> unit -> t
(** Create a session checked in process by a {!Runtime}. [workers] is
    the size of the checking pool (default 1; [0] checks synchronously
    inside [send_trace]). [obs] (default {!Pmtest_obs.Obs.disabled})
    observes the whole pipeline: entries traced, sections sent/dropped,
    and — through the runtime — dispatch/check/merge spans and worker
    utilization.

    [packed] (default false) selects the flat-trace fast path: builders
    encode into reusable {!Pmtest_trace.Packed} arenas and sections are
    handed to the runtime without materialising an [Event.t array]; an
    active exclusion scope travels beside the arena as a prelude. The
    verdict is identical either way. Only {!on_section} observers force
    the boxed shape: with one registered, each section is decoded once
    for them. *)

(** Where finished sections go. A session is the same whichever target
    it delivers to — in process ({!init}) or a [pmtestd] daemon
    ([Pmtest_client.Client.Session]); only where the preamble travels
    differs. Every operation reports failure as [Error msg]. *)
type target = {
  model : Model.kind;
  send : prelude:Event.t array -> Packed.t -> (unit, string) result;
      (** Check a packed section after replaying [prelude] (the session's
          exclusion preamble). Consumes the arena on every path. *)
  send_boxed : prelude:Event.t array -> Event.t array -> (unit, string) result;
      (** Check a boxed section after replaying [prelude], as [send]
          does for an arena. *)
  get_result : unit -> (Report.t, string) result;
  shutdown : unit -> (Report.t, string) result;
      (** Drain, release the target and return the final aggregate. *)
}

val over : ?obs:Pmtest_obs.Obs.t -> ?packed:bool -> target -> t
(** A session delivering to [target]; [obs] and [packed] as for
    {!init}. The first error a target returns is latched: later
    sections are still taken from their builders, and {!finish_result}
    returns the error. *)

val obs : t -> Pmtest_obs.Obs.t

val finish : t -> Report.t
(** Send any unfinished sections, drain the target, shut it down and
    return the final report. Raises [Failure] with the target's first
    error; only a remote target can fail. *)

val finish_result : t -> (Report.t, string) result
(** {!finish}, returning the target's first error instead of raising. *)

val model : t -> Model.kind

(** {1 Threads and tracking scope} *)

val thread_init : t -> thread:int -> unit
(** Register a program thread; a builder is created for it. Thread 0 is
    pre-registered. *)

val start : t -> unit
(** Enable tracking ([PMTest_START]); tracking starts enabled. *)

val stop : t -> unit
(** Disable tracking ([PMTest_END]); entries emitted while disabled are
    dropped. *)

val sink : ?thread:int -> t -> Sink.t
(** The session viewed as an instrumentation sink for the given thread.
    With observability off this is the thread's raw builder sink. *)

val emit : ?thread:int -> ?loc:Loc.t -> t -> Event.kind -> unit
(** Record one arbitrary trace entry — how replay tools (e.g.
    [pmtest-cli stat] on a recorded trace) feed a live session. *)

(** {1 Persistent objects} *)

val exclude : ?thread:int -> ?loc:Loc.t -> t -> addr:int -> size:int -> unit
val include_ : ?thread:int -> ?loc:Loc.t -> t -> addr:int -> size:int -> unit

val lint_off : ?thread:int -> ?loc:Loc.t -> ?rule:string -> t -> unit
(** Emit an inline suppression marker for the named static lint rule
    (default ["*"], every rule). The dynamic engine ignores it. *)

val lint_on : ?thread:int -> ?loc:Loc.t -> ?rule:string -> t -> unit
(** Undo one matching {!lint_off}. *)

val reg_var : t -> string -> addr:int -> size:int -> unit
(** Register a named persistent variable so its address can be recovered
    outside the scope where it was declared. *)

val unreg_var : t -> string -> unit
val get_var : t -> string -> (int * int) option

(** {1 Communication} *)

val send_trace : ?thread:int -> t -> unit
(** Hand the thread's current section to the target and start a fresh
    one. *)

val get_result : t -> Report.t
(** Block until everything sent so far has been checked. Does {e not}
    send the current sections — call {!send_trace} or {!finish} first.
    Raises [Failure] if the target fails. *)

val on_section : t -> (Event.t array -> unit) -> unit
(** Register an observer called (synchronously, on the sending thread)
    with every section handed to the target, including the exclusion
    preamble. Used by trace recorders and the static lint. *)

val section_length : ?thread:int -> t -> int

(** {1 Checkers} *)

val is_persist : ?thread:int -> ?loc:Loc.t -> t -> addr:int -> size:int -> unit
val is_persist_var : ?thread:int -> ?loc:Loc.t -> t -> string -> unit
(** Checker on a variable registered with {!reg_var}; raises [Not_found]
    if the name is unknown. *)

val is_ordered_before :
  ?thread:int -> ?loc:Loc.t -> t -> a_addr:int -> a_size:int -> b_addr:int -> b_size:int -> unit

val tx_checker_start : ?thread:int -> ?loc:Loc.t -> t -> unit
val tx_checker_end : ?thread:int -> ?loc:Loc.t -> t -> unit
