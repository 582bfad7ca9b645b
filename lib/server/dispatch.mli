(** Every [pmtestd] session, whatever its shard, as a state machine with
    no I/O.

    For each session it owns the phase (handshake or live), the sections
    in flight, the frames received but not yet acted on, and the idle
    clock. It reads no socket and no clock: every transition takes the
    current time as [~now] and returns the {!action}s the caller must
    carry out, in order. {!Server} drives one from its [select] loop;
    tests drive it in logical time.  Completions of different sessions
    may interleave in any order; each session's arrive in dispatch
    order.

    Rules:
    - frames take effect in arrival order; frames after a [Get_result]
      wait until its reply has gone out;
    - a [Section] arriving with [max_inflight] sections in flight waits
      ([Block]) or is dropped ([Shed]);
    - a session is read only while it holds no frame and, under [Block],
      is below the bound;
    - a session left waiting on its client for [idle_timeout] seconds
      (since its last complete frame, or since the daemon stopped
      holding it up) is closed; the handshake deadline is the same;
    - after {!stop} no session is read; each acts on what it holds,
      then closes. *)

type 'a frame =
  | Hello of Pmtest_model.Model.kind
  | Prelude of 'a
  | Section of 'a
  | Get_result
  | Bye  (** Also what an orderly EOF is fed as. *)
  | Other of Pmtest_wire.Wire.kind  (** Well-formed, but no session frame. *)
  | Bad of string  (** Undecodable: refuse the session with this message. *)

type 'a action =
  | Ack of int * Pmtest_model.Model.kind  (** Admitted: send [Hello_ack]. *)
  | Set_prelude of int * 'a  (** The session's following sections carry it. *)
  | Check of { sid : int; section : 'a; depth : int }
      (** Dispatch it; [depth] is the session's in-flight count with it. *)
  | Shed of int * 'a  (** Dropped at the bound. *)
  | Reply of int  (** Everything is checked: send the session's report. *)
  | Close of int * string option  (** Send [Err msg] if given, then close. *)

type 'a t

val create :
  max_inflight:int ->
  policy:Pmtest_wire.Wire.policy ->
  idle_timeout:float ->
  admit:(unit -> string option) ->
  'a t
(** [idle_timeout <= 0.] disables the deadlines. [admit] decides a
    [Hello] as it takes effect: [None] admits, [Some why] refuses. *)

val least_loaded : int array -> int
(** The shard to pin a connection to, given each shard's pin count: the
    smallest, ties to the lowest index. *)

val connect : 'a t -> int -> now:float -> 'a action list

val frames : 'a t -> int -> now:float -> 'a frame list -> 'a action list
(** What one read delivered; [[]] (a partial frame) restarts no clock. *)

val completed : 'a t -> int -> now:float -> 'a action list
(** One of the session's sections is checked, in dispatch order. *)

val hangup : 'a t -> int -> 'a action list
val tick : 'a t -> now:float -> 'a action list
val stop : 'a t -> 'a action list
val readable : 'a t -> int -> bool

val needed : 'a t -> int
(** How many more completions before the loop is worth waking for a
    session that waits on them rather than on its client: down to half
    the window for a blocked session, every section in flight for a
    pending result; the fewest over all sessions, [0] when none waits. *)

val next_deadline : 'a t -> float option
val sessions : 'a t -> int
