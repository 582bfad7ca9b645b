(** Client side of the [pmtestd] framed protocol.

    A {!t} is one session on a remote daemon: connect with a
    persistency model, stream packed sections, fetch the aggregate
    report.  All calls are blocking and single-threaded per connection;
    errors are [Error msg] results (and mark the client closed when the
    transport is gone), never exceptions. *)

open Pmtest_trace
module Model = Pmtest_model.Model
module Report = Pmtest_core.Report
module Wire = Pmtest_wire.Wire

type t

val connect : ?model:Model.kind -> socket:string -> unit -> (t, string) result
(** Dial the daemon's Unix socket and run the [Hello]/[Hello_ack]
    handshake. *)

val connect_retry :
  ?model:Model.kind ->
  ?attempts:int ->
  ?base_delay:float ->
  ?max_delay:float ->
  ?on_retry:(attempt:int -> delay:float -> string -> unit) ->
  socket:string ->
  unit ->
  (t, string) result
(** {!connect} under {!Wire.retry}: [attempts] (default 8) tries with
    jittered backoff from [base_delay] (default 50 ms) doubling up to
    [max_delay] (default 2 s). *)

val policy : t -> Wire.policy
(** The backpressure contract the server announced in its ack. *)

val send_packed : ?prelude:Event.t array -> t -> Packed.t -> (unit, string) result
(** Ship one section.  Consumes the arena (freed after encoding).
    [prelude] is the session's current exclusion preamble; it travels
    as a separate [Prelude] frame and only when it differs from the
    last one sent. The arena is freed on every path, errors included. *)

val send_events : ?prelude:Event.t array -> t -> Event.t array -> (unit, string) result
(** Boxed convenience over {!send_packed}; empty sections are skipped. *)

val get_result : t -> (Report.t, string) result
(** [PMTest_GET_RESULT] over the wire: blocks until the daemon has
    checked every section this session sent, returns the session
    aggregate. *)

val close : t -> unit
(** Send [Bye] (best effort) and close the socket. *)

(** A {!Pmtest_core.Pmtest} session whose target is a remote daemon:
    per-thread packed builders, exclusion scope, [on_section] observers
    and [start]/[stop] are [Pmtest]'s own. The exclusion preamble
    travels as a deduplicated [Prelude] frame. Transport errors are
    latched and returned by [finish], never raised. *)
module Session : sig
  type conn = t
  type t = Pmtest_core.Pmtest.t

  val make : ?obs:Pmtest_obs.Obs.t -> conn -> t
  val sink : ?thread:int -> t -> Sink.t
  val emit : ?thread:int -> ?loc:Pmtest_util.Loc.t -> t -> Event.kind -> unit

  val send_trace : ?thread:int -> t -> unit
  (** Hand the thread's accumulated section to the daemon
      ([PMTest_SEND_TRACE]). *)

  val finish : t -> (Report.t, string) result
  (** Flush every thread's pending section and fetch the aggregate. The
      connection stays open: {!close} it afterwards. *)
end
