(** The [pmtestd]/[pmfarm] framed protocol.

    Every message between an attached client and the daemon is one
    frame:

    {v
    version  u8     {!version}
    kind     u8
    len      u32be  payload length in bytes
    crc      u32be  CRC-32/IEEE of version, kind, len, then the payload
    payload  len bytes
    v}

    Frame kinds and their payloads:

    - [Hello] (client → server): persistency model code — opens a
      session.
    - [Hello_ack] (server → client): session id, the server's
      [max_inflight] bound and backpressure {!policy}.
    - [Prelude] (client → server): the session's current exclusion
      preamble as a {!Pmtest_trace.Packed.encode_wire} arena; re-sent
      only when it changes, applies to every following [Section].
    - [Section] (client → server): one packed trace section
      ([Packed.encode_wire]).
    - [Get_result] (client → server): barrier — reply comes once every
      section sent so far is checked.
    - [Report_frame] (server → client): the session's aggregate report.
    - [Bye] (client → server): orderly close (empty payload).
    - [Err] (server → client): refusal with a message; the session is
      then closed.

    The pmfarm campaign-distribution family:

    - [Worker_hello] (both ways): a name — the worker announces its own,
      the coordinator answers with the worker id it assigned.
    - [Job_offer] (coordinator → worker): one campaign chunk — job id,
      attempt, seed range [lo, hi) and the campaign spec string.
    - [Job_claim] (worker → coordinator): the worker accepted the job.
    - [Job_result] (worker → coordinator): result digest, units run,
      elapsed time and the shrunk reproducers found in the chunk.
    - [Job_refused] (worker → coordinator): the worker could not run
      the offered job (unknown fault, undecodable spec, bad range); the
      coordinator unassigns the job and requeues it — or aborts the
      campaign once the same job is refused repeatedly.
    - [Checkpoint] (worker → coordinator): heartbeat — the running job
      (if any) and jobs completed so far.  The coordinator echoes an
      idle one (no running job) back to the worker as proof of life.

    Every frame of either family is stamped {!version}; a header
    carrying any other version byte is rejected as [Version_mismatch].

    The CRC rejects torn or corrupted frames cheaply, a flipped kind or
    length byte included;
    [Packed.decode_wire]'s full validation then protects the worker
    pool from adversarial payloads that carry a correct CRC. *)

module Model = Pmtest_model.Model
module Report = Pmtest_core.Report

val version : int
(** The one frame version this build writes and accepts (3). *)

val max_payload : int
(** Reader-side allocation guard (64 MiB); larger frames are corrupt by
    definition. *)

type kind =
  | Hello
  | Hello_ack
  | Prelude
  | Section
  | Get_result
  | Report_frame
  | Bye
  | Err
  | Worker_hello
  | Job_offer
  | Job_claim
  | Job_result
  | Job_refused
  | Checkpoint

val kind_code : kind -> int
val kind_of_code : int -> kind option
val kind_name : kind -> string

type error =
  | Closed  (** Peer hung up (or fd shut down during drain). *)
  | Timeout
      (** [SO_RCVTIMEO] expired — the peer went quiet — or a write
          deadline did: the peer stopped reading. *)
  | Corrupt of string  (** Bad CRC / kind / length / payload encoding. *)
  | Version_mismatch of int  (** Peer speaks another protocol version. *)

val error_to_string : error -> string

val crc32 : string -> int
(** CRC-32/IEEE (the zlib polynomial), for tests and tools. *)

val header_len : int
(** Fixed frame header size (10 bytes) — for byte accounting. *)

(** {1 Frame I/O}

    Blocking, EINTR-safe writes on a connected socket.  A frame larger
    than the socket buffer takes several [write(2)]s, so writers sharing
    an fd must not interleave.  A peer that stops reading yields
    [Error Timeout] once [SO_SNDTIMEO] expires; part of the frame may
    have gone out, so the link is then unusable. *)

val write_frame : ?timeout:float -> Unix.file_descr -> kind -> string -> (unit, error) result
(** [timeout] bounds the whole frame, in seconds, however slowly the peer
    drains it; it replaces the fd's [SO_SNDTIMEO]. *)

(** {1 Reading}

    Frames are read through a {!reader}: it wraps one fd with a growable
    buffer so that a single [read(2)] can yield every frame it
    delivered.  Use one reader per connection for its whole life — bytes
    it has buffered belong to no other reader.  Framing errors
    ([Closed], [Corrupt _], [Version_mismatch _]) are {e sticky}: frames
    parsed before the error are still returned, and the error is
    re-reported by every later call.  [Timeout] is transient: it comes
    from [SO_RCVTIMEO], or from a [deadline] — an instant on
    {!Pmtest_obs.Obs.now_ns}'s clock that bounds each [read(2)] by the
    time left to it (the fd's [SO_RCVTIMEO] is then left set). *)

type reader

val reader : ?buffer:int -> Unix.file_descr -> reader
(** [reader fd] wraps [fd]; [buffer] (default 64 KiB) is the initial
    buffer size, grown as needed up to one [max_payload] frame. *)

val read_one : ?deadline:int -> reader -> (kind * string, error) result
(** Block until one full frame (or an error) is available.  EOF between
    frames is [Closed]; EOF inside a frame, a CRC mismatch, an unknown
    kind or an oversized length is [Corrupt _]. *)

val read_some : ?deadline:int -> reader -> ((kind * string) list, error) result
(** At most one [read(2)], then {e every} complete frame in the buffer,
    possibly none: the call for an event loop whose [select] just
    reported the fd readable.  A [read(2)] ending mid-frame returns
    [Ok []] and keeps the partial frame for the next call. *)

val read_error : reader -> error option
(** The sticky error the next read will report, if it is known already:
    a loop can act on it at once instead of waiting for the fd to turn
    readable again. *)

val read_batch : reader -> ((kind * string) list, error) result
(** Block until at least one full frame is available, then return
    {e every} complete frame in the buffer without further I/O.  The
    returned list is never empty. *)

(** {1 Payload codecs}

    Decoders are total: malformed payloads yield [Error (Corrupt _)],
    never an exception, and trailing bytes are rejected. *)

val encode_hello : model:Model.kind -> string
val decode_hello : string -> (Model.kind, error) result

type policy = Block | Shed
(** What the server does when a session exceeds [max_inflight] unchecked
    sections: [Block] stops reading that session's socket (the client
    blocks in [write(2)] once buffers fill); [Shed] drops further
    sections on the floor and counts them. *)

val policy_code : policy -> int
val policy_name : policy -> string

val encode_hello_ack : session:int -> max_inflight:int -> policy:policy -> string
val decode_hello_ack : string -> (int * int * policy, error) result

val encode_report : Report.t -> string
val decode_report : string -> (Report.t, error) result
(** Round-trip preserves exactly the fields report equality is judged
    on: entries/ops/checkers and each diagnostic's (kind, loc, message),
    in order. *)

val encode_err : string -> string
val decode_err : string -> (string, error) result

(** {1 Farm payload codecs}

    Jobs are identified by [(id, attempt)]: the attempt number
    distinguishes a reassigned or stolen copy of the same seed range,
    so a stale result from a presumed-dead worker still matches its job
    and is digest-compared for nondeterminism instead of dropped. *)

val encode_worker_hello : name:string -> string
val decode_worker_hello : string -> (string, error) result

val encode_job_offer : job:int -> attempt:int -> lo:int -> hi:int -> spec:string -> string
val decode_job_offer : string -> (int * int * int * int * string, error) result
(** [(job, attempt, lo, hi, spec)]; an inverted seed range is corrupt. *)

val encode_job_claim : job:int -> attempt:int -> string
val decode_job_claim : string -> (int * int, error) result

val encode_job_result :
  job:int ->
  attempt:int ->
  digest:string ->
  units:int ->
  elapsed_ms:int ->
  findings:(string * string) list ->
  string

val decode_job_result :
  string -> (int * int * string * int * int * (string * string) list, error) result
(** [(job, attempt, digest, units, elapsed_ms, findings)] where each
    finding is [(name, reproducer_text)]. *)

val encode_job_refused : job:int -> attempt:int -> reason:string -> string
val decode_job_refused : string -> (int * int * string, error) result
(** [(job, attempt, reason)] — a worker-side failure to {e run} the
    job, as opposed to a link failure (which needs no frame at all). *)

val encode_checkpoint : running:int option -> jobs_done:int -> string
val decode_checkpoint : string -> (int option * int, error) result
(** Worker heartbeat: the job currently executing (if any) and jobs
    completed over the connection's lifetime. *)

(** {1 Dialing}

    How [Client] (pmtestd sessions) and the pmfarm worker open a link. *)

val dial :
  socket:string ->
  hello:kind * string ->
  reply:kind * (string -> ('a, error) result) ->
  refused:string ->
  (Unix.file_descr * reader * 'a, string) result
(** Connect to the Unix socket, send [hello], read one reply: a frame of
    the [reply] kind goes to its decoder, an [Err] frame yields
    ["<refused>: <message>"], anything else is an error, and so is no
    reply within {!hello_timeout}: a listener that never accepts cannot
    hang the caller.  The socket is closed on every failure.  Ignores
    [SIGPIPE] process-wide. *)

val hello_timeout : float
(** Seconds {!dial} waits for the reply (5). *)

val retry :
  attempts:int ->
  base_delay:float ->
  max_delay:float ->
  ?on_retry:(attempt:int -> delay:float -> string -> unit) ->
  (unit -> ('a, string) result) ->
  ('a, string) result
(** Call [f] up to [attempts] times.  Between failures sleep [base_delay],
    doubling up to [max_delay], each sleep jittered to 0.5x..1.5x so peers
    that failed together do not retry in lockstep; [on_retry] sees the
    upcoming delay and the error.  The last error gains
    ["(after N attempt(s))"]. *)

(** {1 Listening}

    How pmtestd and the pmfarm coordinator open their socket. *)

val listen : string -> Unix.file_descr
(** A non-blocking Unix stream socket bound at the path and listening
    (backlog 64).  A stale file at the path is unlinked first.  On a
    [Unix_error] the socket is closed and the error re-raised. *)

val accept : Unix.file_descr -> Unix.file_descr option
(** The next connection, close-on-exec and blocking whatever the
    listener is; [None] when the peer gave up before it was taken (or
    the process is out of fds). *)
