open Pmtest_util
module Model = Pmtest_model.Model
module Report = Pmtest_core.Report

(* One frame on the wire:

     version  u8   (= [version])
     kind     u8
     len      u32be  (payload bytes)
     crc      u32be  (CRC-32/IEEE of version, kind, len, then payload)
     payload  len bytes

   The CRC catches a torn or bit-flipped frame, kind byte included,
   before its payload ever reaches the packed decoder; the decoder's own
   validation (checked varints, loc-table bounds) then guards against a
   hostile client that computes a correct CRC over garbage. *)

(* One protocol version for every frame kind: both ends of every link
   are built from this repository, so a header carrying any other
   version byte is a peer this build cannot talk to. *)
let version = 3

(* Cap well above any real section (the fuzz generator tops out around
   tens of KiB) but low enough that a corrupt length field cannot make
   the reader try to allocate gigabytes. *)
let max_payload = 64 * 1024 * 1024

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

let kind_code = function
  | Hello -> 0
  | Hello_ack -> 1
  | Prelude -> 2
  | Section -> 3
  | Get_result -> 4
  | Report_frame -> 5
  | Bye -> 6
  | Err -> 7
  | Worker_hello -> 8
  | Job_offer -> 9
  | Job_claim -> 10
  | Job_result -> 11
  | Checkpoint -> 12
  | Job_refused -> 13

let kind_of_code = function
  | 0 -> Some Hello
  | 1 -> Some Hello_ack
  | 2 -> Some Prelude
  | 3 -> Some Section
  | 4 -> Some Get_result
  | 5 -> Some Report_frame
  | 6 -> Some Bye
  | 7 -> Some Err
  | 8 -> Some Worker_hello
  | 9 -> Some Job_offer
  | 10 -> Some Job_claim
  | 11 -> Some Job_result
  | 12 -> Some Checkpoint
  | 13 -> Some Job_refused
  | _ -> None

let kind_name = function
  | Hello -> "hello"
  | Hello_ack -> "hello-ack"
  | Prelude -> "prelude"
  | Section -> "section"
  | Get_result -> "get-result"
  | Report_frame -> "report"
  | Bye -> "bye"
  | Err -> "err"
  | Worker_hello -> "worker-hello"
  | Job_offer -> "job-offer"
  | Job_claim -> "job-claim"
  | Job_result -> "job-result"
  | Job_refused -> "job-refused"
  | Checkpoint -> "checkpoint"

type error = Closed | Timeout | Corrupt of string | Version_mismatch of int

let error_to_string = function
  | Closed -> "connection closed"
  | Timeout -> "receive timeout"
  | Corrupt m -> "corrupt frame: " ^ m
  | Version_mismatch v ->
    Printf.sprintf "protocol version mismatch (peer sent %d, speak %d)" v version

(* --- CRC-32 (IEEE 802.3, reflected) ------------------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc_update c b pos len =
  let table = Lazy.force crc_table and c = ref c in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (Bytes.get b i)) land 0xff) lxor (!c lsr 8)
  done;
  !c

let crc32 s = crc_update 0xffffffff (Bytes.unsafe_of_string s) 0 (String.length s) lxor 0xffffffff

(* --- Raw fd I/O ---------------------------------------------------------- *)

(* A [deadline] (monotonic ns) bounds a whole frame: each read(2) or
   write(2) gets only the time left as its timeout, so a peer that moves
   a few bytes at a time cannot stretch the frame past it.  A zero
   timeout means none, hence the 1 ms floor; a past deadline is EAGAIN. *)
let arm fd opt = function
  | None -> ()
  | Some d ->
    let left = float_of_int (d - Pmtest_obs.Obs.now_ns ()) /. 1e9 in
    if left <= 0. then raise (Unix.Unix_error (EAGAIN, "deadline", ""));
    Unix.setsockopt_float fd opt (Float.max left 1e-3)

let rec write_exactly ?deadline fd buf pos len =
  if len = 0 then Ok ()
  else
    match
      arm fd SO_SNDTIMEO deadline;
      Unix.write fd buf pos len
    with
    | n -> write_exactly ?deadline fd buf (pos + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> write_exactly ?deadline fd buf pos len
    | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) -> Error Closed
    (* SO_SNDTIMEO expired: the peer stopped reading. *)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> Error Timeout

(* version + kind + len + crc. *)
let header_len = 10

(* The CRC of the frame at [off] with a [len]-byte payload: the header
   up to the CRC field, then the payload. *)
let frame_crc b off len =
  crc_update (crc_update 0xffffffff b off 6) b (off + header_len) len lxor 0xffffffff

let put_u32be b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let get_u32be b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let write_frame ?timeout fd kind payload =
  let len = String.length payload in
  if len > max_payload then Error (Corrupt (Printf.sprintf "outgoing payload too large (%d bytes)" len))
  else begin
    let b = Bytes.create (header_len + len) in
    Bytes.set b 0 (Char.chr version);
    Bytes.set b 1 (Char.chr (kind_code kind));
    put_u32be b 2 len;
    Bytes.blit_string payload 0 b header_len len;
    put_u32be b 6 (frame_crc b 0 len);
    let deadline =
      Option.map (fun s -> Pmtest_obs.Obs.now_ns () + int_of_float (s *. 1e9)) timeout
    in
    write_exactly ?deadline fd b 0 (Bytes.length b)
  end

(* --- Buffered batch reader ----------------------------------------------

   One [read(2)] often delivers several frames when a client streams
   sections back-to-back (or when the reader fell behind); parsing them
   all out of one buffer amortises the syscall and the reader-thread
   wakeup across the whole batch instead of paying both per frame. *)

type reader = {
  rfd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;  (* first unparsed byte *)
  mutable lim : int;  (* end of valid bytes *)
  (* A framing error poisons the stream (byte positions after it are
     meaningless), so it sticks: frames parsed before it are still
     delivered, then every later call re-reports the error.  [Timeout]
     is transient and does not stick. *)
  mutable rerr : error option;
}

let reader ?(buffer = 64 * 1024) fd =
  { rfd = fd; buf = Bytes.create (max buffer header_len); pos = 0; lim = 0; rerr = None }

let buffered r = r.lim - r.pos

(* [`Need n] = the current frame spans [n] bytes total and the buffer
   holds fewer; refill and retry. *)
let parse_one r =
  if buffered r < header_len then `Need header_len
  else begin
    let b = r.buf and off = r.pos in
    let v = Char.code (Bytes.get b off) in
    if v <> version then `Fail (Version_mismatch v)
    else
      match kind_of_code (Char.code (Bytes.get b (off + 1))) with
      | None ->
        `Fail (Corrupt (Printf.sprintf "unknown frame kind %d" (Char.code (Bytes.get b (off + 1)))))
      | Some kind ->
        let len = get_u32be b (off + 2) in
        let crc = get_u32be b (off + 6) in
        if len > max_payload then
          `Fail (Corrupt (Printf.sprintf "payload length %d exceeds limit" len))
        else if buffered r < header_len + len then `Need (header_len + len)
        else if frame_crc b off len <> crc then `Fail (Corrupt "frame CRC mismatch")
        else begin
          r.pos <- off + header_len + len;
          `Frame (kind, Bytes.sub_string b (off + header_len) len)
        end
  end

(* EOF below a complete header is an orderly close; EOF after a header
   promised more payload is a torn frame. *)
let eof_error r = if buffered r >= header_len then Corrupt "frame truncated mid-payload" else Closed

let rec refill ?deadline r ~need =
  if r.pos > 0 then begin
    let n = buffered r in
    Bytes.blit r.buf r.pos r.buf 0 n;
    r.pos <- 0;
    r.lim <- n
  end;
  if Bytes.length r.buf < need then begin
    let cap = ref (Bytes.length r.buf) in
    while !cap < need do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit r.buf 0 nb 0 r.lim;
    r.buf <- nb
  end;
  (* SO_RCVTIMEO surfaces as EAGAIN/EWOULDBLOCK from read(2): the peer
     went quiet, which is distinct from the peer closing. *)
  match
    arm r.rfd SO_RCVTIMEO deadline;
    Unix.read r.rfd r.buf r.lim (Bytes.length r.buf - r.lim)
  with
  | 0 -> Error (eof_error r)
  | n ->
    r.lim <- r.lim + n;
    Ok ()
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> Error Timeout
  | exception Unix.Unix_error (EINTR, _, _) -> refill ?deadline r ~need
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) -> Error (eof_error r)

let set_err r e =
  (match e with Timeout -> () | _ -> r.rerr <- Some e);
  Error e

let rec read_one ?deadline r =
  match r.rerr with
  | Some e -> Error e
  | None -> (
    match parse_one r with
    | `Frame f -> Ok f
    | `Fail e -> set_err r e
    | `Need need -> (
      match refill ?deadline r ~need with
      | Ok () -> read_one ?deadline r
      | Error e -> set_err r e))

let rec drain r acc =
  match parse_one r with
  | `Frame f -> drain r (f :: acc)
  | `Need need -> `Need (need, List.rev acc)
  | `Fail e -> `Fail (e, List.rev acc)

let read_some ?deadline r =
  match r.rerr with
  | Some e -> Error e
  | None -> (
    let deliver = function
      | `Fail (e, []) -> set_err r e
      | `Fail (e, frames) ->
        (* Deliver what parsed cleanly; the sticky error resurfaces on the
           next call, so nothing ahead of the corruption is lost. *)
        r.rerr <- Some e;
        Ok frames
      | `Need (_, frames) -> Ok frames
    in
    match drain r [] with
    | `Need (need, []) -> (
      match refill ?deadline r ~need with
      | Ok () -> deliver (drain r [])
      | Error e -> set_err r e)
    | d -> deliver d)

let read_error r = r.rerr

let rec read_batch r = match read_some r with Ok [] -> read_batch r | res -> res

(* --- Payload codecs ------------------------------------------------------ *)

(* Same unsigned LEB128 the packed arenas use; lengths and counts only
   (nothing here is signed).  The guard matters: without it a negative
   value reaches [Char.chr] after a handful of shifts and raises an
   [Invalid_argument] with no hint of where it came from — callers must
   validate signed quantities (seeds, ranges) before encoding. *)
let put_uv b v =
  if v < 0 then
    invalid_arg (Printf.sprintf "Wire.put_uv: negative value %d (unsigned LEB128 only)" v);
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char b (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char b (Char.chr !v)

(* Reader over a payload string; all access bounds-checked, errors as
   [Corrupt]. *)
exception Bad of string

let get_uv s pos =
  let len = String.length s in
  let v = ref 0 and shift = ref 0 and p = ref pos and fin = ref false in
  while not !fin do
    if !p >= len then raise (Bad "truncated varint");
    if !shift > 62 then raise (Bad "varint overflow");
    let c = Char.code s.[!p] in
    incr p;
    v := !v lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    if c < 0x80 then fin := true
  done;
  (!v, !p)

let put_str b s =
  put_uv b (String.length s);
  Buffer.add_string b s

let get_str s pos =
  let n, pos = get_uv s pos in
  if pos + n > String.length s then raise (Bad "truncated string");
  (String.sub s pos n, pos + n)

let decode f s = match f s with v -> Ok v | exception Bad m -> Error (Corrupt m)

let at_end s pos = if pos <> String.length s then raise (Bad "trailing bytes in payload")

(* Hello: the session's persistency model. *)

let model_code = function Model.X86 -> 0 | Model.Hops -> 1 | Model.Eadr -> 2 | Model.Cxl -> 3
let model_of_code = function 0 -> Model.X86 | 1 -> Model.Hops | 2 -> Model.Eadr | 3 -> Model.Cxl | c -> raise (Bad (Printf.sprintf "unknown model code %d" c))

let encode_hello ~model =
  let b = Buffer.create 4 in
  put_uv b (model_code model);
  Buffer.contents b

let decode_hello s =
  decode
    (fun s ->
      let c, pos = get_uv s 0 in
      at_end s pos;
      model_of_code c)
    s

(* Hello-ack: session id plus the server's backpressure contract. *)

type policy = Block | Shed

let policy_code = function Block -> 0 | Shed -> 1
let policy_of_code = function 0 -> Block | 1 -> Shed | c -> raise (Bad (Printf.sprintf "unknown policy code %d" c))
let policy_name = function Block -> "block" | Shed -> "shed"

let encode_hello_ack ~session ~max_inflight ~policy =
  let b = Buffer.create 8 in
  put_uv b session;
  put_uv b max_inflight;
  put_uv b (policy_code policy);
  Buffer.contents b

let decode_hello_ack s =
  decode
    (fun s ->
      let session, pos = get_uv s 0 in
      let max_inflight, pos = get_uv s pos in
      let pc, pos = get_uv s pos in
      at_end s pos;
      (session, max_inflight, policy_of_code pc))
    s

(* Report: the aggregate a session has earned so far.  Diagnostics carry
   (kind, loc, message) — exactly the identity the cross-engine oracles
   compare on, so serve-vs-in-process equality is meaningful. *)

let report_kinds =
  [|
    Report.Not_persisted;
    Report.Not_ordered;
    Report.Unnecessary_writeback;
    Report.Duplicate_writeback;
    Report.Missing_log;
    Report.Duplicate_log;
    Report.Incomplete_tx;
    Report.Invalid_op;
    Report.Lint_unflushed_write;
    Report.Lint_unfenced_flush;
    Report.Lint_redundant_fence;
    Report.Lint_write_after_flush;
    Report.Lint_unmatched_exclude;
  |]

let report_kind_code k =
  let rec go i = if report_kinds.(i) = k then i else go (i + 1) in
  go 0

let report_kind_of_code c =
  if c < 0 || c >= Array.length report_kinds then
    raise (Bad (Printf.sprintf "unknown diagnostic kind code %d" c))
  else report_kinds.(c)

let encode_report (r : Report.t) =
  let b = Buffer.create 64 in
  put_uv b r.Report.entries;
  put_uv b r.Report.ops;
  put_uv b r.Report.checkers;
  put_uv b (List.length r.Report.diagnostics);
  List.iter
    (fun (d : Report.diagnostic) ->
      put_uv b (report_kind_code d.Report.kind);
      let loc = (d.Report.loc :> Loc.t) in
      put_str b (if Loc.is_none d.Report.loc then "" else loc.Loc.file);
      put_uv b loc.Loc.line;
      put_str b d.Report.message)
    r.Report.diagnostics;
  Buffer.contents b

let decode_report s =
  decode
    (fun s ->
      let entries, pos = get_uv s 0 in
      let ops, pos = get_uv s pos in
      let checkers, pos = get_uv s pos in
      let n, pos = get_uv s pos in
      let pos = ref pos in
      let diags =
        List.init n (fun _ ->
            let kc, p = get_uv s !pos in
            let file, p = get_str s p in
            let line, p = get_uv s p in
            let message, p = get_str s p in
            pos := p;
            let loc = if file = "" && line = 0 then Loc.none else Loc.make ~file ~line in
            { Report.kind = report_kind_of_code kc; loc; message })
      in
      at_end s !pos;
      { Report.diagnostics = diags; entries; ops; checkers })
    s

(* Err: a human-readable refusal (session limit, corrupt section, ...). *)

let encode_err msg =
  let b = Buffer.create (String.length msg + 2) in
  put_str b msg;
  Buffer.contents b

let decode_err s =
  decode
    (fun s ->
      let m, pos = get_str s 0 in
      at_end s pos;
      m)
    s

(* --- Farm frames -----------------------------------------------------------

   [Worker_hello] carries a name only: the worker announces itself and
   the coordinator answers with the id it assigned.  Jobs are identified
   by (id, attempt):
   the attempt distinguishes a reassigned or stolen copy of the same
   seed range, so a stale result from a presumed-dead worker can still
   be matched to its job and digest-compared for nondeterminism. *)

let encode_worker_hello ~name =
  let b = Buffer.create 16 in
  put_str b name;
  Buffer.contents b

let decode_worker_hello s =
  decode
    (fun s ->
      let name, pos = get_str s 0 in
      at_end s pos;
      name)
    s

let encode_job_offer ~job ~attempt ~lo ~hi ~spec =
  let b = Buffer.create 32 in
  put_uv b job;
  put_uv b attempt;
  put_uv b lo;
  put_uv b hi;
  put_str b spec;
  Buffer.contents b

let decode_job_offer s =
  decode
    (fun s ->
      let job, pos = get_uv s 0 in
      let attempt, pos = get_uv s pos in
      let lo, pos = get_uv s pos in
      let hi, pos = get_uv s pos in
      let spec, pos = get_str s pos in
      at_end s pos;
      if hi < lo then raise (Bad "job seed range is inverted");
      (job, attempt, lo, hi, spec))
    s

let encode_job_claim ~job ~attempt =
  let b = Buffer.create 8 in
  put_uv b job;
  put_uv b attempt;
  Buffer.contents b

let decode_job_claim s =
  decode
    (fun s ->
      let job, pos = get_uv s 0 in
      let attempt, pos = get_uv s pos in
      at_end s pos;
      (job, attempt))
    s

let encode_job_result ~job ~attempt ~digest ~units ~elapsed_ms ~findings =
  let b = Buffer.create 64 in
  put_uv b job;
  put_uv b attempt;
  put_str b digest;
  put_uv b units;
  put_uv b elapsed_ms;
  put_uv b (List.length findings);
  List.iter
    (fun (name, text) ->
      put_str b name;
      put_str b text)
    findings;
  Buffer.contents b

let decode_job_result s =
  decode
    (fun s ->
      let job, pos = get_uv s 0 in
      let attempt, pos = get_uv s pos in
      let digest, pos = get_str s pos in
      let units, pos = get_uv s pos in
      let elapsed_ms, pos = get_uv s pos in
      let n, pos = get_uv s pos in
      let pos = ref pos in
      let findings =
        List.init n (fun _ ->
            let name, p = get_str s !pos in
            let text, p = get_str s p in
            pos := p;
            (name, text))
      in
      at_end s !pos;
      (job, attempt, digest, units, elapsed_ms, findings))
    s

(* Job_refused: the worker could not run an offered job (unknown fault,
   bad spec, inverted range...).  Carrying the job id is what lets the
   coordinator unassign the job instead of leaving it held forever by a
   live, heartbeating worker. *)

let encode_job_refused ~job ~attempt ~reason =
  let b = Buffer.create 32 in
  put_uv b job;
  put_uv b attempt;
  put_str b reason;
  Buffer.contents b

let decode_job_refused s =
  decode
    (fun s ->
      let job, pos = get_uv s 0 in
      let attempt, pos = get_uv s pos in
      let reason, pos = get_str s pos in
      at_end s pos;
      (job, attempt, reason))
    s

(* Checkpoint doubles as the worker heartbeat: [running] is the job id
   the worker is currently executing plus one (0 = idle), so liveness
   and progress travel in one small frame. *)

let encode_checkpoint ~running ~jobs_done =
  let b = Buffer.create 8 in
  put_uv b (match running with None -> 0 | Some j -> j + 1);
  put_uv b jobs_done;
  Buffer.contents b

let decode_checkpoint s =
  decode
    (fun s ->
      let r, pos = get_uv s 0 in
      let jobs_done, pos = get_uv s pos in
      at_end s pos;
      ((if r = 0 then None else Some (r - 1)), jobs_done))
    s

(* --- Dialing ----------------------------------------------------------------

   A pmtestd client and a pmfarm worker open a link the same way: connect,
   send a hello, read one reply; an [Err] reply is a refusal.  A listener
   that never accepts sends no reply, hence its deadline.  The socket is
   closed on every failure. *)

let hello_timeout = 5.0

let dial ~socket ~hello:(hello_kind, hello) ~reply:(reply_kind, decode_reply) ~refused =
  (* A peer that vanishes mid-write must yield EPIPE, not kill us. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd ->
    let result =
      match Unix.connect fd (ADDR_UNIX socket) with
      | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e))
      | () -> (
        let r = reader fd in
        match write_frame fd hello_kind hello with
        | Error e -> Error (error_to_string e)
        | Ok () -> (
          let deadline = Pmtest_obs.Obs.now_ns () + int_of_float (hello_timeout *. 1e9) in
          let reply = read_one ~deadline r in
          Unix.setsockopt_float fd SO_RCVTIMEO 0.;
          match reply with
          | Error Timeout -> Error (Printf.sprintf "no reply within %g s" hello_timeout)
          | Error e -> Error (error_to_string e)
          | Ok (kind, payload) when kind = reply_kind -> (
            match decode_reply payload with
            | Ok v -> Ok (fd, r, v)
            | Error e -> Error (error_to_string e))
          | Ok (Err, payload) ->
            Error
              (match decode_err payload with
              | Ok m -> refused ^ ": " ^ m
              | Error e -> error_to_string e)
          | Ok (kind, _) -> Error (Printf.sprintf "unexpected %s frame" (kind_name kind))))
    in
    if Result.is_error result then (try Unix.close fd with Unix.Unix_error _ -> ());
    result

(* Exponential backoff with full-range jitter (0.5x..1.5x of the
   nominal delay): workers of one farm that all lose the coordinator at
   once must not reconnect in lockstep. *)
let retry ~attempts ~base_delay ~max_delay ?(on_retry = fun ~attempt:_ ~delay:_ _ -> ()) f =
  let rng = Random.State.make_self_init () in
  let rec go n delay =
    match f () with
    | Ok _ as ok -> ok
    | Error e when n + 1 >= attempts -> Error (Printf.sprintf "%s (after %d attempt(s))" e attempts)
    | Error e ->
      let jittered = delay *. (0.5 +. Random.State.float rng 1.0) in
      on_retry ~attempt:(n + 1) ~delay:jittered e;
      (try Unix.sleepf jittered with Unix.Unix_error _ -> ());
      go (n + 1) (Float.min max_delay (delay *. 2.0))
  in
  go 0 base_delay

(* --- Listening -----------------------------------------------------------------

   pmtestd and the pmfarm coordinator each serve one [select] loop over a
   listening Unix socket. *)

let listen path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  try
    Unix.bind fd (ADDR_UNIX path);
    Unix.listen fd 64;
    (* A connection reset between select and accept must not block. *)
    Unix.set_nonblock fd;
    fd
  with Unix.Unix_error _ as e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let accept fd =
  match Unix.accept ~cloexec:true fd with
  | exception Unix.Unix_error _ -> None  (* the peer gave up, or out of fds *)
  | conn, _ ->
    (* Blocking, whatever it inherited from the listening fd: a full
       socket buffer must wait out the frame's deadline, not fail at
       once. *)
    (try Unix.clear_nonblock conn with Unix.Unix_error _ -> ());
    Some conn
