open Pmtest_model
open Pmtest_trace
module Runtime = Pmtest_core.Runtime
module Report = Pmtest_core.Report
module Obs = Pmtest_obs.Obs
module Wire = Pmtest_wire.Wire

type config = {
  socket : string;
  shards : int;
  workers : int;
  max_sessions : int;
  max_inflight : int;
  idle_timeout : float;
  policy : Wire.policy;
}

let default_config =
  {
    socket = "pmtestd.sock";
    shards = 1;
    workers = 2;
    max_sessions = 32;
    max_inflight = 64;
    idle_timeout = 30.0;
    policy = Wire.Block;
  }

(* One shard: a whole private copy of the daemon's hot state.  Sessions
   pinned to different shards share {e no} mutex — each shard owns its
   runtime (worker domains + merge lock), its arena freelist, and its
   own accept thread, and its session readers run as threads of the
   shard's domain, so even their OCaml runtime lock is private.  The
   only cross-shard state left is the admission table under [t.m],
   touched once per connect/disconnect. *)
type shard = {
  idx : int;
  rt : Runtime.t;
  arena_pool : Packed.pool;
  (* Accepted fds are handed to their pinned shard through this queue;
     the shard's dispatcher spawns the session thread inside its own
     domain (threads cannot migrate, so pinning happens at spawn). *)
  iq_m : Mutex.t;
  iq_c : Condition.t;
  mutable iq : (int * Unix.file_descr) list;  (* reversed arrival order *)
  mutable iq_quit : bool;
}

(* One attached client.  [sm]/[sc] guard the per-session fields; lock
   order is shard-runtime-merge-lock before [sm] (the completion
   callback runs under the former and takes the latter), and the reader
   thread never holds [sm] while dispatching, so that order is never
   inverted. *)
type session = {
  sid : int;
  fd : Unix.file_descr;
  reader : Wire.reader;
  shard : shard;
  model : Model.kind;
  sm : Mutex.t;
  sc : Condition.t;
  mutable prelude : Event.t array;
  mutable inflight : int;  (* dispatched, not yet merged *)
  mutable aggregate : Report.t;
}

type t = {
  cfg : config;
  obs : Obs.t;
  listen : Unix.file_descr;
  shards : shard array;
  mutable domains : unit Domain.t array;
  (* [m] guards everything below: the admission table is the single
     piece of cross-shard daemon state. *)
  m : Mutex.t;
  drained : Condition.t;
  mutable next_cid : int;
  (* cid -> fd of every accepted connection (handshaking or admitted),
     so [stop] can shut all their reads down. *)
  conns : (int, Unix.file_descr) Hashtbl.t;
  (* Connections currently pinned to each shard — the least-loaded
     admission metric and the [sessions_per_shard] introspection. *)
  assigned : int array;
  mutable nlive : int;  (* admitted sessions, vs [max_sessions] *)
  mutable stopping : bool;
  mutable stopped : bool;
}

let active_sessions t = Mutex.protect t.m (fun () -> t.nlive)

let shard_count t = Array.length t.shards

let sessions_per_shard t = Mutex.protect t.m (fun () -> Array.copy t.assigned)

(* --- Daemon counters ------------------------------------------------------ *)

let sessions_opened = Obs.counter "serve_sessions_opened"
let sessions_closed = Obs.counter "serve_sessions_closed"
let sessions_hwm = Obs.gauge "serve_sessions_hwm"
let frames_in = Obs.counter "serve_frames_in"
let frames_out = Obs.counter "serve_frames_out"
let frame_bytes_in = Obs.counter "serve_frame_bytes_in"
let frame_bytes_out = Obs.counter "serve_frame_bytes_out"

(* Rejected frames (CRC / version / decode) and sections dropped by the
   [Shed] policy. *)
let frames_corrupt = Obs.counter "serve_frames_corrupt"
let sections_shed = Obs.counter "serve_sections_shed"

(* Accepted-but-unchecked sections, and their receipt-to-checked time. *)
let inflight_hwm = Obs.gauge "serve_inflight_hwm"
let section_latency = Obs.histogram "serve"

let count_frame obs frames bytes payload =
  if Obs.enabled obs then begin
    Obs.add obs frames 1;
    Obs.add obs bytes (Wire.header_len + String.length payload)
  end

(* --- Per-session protocol ------------------------------------------------ *)

let send t fd kind payload =
  match Wire.write_frame fd kind payload with
  | Ok () ->
    count_frame t.obs frames_out frame_bytes_out payload;
    true
  | Error _ -> false

let send_err t fd msg = ignore (send t fd Wire.Err (Wire.encode_err msg))

(* Backpressure: [Block] parks the reader thread until the pool catches
   up — the client's sends then stall in [write(2)] once the socket
   buffers fill, with no explicit credit protocol.  [Shed] drops the
   section on the floor and counts it. *)
let dispatch t sess p =
  let admitted =
    Mutex.protect sess.sm (fun () ->
        if t.cfg.policy = Wire.Shed && sess.inflight >= t.cfg.max_inflight then None
        else begin
          while sess.inflight >= t.cfg.max_inflight do
            Condition.wait sess.sc sess.sm
          done;
          sess.inflight <- sess.inflight + 1;
          Some (sess.inflight, sess.prelude)
        end)
  in
  match admitted with
  | None ->
    Packed.free ~pool:sess.shard.arena_pool p;
    if Obs.enabled t.obs then Obs.add t.obs sections_shed 1
  | Some (depth, prelude) ->
    if Obs.enabled t.obs then Obs.max t.obs inflight_hwm depth;
    let t0 = Obs.now_ns () in
    Runtime.send_packed_cb ~model:sess.model ~prelude sess.shard.rt p (fun r ->
        (* Fires in dispatch order under the shard runtime's merge lock:
           a session is pinned to exactly one shard, so its callback
           stream is totally ordered there and the per-session aggregate
           stays byte-identical to a dedicated synchronous run over the
           same section stream — sharding never reorders one session. *)
        Mutex.protect sess.sm (fun () ->
            sess.aggregate <- Report.merge sess.aggregate r;
            sess.inflight <- sess.inflight - 1;
            Condition.broadcast sess.sc);
        if Obs.enabled t.obs then Obs.record t.obs section_latency (Obs.now_ns () - t0))

(* Returns [false] to end the session. *)
let handle_frame t sess kind payload =
  match (kind : Wire.kind) with
  | Wire.Prelude -> (
    match Packed.decode_wire ~obs:t.obs ~pool:sess.shard.arena_pool payload with
    | Error e ->
      if Obs.enabled t.obs then Obs.add t.obs frames_corrupt 1;
      send_err t sess.fd ("bad prelude: " ^ Packed.decode_error_to_string e);
      false
    | Ok arena ->
      let events = Packed.to_events arena in
      Packed.free ~pool:sess.shard.arena_pool arena;
      Mutex.protect sess.sm (fun () -> sess.prelude <- events);
      true)
  | Wire.Section -> (
    (* A frame with a valid CRC can still carry garbage (hostile or
       buggy client); the checked decoder turns that into a session
       error instead of an exception inside a checking worker. *)
    match Packed.decode_wire ~obs:t.obs ~pool:sess.shard.arena_pool payload with
    | Error e ->
      if Obs.enabled t.obs then Obs.add t.obs frames_corrupt 1;
      send_err t sess.fd ("bad section: " ^ Packed.decode_error_to_string e);
      false
    | Ok p ->
      dispatch t sess p;
      true)
  | Wire.Get_result ->
    let r =
      Mutex.protect sess.sm (fun () ->
          while sess.inflight > 0 do
            Condition.wait sess.sc sess.sm
          done;
          sess.aggregate)
    in
    send t sess.fd Wire.Report_frame (Wire.encode_report r)
  | Wire.Bye -> false
  | Wire.Hello | Wire.Hello_ack | Wire.Report_frame | Wire.Err
  | Wire.Worker_hello | Wire.Job_offer | Wire.Job_claim | Wire.Job_result | Wire.Job_refused
  | Wire.Checkpoint ->
    (* Farm frames belong on a pmfarm coordinator link, not a checking
       session; refuse them like any other out-of-place kind. *)
    send_err t sess.fd (Printf.sprintf "unexpected %s frame" (Wire.kind_name kind));
    false

(* The reader drains every complete frame a single [read(2)] delivered
   before coming back for more: under concurrent load the syscall, the
   wakeup and the buffer walk amortise across the whole batch. *)
let rec session_loop t sess =
  match Wire.read_batch sess.reader with
  | Ok frames ->
    let continue =
      List.fold_left
        (fun cont (kind, payload) ->
          cont
          && begin
               count_frame t.obs frames_in frame_bytes_in payload;
               handle_frame t sess kind payload
             end)
        true frames
    in
    if continue then session_loop t sess
  | Error Wire.Timeout -> send_err t sess.fd "idle timeout exceeded"
  | Error Wire.Closed ->
    (* Client hung up — possibly mid-frame; anything already dispatched
       keeps flowing through the pool and is simply never reported. *)
    ()
  | Error (Wire.Corrupt m) ->
    if Obs.enabled t.obs then Obs.add t.obs frames_corrupt 1;
    send_err t sess.fd ("corrupt frame: " ^ m)
  | Error (Wire.Version_mismatch v) ->
    if Obs.enabled t.obs then Obs.add t.obs frames_corrupt 1;
    send_err t sess.fd (Printf.sprintf "unsupported protocol version %d" v)

(* Handshake, admission, the frame loop, then teardown.  Runs as a
   thread of its shard's domain; never lets an exception escape (a dead
   session must not take the daemon down). *)
let serve_conn t sh cid fd =
  (* [cleanup] is idempotent (the exception arm below may run after a
     normal-path cleanup already did), and [admitted] lives in a ref so
     an exception escaping [session_loop] still unwinds the live-session
     count it bumped at admission. *)
  let admitted = ref false in
  let cleaned = ref false in
  let cleanup () =
    if not !cleaned then begin
      cleaned := true;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.protect t.m (fun () ->
          Hashtbl.remove t.conns cid;
          t.assigned.(sh.idx) <- t.assigned.(sh.idx) - 1;
          if !admitted then t.nlive <- t.nlive - 1;
          Condition.broadcast t.drained);
      if !admitted && Obs.enabled t.obs then Obs.add t.obs sessions_closed 1
    end
  in
  match
    if t.cfg.idle_timeout > 0.0 then
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.idle_timeout;
    let reader = Wire.reader fd in
    match Wire.read_one reader with
    | Ok (Wire.Hello, payload) -> (
      count_frame t.obs frames_in frame_bytes_in payload;
      match Wire.decode_hello payload with
      | Error e ->
        send_err t fd (Wire.error_to_string e);
        cleanup ()
      | Ok model -> (
        let verdict =
          Mutex.protect t.m (fun () ->
              if t.stopping then Error "daemon is shutting down"
              else if t.nlive >= t.cfg.max_sessions then
                Error (Printf.sprintf "session limit reached (%d active)" t.nlive)
              else begin
                t.nlive <- t.nlive + 1;
                if Obs.enabled t.obs then Obs.max t.obs sessions_hwm t.nlive;
                admitted := true;
                Ok cid
              end)
        in
        match verdict with
        | Error msg ->
          send_err t fd msg;
          cleanup ()
        | Ok sid ->
          if Obs.enabled t.obs then begin
            Obs.add t.obs sessions_opened 1;
            Obs.shard_session t.obs ~shard:sh.idx
          end;
          let sess =
            {
              sid;
              fd;
              reader;
              shard = sh;
              model;
              sm = Mutex.create ();
              sc = Condition.create ();
              prelude = [||];
              inflight = 0;
              aggregate = Report.empty;
            }
          in
          if
            send t fd Wire.Hello_ack
              (Wire.encode_hello_ack ~session:sid ~max_inflight:t.cfg.max_inflight
                 ~policy:t.cfg.policy)
          then session_loop t sess;
          cleanup ()))
    | Ok (kind, _) ->
      send_err t fd (Printf.sprintf "expected hello, got %s" (Wire.kind_name kind));
      cleanup ()
    | Error (Wire.Version_mismatch v) ->
      if Obs.enabled t.obs then Obs.add t.obs frames_corrupt 1;
      send_err t fd (Printf.sprintf "unsupported protocol version %d" v);
      cleanup ()
    | Error _ -> cleanup ()
  with
  | () -> ()
  | exception _ -> cleanup ()

(* Least-loaded admission, ties to the lowest index: under [t.m], pick
   the shard with the fewest pinned connections and hand the fd over. *)
let pin_conn t fd =
  let pinned =
    Mutex.protect t.m (fun () ->
        if t.stopping then None
        else begin
          let best = ref 0 in
          Array.iteri (fun i n -> if n < t.assigned.(!best) then best := i) t.assigned;
          let s = !best in
          let cid = t.next_cid in
          t.next_cid <- cid + 1;
          Hashtbl.replace t.conns cid fd;
          t.assigned.(s) <- t.assigned.(s) + 1;
          Some (s, cid)
        end)
  in
  match pinned with
  | None -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | Some (s, cid) ->
    let sh = t.shards.(s) in
    Mutex.protect sh.iq_m (fun () ->
        sh.iq <- (cid, fd) :: sh.iq;
        Condition.signal sh.iq_c)

(* Multi-accept fan-in: every shard runs its own acceptor on the one
   shared listener, so accept handling itself scales with the shard
   count and a stall in one shard's domain never blocks new connects. *)
let rec accept_loop t =
  if not t.stopping then
    match Unix.accept ~cloexec:true t.listen with
    | fd, _ ->
      pin_conn t fd;
      accept_loop t
    | exception Unix.Unix_error (EINTR, _, _) -> accept_loop t
    | exception Unix.Unix_error _ -> ()  (* listen fd closed by [stop] *)

(* A shard domain's main: one acceptor thread plus the session
   dispatcher.  Session threads are spawned (and therefore scheduled)
   inside this domain and joined before the domain exits. *)
let shard_main t sh =
  let acceptor = Thread.create (fun () -> accept_loop t) () in
  let threads = ref [] in
  let rec loop () =
    let batch, quit =
      Mutex.protect sh.iq_m (fun () ->
          while sh.iq = [] && not sh.iq_quit do
            Condition.wait sh.iq_c sh.iq_m
          done;
          let batch = List.rev sh.iq in
          sh.iq <- [];
          (batch, sh.iq_quit))
    in
    List.iter
      (fun (cid, fd) ->
        threads := Thread.create (fun () -> serve_conn t sh cid fd) () :: !threads)
      batch;
    if not quit then loop ()
  in
  loop ();
  Thread.join acceptor;
  List.iter Thread.join !threads

let start ?(obs = Obs.disabled) cfg =
  (* Writing a report to a vanished client must be an EPIPE result, not
     a process kill. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let cfg =
    (* [Block] with a zero bound would deadlock the first section;
       [Shed] with zero is a legitimate drop-everything configuration
       (the deterministic shed test uses it). *)
    let cfg =
      if cfg.policy = Wire.Block && cfg.max_inflight < 1 then { cfg with max_inflight = 1 }
      else cfg
    in
    if cfg.shards < 1 then { cfg with shards = 1 } else cfg
  in
  if Sys.file_exists cfg.socket then Unix.unlink cfg.socket;
  let listen = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  (try
     Unix.bind listen (ADDR_UNIX cfg.socket);
     Unix.listen listen 64
   with e ->
     (try Unix.close listen with Unix.Unix_error _ -> ());
     raise e);
  let mk_shard idx =
    let arena_pool = Packed.create_pool () in
    {
      idx;
      rt = Runtime.create ~workers:cfg.workers ~obs ~shard:idx ~arena_pool ();
      arena_pool;
      iq_m = Mutex.create ();
      iq_c = Condition.create ();
      iq = [];
      iq_quit = false;
    }
  in
  let shards = Array.init cfg.shards mk_shard in
  let t =
    {
      cfg;
      obs;
      listen;
      shards;
      domains = [||];
      m = Mutex.create ();
      drained = Condition.create ();
      next_cid = 1;
      conns = Hashtbl.create 16;
      assigned = Array.make cfg.shards 0;
      nlive = 0;
      stopping = false;
      stopped = false;
    }
  in
  t.domains <- Array.map (fun sh -> Domain.spawn (fun () -> shard_main t sh)) shards;
  t

let config t = t.cfg

let stop t =
  let first =
    Mutex.protect t.m (fun () ->
        let first = not t.stopped in
        t.stopped <- true;
        t.stopping <- true;
        first)
  in
  if first then begin
    (* Closing a listening fd does not wake threads parked in accept(2);
       throwaway connections do — one per acceptor.  Each acceptor
       consumes at most one wakeup after [stopping] flips, then exits. *)
    for _ = 1 to Array.length t.shards do
      try
        let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
        (try Unix.connect fd (ADDR_UNIX t.cfg.socket) with Unix.Unix_error _ -> ());
        Unix.close fd
      with Unix.Unix_error _ -> ()
    done;
    (* Stop reading from every accepted connection (handshaking or
       admitted): each reader finishes the frame in hand, drains what it
       dispatched and unregisters.  The write side stays open so a
       pending report still goes out. *)
    Mutex.protect t.m (fun () ->
        Hashtbl.iter
          (fun _ fd -> try Unix.shutdown fd SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
          t.conns;
        while Hashtbl.length t.conns > 0 do
          Condition.wait t.drained t.m
        done);
    (* All sessions are gone; release the shard dispatchers, join the
       shard domains (which join their acceptor and session threads),
       then drain each shard's pool. *)
    Array.iter
      (fun sh ->
        Mutex.protect sh.iq_m (fun () ->
            sh.iq_quit <- true;
            Condition.signal sh.iq_c))
      t.shards;
    Array.iter Domain.join t.domains;
    Array.iter (fun sh -> ignore (Runtime.shutdown sh.rt)) t.shards;
    (try Unix.close t.listen with Unix.Unix_error _ -> ());
    try Unix.unlink t.cfg.socket with Unix.Unix_error _ | Sys_error _ -> ()
  end
