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

(* One shard: the private copy of the checking path a session is pinned
   to.  Each shard owns its runtime (worker domains + merge lock) and its
   arena freelist, so sessions on different shards share no checking
   mutex.  One [select] loop on one domain serves every shard's sessions;
   what crosses domains is lock-free: the pin and live counts read by
   monitors, and the completions the workers report. *)
type shard = {
  idx : int;
  rt : Runtime.t;
  arena_pool : Packed.pool;
  pins : int Atomic.t;  (* connections pinned here, admitted or not *)
}

type t = {
  cfg : config;
  obs : Obs.t;
  listen : Unix.file_descr;
  shards : shard array;
  mutable domain : unit Domain.t option;
  live : int Atomic.t;  (* admitted sessions, against [max_sessions] *)
  stopping : bool Atomic.t;
  checked : (int * Report.t) list Atomic.t;  (* (session, report); newest first *)
  wanted : int Atomic.t;  (* completions until the loop can move: wake it at the last *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

(* The loop's half of a session; {!Dispatch} holds the rest. *)
type session = {
  fd : Unix.file_descr;
  sh : shard;  (* pinned for life *)
  reader : Wire.reader;
  mutable model : Model.kind option;  (* [Some] once admitted *)
  mutable prelude : Event.t array;
  mutable aggregate : Report.t;
  mutable streak : int;  (* sections dispatched since the last reply *)
  mutable rest : float;  (* not read again before this time *)
}

let active_sessions t = Atomic.get t.live
let shard_count t = Array.length t.shards
let sessions_per_shard t = Array.map (fun sh -> Atomic.get sh.pins) t.shards

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

let count obs c = if Obs.enabled obs then Obs.add obs c 1

(* A session streaming sections (16 since its last reply) is read at most
   every 0.5 ms.  Otherwise every client write wakes the loop from
   select(2), and where the program, the loop and the checkers share few
   CPUs the kernel tends to run the woken loop on the writer's CPU, ahead
   of the writer: on a 2-vCPU host that preempted a streaming Redis
   client ~90 times per 4000-op session and slowed it ~7 %.  Resting lets
   frames gather in the socket buffer; short sessions never rest, and a
   streaming session's [Get_result] waits at most one rest. *)
let streaming = 16
let rest_s = 0.0005

let now () = float_of_int (Obs.now_ns ()) /. 1e9

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec push a x =
  let l = Atomic.get a in
  if not (Atomic.compare_and_set a l (x :: l)) then push a x

(* [wake_w] is non-blocking: a full pipe already guarantees a wakeup. *)
let wake t = try ignore (Unix.write_substring t.wake_w "x" 0 1) with Unix.Unix_error _ -> ()

(* Only the loop admits, so the live count needs no CAS. *)
let admit t () =
  let n = Atomic.get t.live in
  if n >= t.cfg.max_sessions then Some (Printf.sprintf "session limit reached (%d active)" n)
  else begin
    Atomic.set t.live (n + 1);
    if Obs.enabled t.obs then Obs.max t.obs sessions_hwm (n + 1);
    None
  end

let corrupt t msg =
  count t.obs frames_corrupt;
  Dispatch.Bad msg

let frame t c (kind, payload) =
  count_frame t.obs frames_in frame_bytes_in payload;
  (* A frame with a valid CRC can still carry garbage (hostile or buggy
     client); the checked decoder turns that into a session error instead
     of an exception inside a checking worker. *)
  let decode wrap =
    match Packed.decode_wire ~obs:t.obs ~pool:c.sh.arena_pool payload with
    | Ok p -> wrap p
    | Error e ->
      corrupt t
        (Printf.sprintf "bad %s: %s" (Wire.kind_name kind) (Packed.decode_error_to_string e))
  in
  match (kind : Wire.kind) with
  | Wire.Hello -> (
    match Wire.decode_hello payload with
    | Ok model -> Dispatch.Hello model
    | Error e -> Dispatch.Bad (Wire.error_to_string e))
  | Wire.Prelude -> decode (fun p -> Dispatch.Prelude p)
  | Wire.Section -> decode (fun p -> Dispatch.Section p)
  | Wire.Get_result -> Dispatch.Get_result
  | Wire.Bye -> Dispatch.Bye
  | k -> Dispatch.Other k

let wire_error t = function
  | Wire.Timeout -> []
  (* Client hung up, possibly mid-frame; anything already dispatched
     keeps flowing through the pool and is simply never reported. *)
  | Wire.Closed -> [ Dispatch.Bye ]
  | Wire.Corrupt m -> [ corrupt t ("corrupt frame: " ^ m) ]
  | Wire.Version_mismatch v -> [ corrupt t (Printf.sprintf "unsupported protocol version %d" v) ]

(* The daemon's one loop: one [select] over the wake pipe, the listener
   and every shard's readable sessions, sleeping until the next idle
   deadline or rest.  The dispatcher decides; this loop only does the
   I/O. *)
let run t =
  let d =
    Dispatch.create ~max_inflight:t.cfg.max_inflight ~policy:t.cfg.policy
      ~idle_timeout:t.cfg.idle_timeout ~admit:(admit t)
  in
  let conns = Hashtbl.create 16 (* sid -> session *) in
  let next_sid = ref 1 in
  let timeout = if t.cfg.idle_timeout > 0. then Some t.cfg.idle_timeout else None in
  let rec apply acts = List.iter act acts
  and act = function
    | Dispatch.Ack (sid, model) ->
      with_conn sid (fun c ->
          c.model <- Some model;
          if Obs.enabled t.obs then begin
            Obs.add t.obs sessions_opened 1;
            Obs.shard_session t.obs ~shard:c.sh.idx
          end;
          send sid c Wire.Hello_ack
            (Wire.encode_hello_ack ~session:sid ~max_inflight:t.cfg.max_inflight
               ~policy:t.cfg.policy))
    | Dispatch.Set_prelude (sid, arena) ->
      with_conn sid (fun c ->
          c.prelude <- Packed.to_events arena;
          Packed.free ~pool:c.sh.arena_pool arena)
    | Dispatch.Check { sid; section; depth } ->
      with_conn sid (fun c ->
          c.streak <- c.streak + 1;
          if Obs.enabled t.obs then Obs.max t.obs inflight_hwm depth;
          let t0 = Obs.now_ns () in
          Runtime.send_packed_cb ?model:c.model ~prelude:c.prelude c.sh.rt section (fun r ->
              (* Fires in dispatch order under the shard runtime's merge
                 lock, and the loop merges in push order: each session's
                 aggregate stays byte-identical to a dedicated synchronous
                 run over the same section stream. *)
              push t.checked (sid, r);
              if Atomic.fetch_and_add t.wanted (-1) = 1 then wake t;
              if Obs.enabled t.obs then Obs.record t.obs section_latency (Obs.now_ns () - t0)))
    | Dispatch.Shed (sid, section) ->
      with_conn sid (fun c -> Packed.free ~pool:c.sh.arena_pool section);
      count t.obs sections_shed
    | Dispatch.Reply sid ->
      with_conn sid (fun c ->
          c.streak <- 0;
          send sid c Wire.Report_frame (Wire.encode_report c.aggregate))
    | Dispatch.Close (sid, msg) ->
      with_conn sid (fun c ->
          Option.iter (fun m -> send sid c Wire.Err (Wire.encode_err m)) msg;
          Hashtbl.remove conns sid;
          close_quiet c.fd;
          Atomic.decr c.sh.pins;
          if c.model <> None then begin
            Atomic.decr t.live;
            count t.obs sessions_closed
          end)
  (* No session: a failed write closed it earlier in this batch.  An
     arena the action carried is left to the GC. *)
  and with_conn sid f = Option.iter f (Hashtbl.find_opt conns sid)
  (* A write fails on a dead peer, or after [idle_timeout] on one that
     stopped reading; either way the session is over. *)
  and send sid c kind payload =
    match Wire.write_frame ?timeout c.fd kind payload with
    | Ok () -> count_frame t.obs frames_out frame_bytes_out payload
    | Error _ -> apply (Dispatch.hangup d sid)
  in
  let service sid c =
    let now = now () in
    let fs =
      match Wire.read_some c.reader with
      | Ok frames ->
        List.map (frame t c) frames
        @ Option.fold ~none:[] ~some:(wire_error t) (Wire.read_error c.reader)
      | Error e -> wire_error t e
      | exception Unix.Unix_error _ -> [ Dispatch.Bye ]
    in
    apply (Dispatch.frames d sid ~now fs);
    if c.streak >= streaming then c.rest <- now +. rest_s
  in
  (* Pin each connection to the least-loaded shard (ties to the lowest
     index); a session never migrates, so its completions fire in
     dispatch order on one merge loop. *)
  let adopt fd =
    let sh = t.shards.(Dispatch.least_loaded (sessions_per_shard t)) in
    Atomic.incr sh.pins;
    let sid = !next_sid in
    incr next_sid;
    Hashtbl.replace conns sid
      {
        fd;
        sh;
        reader = Wire.reader fd;
        model = None;
        prelude = [||];
        aggregate = Report.empty;
        streak = 0;
        rest = 0.;
      };
    apply (Dispatch.connect d sid ~now:(now ()))
  in
  let merge () =
    let now = now () in
    List.iter
      (fun (sid, r) ->
        with_conn sid (fun c -> c.aggregate <- Report.merge c.aggregate r);
        apply (Dispatch.completed d sid ~now))
      (List.rev (Atomic.exchange t.checked []))
  in
  let buf = Bytes.create 64 in
  let rec loop draining =
    merge ();
    let stopping = Atomic.get t.stopping in
    if stopping && not draining then apply (Dispatch.stop d);
    apply (Dispatch.tick d ~now:(now ()));
    if not (stopping && Dispatch.sessions d = 0) then begin
      (* Armed before the last look at [checked]: a completion pushed
         after that look counts down from here, and the last one needed
         wakes us. *)
      Atomic.set t.wanted (Dispatch.needed d);
      let now = now () in
      let reading, wake_at =
        Hashtbl.fold
          (fun sid c (l, w) ->
            if not (Dispatch.readable d sid) then (l, w)
            else if c.rest > now then (l, Float.min w c.rest)
            else ((c.fd, sid) :: l, w))
          conns
          ([], Option.value (Dispatch.next_deadline d) ~default:infinity)
      in
      let timeout =
        if Atomic.get t.checked <> [] then 0.
        else if wake_at = infinity then -1.
        else Float.max 0. (wake_at -. now)
      in
      let fds = t.wake_r :: List.map fst reading in
      let fds = if stopping then fds else t.listen :: fds in
      let ready =
        match Unix.select fds [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (EINTR, _, _) -> []
      in
      if List.mem t.wake_r ready then ignore (Unix.read t.wake_r buf 0 (Bytes.length buf));
      List.iter
        (fun fd -> Option.iter (fun sid -> with_conn sid (service sid)) (List.assoc_opt fd reading))
        ready;
      (* Accept last, so no fd closed while serving this batch is reused
         by a new connection before the batch is done. *)
      if List.mem t.listen ready then Option.iter adopt (Wire.accept t.listen);
      loop stopping
    end
  in
  loop false

let start ?(obs = Obs.disabled) cfg =
  (* Writing a report to a vanished client must be an EPIPE result, not
     a process kill. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* [Block] with a zero bound would deadlock the first section; [Shed]
     with zero is a legitimate drop-everything configuration (the
     deterministic shed test uses it). *)
  let floor = if cfg.policy = Wire.Block then 1 else 0 in
  let cfg = { cfg with shards = max 1 cfg.shards; max_inflight = max floor cfg.max_inflight } in
  let listen = Wire.listen cfg.socket in
  let mk_shard idx =
    let arena_pool = Packed.create_pool () in
    {
      idx;
      rt = Runtime.create ~workers:cfg.workers ~obs ~shard:idx ~arena_pool ();
      arena_pool;
      pins = Atomic.make 0;
    }
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_w;
  let t =
    {
      cfg;
      obs;
      listen;
      shards = Array.init cfg.shards mk_shard;
      domain = None;
      live = Atomic.make 0;
      stopping = Atomic.make false;
      checked = Atomic.make [];
      wanted = Atomic.make 0;
      wake_r;
      wake_w;
    }
  in
  t.domain <- Some (Domain.spawn (fun () -> run t));
  t

let config t = t.cfg

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    wake t;
    Option.iter Domain.join t.domain;
    (* Sections of sessions that hung up may still be checking, and their
       callbacks wake the loop: shut the runtimes down before the pipe. *)
    Array.iter (fun sh -> ignore (Runtime.shutdown sh.rt)) t.shards;
    List.iter close_quiet [ t.wake_r; t.wake_w; t.listen ];
    try Unix.unlink t.cfg.socket with Unix.Unix_error _ | Sys_error _ -> ()
  end
