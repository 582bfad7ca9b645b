module Model = Pmtest_model.Model
module Obs = Pmtest_obs.Obs
module Wire = Pmtest_wire.Wire
module Campaign = Pmtest_fuzz.Campaign
module Fuzz_repro = Pmtest_fuzz.Repro
module Crashfs = Pmtest_crashfs.Crashfs
module Litmus = Pmtest_litmus.Litmus
module Suite = Pmtest_litmus.Suite
module Files = Pmtest_util.Files

(* Seconds on the monotonic clock: heartbeat and steal deadlines must
   not fire because the wall clock stepped. *)
let now () = float_of_int (Obs.now_ns ()) /. 1e9

module Spec = Spec

(* --- Job execution ---------------------------------------------------------- *)

type unit_result = {
  digest : string;
  units : int;
  findings : (string * string) list;
}

let run_units ?(between = ignore) (spec : Spec.t) ~lo ~hi =
  if hi < lo then Error "inverted job range"
  else
    match spec.Spec.kind with
    | Spec.Fuzz ->
      let stats =
        Campaign.run_range (Spec.campaign_cfg spec) ~on_program:(fun _ -> between ()) ~lo ~hi
      in
      let finding f =
        let c = Fuzz_repro.of_finding f in
        (c.Fuzz_repro.name, Fuzz_repro.case_text c)
      in
      Ok
        {
          digest = Campaign.digest stats;
          units = hi - lo;
          findings = List.map finding stats.Campaign.findings;
        }
    | Spec.Crashfs _ -> (
      match Spec.crashfs_config spec with
      | Error e -> Error e
      | Ok config -> (
        match Crashfs.run_range config ~lo ~hi ~progress:(fun _ -> between ()) () with
        | exception Invalid_argument e -> Error e
        | c ->
          let finding f =
            let case = Crashfs.Repro.of_finding config f in
            (case.Crashfs.Repro.name, Crashfs.Repro.to_text case)
          in
          Ok
            {
              digest = Crashfs.campaign_digest c;
              units = hi - lo;
              findings = List.map finding c.Crashfs.findings;
            }))
    | Spec.Litmus ->
      let n = List.length Suite.all in
      if lo < 0 || hi > n then
        Error (Printf.sprintf "litmus job [%d, %d) outside the %d-test suite" lo hi n)
      else
        let outcomes = List.map (fun t -> between (); Litmus.run_test t) (Suite.slice ~lo ~hi) in
        let findings =
          List.filter_map
            (fun (o : Litmus.outcome) ->
              if Litmus.passed o then None
              else
                let name = o.Litmus.test.Litmus.name in
                let header =
                  { Files.banner = Some "pmfarm-litmus-failure v1"; fields = [ ("test", name) ] }
                in
                let failure (f : Litmus.failure) = f.Litmus.leg ^ ": " ^ f.Litmus.message in
                Some (name, Files.render header (Seq.map failure (List.to_seq o.Litmus.failures))))
            outcomes
        in
        Ok { digest = Litmus.outcomes_digest outcomes; units = hi - lo; findings }


module Checkpoint = Checkpoint

(* --- Coordinator ------------------------------------------------------------ *)

module Coordinator = struct
  type cfg = {
    socket : string;
    spec : Spec.t;
    triage_dir : string;
    checkpoint : string;
    resume : bool;
    heartbeat_timeout : float;
    steal_after : float;
    stop_after_results : int option;
    obs : Obs.t;
  }

  let default_cfg ~spec ~socket ~dir =
    {
      socket;
      spec;
      triage_dir = Filename.concat dir "triage";
      checkpoint = Filename.concat dir "checkpoint";
      resume = false;
      heartbeat_timeout = 5.0;
      steal_after = 2.0;
      stop_after_results = None;
      obs = Obs.disabled;
    }

  type summary = Sched.summary = {
    jobs : int;
    jobs_done : int;
    digests : (int * string) list;
    findings : (string * string) list;
    nondet : int list;
    reassigned : int;
    steals : int;
    workers_seen : int;
  }

  (* One accepted connection; [wid] is [None] until its [Worker_hello]. *)
  type conn = {
    fd : Unix.file_descr;
    reader : Wire.reader;
    opened : float;
    mutable wid : int option;
    mutable closed : bool;
  }

  (* The campaign itself: one thread, one [select] over the listening
     fd and every connection.  Reads take what one read(2) delivered;
     each frame written must go out whole within [heartbeat_timeout],
     so a peer that drains a few bytes at a time cannot hold the loop;
     the timeout is the scheduler's next heartbeat expiry or steal
     time, or the oldest handshake's deadline. *)
  let serve cfg sched listen_fd =
    let spec_s = Spec.to_string cfg.spec in
    let conns = Hashtbl.create 16 (* fd -> conn *) in
    let links = Hashtbl.create 16 (* wid -> conn, once it said hello *) in
    let close c =
      if not c.closed then begin
        c.closed <- true;
        Hashtbl.remove conns c.fd;
        Option.iter (Hashtbl.remove links) c.wid;
        try Unix.close c.fd with Unix.Unix_error _ -> ()
      end
    in
    let write c kind payload = Wire.write_frame ~timeout:cfg.heartbeat_timeout c.fd kind payload in
    let rec apply acts = List.iter act acts
    and act = function
      | Sched.Offer { wid; job; attempt; lo; hi } -> (
        match Hashtbl.find_opt links wid with
        | None -> ()  (* its link failed earlier in this batch *)
        | Some c ->
          send c Wire.Job_offer (Wire.encode_job_offer ~job ~attempt ~lo ~hi ~spec:spec_s))
      | Sched.Drop wid -> Option.iter close (Hashtbl.find_opt links wid)
      | Sched.Store { name; text } ->
        Checkpoint.write_atomic (Filename.concat cfg.triage_dir (name ^ ".pmt")) text
      | Sched.Save -> Checkpoint.save ~path:cfg.checkpoint (Sched.checkpoint_of sched)
    (* The link failed under us: the scheduler requeues what it held. *)
    and drop c =
      close c;
      Option.iter (fun wid -> apply (Sched.lost sched wid ~now:(now ()))) c.wid
    (* A frame that did not go out whole leaves the stream unusable. *)
    and send c kind payload = match write c kind payload with Ok () -> () | Error _ -> drop c in
    let send_err c msg = send c Wire.Err (Wire.encode_err msg) in
    let hello c payload =
      match Wire.decode_worker_hello payload with
      | Error e ->
        send_err c (Wire.error_to_string e);
        close c
      | Ok _name ->
        let wid, acts = Sched.join sched ~now:(now ()) in
        c.wid <- Some wid;
        Hashtbl.replace links wid c;
        (* The ack goes out before any offer: an offer arriving first
           fails the worker's handshake. *)
        let ack = Wire.encode_worker_hello ~name:(Printf.sprintf "w%d" wid) in
        send c Wire.Worker_hello ack;
        apply acts
    in
    let frame c (kind, payload) =
      match (c.wid, kind) with
      | None, Wire.Worker_hello -> hello c payload
      | None, kind ->
        send_err c (Printf.sprintf "expected worker-hello, got %s" (Wire.kind_name kind));
        close c
      | Some wid, kind -> (
        let now = now () in
        Sched.seen sched wid ~now ~heartbeat:(kind = Wire.Checkpoint);
        let known job = job >= 0 && job < Sched.jobs sched in
        match kind with
        (* Echo an idle worker's heartbeat as proof of life; a worker
           mid-job reads nothing until its job ends. *)
        | Wire.Checkpoint when Result.map fst (Wire.decode_checkpoint payload) = Ok None ->
          send c Wire.Checkpoint payload
        (* Informational: liveness is already stamped, and job failures
           come as [Job_refused]. *)
        | Wire.Job_claim | Wire.Checkpoint | Wire.Err -> ()
        | Wire.Job_result -> (
          match Wire.decode_job_result payload with
          | Ok (job, attempt, digest, units, _elapsed_ms, findings) when known job ->
            apply (Sched.result sched wid ~now ~job ~attempt ~digest ~units ~findings)
          | Ok (job, _, _, _, _, _) -> send_err c (Printf.sprintf "unknown job %d" job)
          | Error e -> send_err c ("bad job result: " ^ Wire.error_to_string e))
        | Wire.Job_refused -> (
          match Wire.decode_job_refused payload with
          | Ok (job, _attempt, reason) when known job ->
            apply (Sched.refusal sched wid ~now ~job ~reason)
          | Ok (job, _, _) -> send_err c (Printf.sprintf "unknown job %d" job)
          | Error e -> send_err c ("bad job refusal: " ^ Wire.error_to_string e))
        | Wire.Bye -> drop c
        | kind -> send_err c (Printf.sprintf "unexpected %s frame" (Wire.kind_name kind)))
    in
    let service c =
      match Wire.read_some c.reader with
      | Error Wire.Timeout -> ()
      | Error _ -> drop c
      | Ok frames ->
        List.iter (fun f -> if not (c.closed || Sched.over sched) then frame c f) frames
    in
    let adopt fd =
      Hashtbl.replace conns fd
        { fd; reader = Wire.reader fd; opened = now (); wid = None; closed = false }
    in
    let handshake_expiry c = c.opened +. cfg.heartbeat_timeout in
    let rec loop () =
      if not (Sched.over sched) then begin
        let deadline =
          Hashtbl.fold
            (fun _ c d -> if c.wid = None then Float.min d (handshake_expiry c) else d)
            conns
            (Option.value (Sched.next_deadline sched) ~default:infinity)
        in
        let timeout = if deadline = infinity then -1.0 else Float.max 0. (deadline -. now ()) in
        let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [ listen_fd ] in
        let ready =
          match Unix.select fds [] [] timeout with
          | r, _, _ -> r
          | exception Unix.Unix_error (EINTR, _, _) -> []
        in
        (* Accept last, so no fd closed while serving this batch is
           reused by a new connection before the batch is done. *)
        List.iter (fun fd -> Option.iter service (Hashtbl.find_opt conns fd)) ready;
        if List.mem listen_fd ready then Option.iter adopt (Wire.accept listen_fd);
        let now = now () in
        Hashtbl.fold
          (fun _ c acc -> if c.wid = None && now > handshake_expiry c then c :: acc else acc)
          conns []
        |> List.iter close;
        apply (Sched.tick sched ~now);
        loop ()
      end
    in
    Fun.protect
      ~finally:(fun () ->
        (* A simulated crash ([stop_after_results]) says no goodbye:
           workers must survive it through their reconnect loop. *)
        let bye = not (Sched.crashed sched) in
        Hashtbl.iter
          (fun _ c ->
            if bye && c.wid <> None then ignore (write c Wire.Bye "");
            try Unix.close c.fd with Unix.Unix_error _ -> ())
          conns)
      (fun () ->
        apply (Sched.start sched);
        loop ())

  let load_resume cfg =
    if cfg.resume && Sys.file_exists cfg.checkpoint then
      match Checkpoint.load cfg.checkpoint with
      | Ok ck when Spec.to_string ck.Checkpoint.spec <> Spec.to_string cfg.spec ->
        Error
          (Printf.sprintf "checkpoint is for another campaign (%s)"
             (Spec.to_string ck.Checkpoint.spec))
      | Ok ck -> Ok (Some ck)
      | Error e -> Error e
    else Ok None

  let run ?(ready = fun () -> ()) cfg =
    let ( let* ) = Result.bind in
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let* () = Result.map_error (( ^ ) "invalid campaign spec: ") (Spec.validate cfg.spec) in
    let* resume = load_resume cfg in
    let sched =
      Sched.create ?stop_after_results:cfg.stop_after_results
        ~heartbeat_timeout:cfg.heartbeat_timeout ~steal_after:cfg.steal_after ~obs:cfg.obs
        cfg.spec resume
    in
    Pmtest_util.Files.mkdir_p cfg.triage_dir;
    match Wire.listen cfg.socket with
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "cannot listen on %s: %s" cfg.socket (Unix.error_message e))
    | listen_fd ->
      ready ();
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          try Unix.unlink cfg.socket with Unix.Unix_error _ -> ())
        (fun () -> serve cfg sched listen_fd);
      Option.fold ~none:(Ok (Sched.summary sched)) ~some:Result.error (Sched.failed sched)
end

(* --- Workers ---------------------------------------------------------------- *)

module Worker = struct
  type cfg = {
    socket : string;
    name : string;
    attempts : int;
    base_delay : float;
    max_delay : float;
    hb_interval : float;
    log : string -> unit;
  }

  let default_cfg ~socket ~name =
    {
      socket;
      name;
      attempts = 8;
      base_delay = 0.05;
      max_delay = 2.0;
      hb_interval = 1.0;
      log = ignore;
    }

  (* Idle heartbeats in a row left unanswered before the link counts as
     lost (the coordinator echoes each at once).  Times the default 1 s
     interval, it outlasts the default 5 s [heartbeat_timeout]. *)
  let max_unanswered = 6

  (* One connection's lifetime, on one thread: a job runs in line and
     heartbeats between its units, all short (EXPERIMENTS.md).  Returns
     [`Bye] on an orderly campaign end, [`Lost] when a reconnect should
     be tried. *)
  let session cfg fd reader ~jobs_done =
    let deadline = float_of_int max_unanswered *. cfg.hb_interval in
    let last_sent = ref (now ()) and broken = ref false in
    (* A frame that did not go out whole within [deadline] leaves the
       stream unusable: nothing more is sent, and the session ends lost
       once the job at hand is done. *)
    let send kind payload =
      if not !broken then begin
        last_sent := now ();
        match Wire.write_frame ~timeout:deadline fd kind payload with
        | Ok () -> ()
        | Error _ -> broken := true
      end
    in
    let heartbeat running =
      send Wire.Checkpoint (Wire.encode_checkpoint ~running ~jobs_done:!jobs_done)
    in
    let run_job ~job ~attempt ~lo ~hi spec_s =
      let t0 = now () in
      let result =
        match Spec.of_string spec_s with
        | Error e -> Error ("bad campaign spec: " ^ e)
        | Ok spec ->
          send Wire.Job_claim (Wire.encode_job_claim ~job ~attempt);
          let between () = if now () -. !last_sent >= cfg.hb_interval then heartbeat (Some job) in
          run_units ~between spec ~lo ~hi
      in
      let elapsed_ms = max 0 (int_of_float ((now () -. t0) *. 1000.)) in
      match result with
      | Error reason ->
        (* The refusal names the job, so the coordinator can unassign
           it: a bare [Err] would leave this worker holding it forever. *)
        cfg.log (Printf.sprintf "job %d attempt %d refused: %s" job attempt reason);
        send Wire.Job_refused (Wire.encode_job_refused ~job ~attempt ~reason)
      | Ok r ->
        incr jobs_done;
        cfg.log
          (Printf.sprintf "job %d attempt %d [%d, %d): %d finding(s), %d ms" job attempt lo hi
             (List.length r.findings) elapsed_ms);
        send Wire.Job_result
          (Wire.encode_job_result ~job ~attempt ~digest:r.digest ~units:r.units ~elapsed_ms
             ~findings:r.findings)
    in
    let frame = function
      | Wire.Bye, _ -> `Bye
      | Wire.Checkpoint, _ -> `Continue  (* the echo of an idle heartbeat *)
      | Wire.Err, payload ->
        let m = match Wire.decode_err payload with Ok m -> m | Error e -> Wire.error_to_string e in
        cfg.log ("coordinator error: " ^ m);
        `Continue
      | Wire.Job_offer, payload ->
        (match Wire.decode_job_offer payload with
        | Ok (job, attempt, lo, hi, spec_s) -> run_job ~job ~attempt ~lo ~hi spec_s
        (* Corrupt payload under a valid CRC: answer the one offer and
           keep the link — this must not kill the worker. *)
        | Error e ->
          send Wire.Err (Wire.encode_err ("bad job offer: " ^ Wire.error_to_string e)));
        `Continue
      | kind, _ ->
        send Wire.Err (Wire.encode_err (Printf.sprintf "unexpected %s frame" (Wire.kind_name kind)));
        `Continue
    in
    (* Idle: a heartbeat every [hb_interval] since the last frame sent,
       and between them a read that waits only until the next is due
       ([read_some] first hands over frames the dial left buffered).
       Only a complete frame counts as an answer, so a coordinator that
       trickles bytes is lost like a silent one. *)
    let rec idle unanswered =
      let due = !last_sent +. cfg.hb_interval in
      if !broken then `Lost
      else if now () >= due then
        if unanswered >= max_unanswered then `Lost
        else (heartbeat None; idle (unanswered + 1))
      else
        match Wire.read_some ~deadline:(int_of_float (due *. 1e9)) reader with
        | Error Wire.Timeout | Ok [] -> idle unanswered
        | Error _ -> `Lost
        | Ok fs -> batch fs
    (* The frames of one read, in order.  Once a send has failed the
       coordinator has dropped this link and requeued what it offered,
       so the rest of the batch is not run here. *)
    and batch = function
      | _ when !broken -> `Lost
      | [] -> idle 0
      | f :: fs -> if frame f = `Bye then `Bye else batch fs
    in
    let outcome = idle 0 in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    outcome

  let run cfg =
    if cfg.attempts < 1 then Error "Worker.run: attempts < 1"
    else begin
      let jobs_done = ref 0 in
      let on_retry ~attempt:_ ~delay e =
        cfg.log (Printf.sprintf "%s; retrying in %.0f ms" e (delay *. 1000.))
      in
      let dial () =
        Wire.dial ~socket:cfg.socket
          ~hello:(Wire.Worker_hello, Wire.encode_worker_hello ~name:cfg.name)
          ~reply:(Wire.Worker_hello, Wire.decode_worker_hello)
          ~refused:"coordinator refused"
      in
      let rec connect_loop () =
        match
          Wire.retry ~attempts:cfg.attempts ~base_delay:cfg.base_delay ~max_delay:cfg.max_delay
            ~on_retry dial
        with
        | Error e -> Error e
        | Ok (fd, reader, assigned) -> (
          cfg.log (Printf.sprintf "connected as %s" assigned);
          match session cfg fd reader ~jobs_done with
          | `Bye -> Ok !jobs_done
          | `Lost ->
            cfg.log "link lost; reconnecting";
            connect_loop ())
      in
      connect_loop ()
    end
end
