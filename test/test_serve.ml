(* pmtestd end to end: serve-vs-in-process report identity over the bug
   catalog, robustness against clients dying mid-frame and garbage
   sections, admission control, the shed backpressure policy, idle
   timeouts, and SIGTERM drain of the real CLI daemon. *)

open Pmtest_model
open Pmtest_trace
module Report = Pmtest_core.Report
module Pmtest = Pmtest_core.Pmtest
module Obs = Pmtest_obs.Obs
module Wire = Pmtest_wire.Wire
module Server = Pmtest_server.Server
module Client = Pmtest_client.Client
module Case = Pmtest_bugdb.Case
module Catalog = Pmtest_bugdb.Catalog

let next_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmtest-serve-test-%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?obs ?(cfg = Server.default_config) f =
  let socket = next_socket () in
  let t = Server.start ?obs { cfg with Server.socket } in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f socket t)

let render r = Format.asprintf "%a" Report.pp r

(* Drive one event stream through a session with fixed chunking, so the
   remote and the in-process side see identical section streams.
   [before i] runs ahead of entry [i]. *)
let drive ?(every = 32) ?(before = ignore) s entries =
  Array.iteri
    (fun i (e : Event.t) ->
      before i;
      Pmtest.emit ~thread:e.Event.thread ~loc:e.Event.loc s e.Event.kind;
      if (i + 1) mod every = 0 then Pmtest.send_trace ~thread:e.Event.thread s)
    entries

let local_report ?(packed = true) ~model entries =
  let t = Pmtest.init ~model ~workers:0 ~packed () in
  drive t entries;
  Pmtest.finish t

(* Run [f] on a session attached to the daemon; returns its report. *)
let remote ~socket ~model f =
  match Client.connect ~model ~socket () with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok conn ->
    let s = Client.Session.make conn in
    f s;
    let r = Client.Session.finish s in
    Client.close conn;
    (match r with Ok r -> r | Error m -> Alcotest.failf "finish: %s" m)

let remote_report ~socket ~model entries = remote ~socket ~model (fun s -> drive s entries)

let test_serve_equals_in_process_bugdb () =
  with_server (fun socket _t ->
      List.iter
        (fun (case : Case.t) ->
          List.iter
            (fun (name, entries) ->
              let remote = render (remote_report ~socket ~model:Model.X86 entries) in
              List.iter
                (fun packed ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s (%s, %s) identical over the wire" case.Case.id name
                       (if packed then "packed" else "boxed"))
                    (render (local_report ~packed ~model:Model.X86 entries))
                    remote)
                [ true; false ])
            [ ("buggy", Case.trace case); ("clean", Case.trace_clean case) ])
        Catalog.all)

(* Tracking toggled mid-stream, an exclusion scope spanning sections,
   and an [on_section] observer: an attached session is a [Pmtest]
   session, so it must report and observe exactly what an in-process
   one fed identically does. *)
let test_attached_scope_and_observers () =
  let observe seen entries s =
    Pmtest.on_section s (fun section ->
        seen := String.concat "\n" (Array.to_list (Array.map Serial.entry_to_line section)) :: !seen);
    let n = Array.length entries in
    drive ~every:8
      ~before:(fun i ->
        if i = n / 3 then Pmtest.stop s;
        if i = n / 2 then Pmtest.start s)
      s entries
  in
  (* Exclude the first checked range from the start and include it again
     two thirds of the way in, so the preamble crosses section
     boundaries and can change the verdict. *)
  let scoped entries =
    let addr, size =
      Array.fold_left
        (fun acc (e : Event.t) ->
          match (acc, e.Event.kind) with
          | None, Event.Checker (Event.Is_persist { addr; size }) -> Some (addr, size)
          | _ -> acc)
        None entries
      |> Option.value ~default:(0, 64)
    in
    let ctl c = [| Event.make (Event.Control c) |] in
    let cut = 2 * Array.length entries / 3 in
    Array.concat
      [
        ctl (Event.Exclude { addr; size });
        Array.sub entries 0 cut;
        ctl (Event.Include { addr; size });
        Array.sub entries cut (Array.length entries - cut);
      ]
  in
  with_server (fun socket _t ->
      List.iter
        (fun (case : Case.t) ->
          let entries = scoped (Case.trace case) in
          let local_seen = ref [] and remote_seen = ref [] in
          let local = Pmtest.init ~model:Model.X86 ~workers:0 ~packed:true () in
          observe local_seen entries local;
          Alcotest.(check string)
            (case.Case.id ^ " report")
            (render (Pmtest.finish local))
            (render (remote ~socket ~model:Model.X86 (observe remote_seen entries)));
          Alcotest.(check (list string))
            (case.Case.id ^ " observed sections") !local_seen !remote_seen)
        Catalog.all)

let test_concurrent_sessions_isolated () =
  (* Several sessions on one daemon, interleaved: each aggregate must be
     exactly what a dedicated run over that session's trace yields. *)
  with_server (fun socket _t ->
      let cases =
        match Catalog.all with a :: b :: c :: _ -> [ a; b; c ] | _ -> Alcotest.fail "catalog"
      in
      let results = Array.make (List.length cases) (Ok Report.empty) in
      let threads =
        List.mapi
          (fun i (case : Case.t) ->
            Thread.create
              (fun () ->
                try results.(i) <- Ok (remote_report ~socket ~model:Model.X86 (Case.trace case))
                with e -> results.(i) <- Error (Printexc.to_string e))
              ())
          cases
      in
      List.iter Thread.join threads;
      List.iteri
        (fun i (case : Case.t) ->
          match results.(i) with
          | Error m -> Alcotest.failf "%s: %s" case.Case.id m
          | Ok r ->
            Alcotest.(check string)
              (case.Case.id ^ " unaffected by concurrent sessions")
              (render (local_report ~model:Model.X86 (Case.trace case)))
              (render r))
        cases)

(* --- Robustness -------------------------------------------------------------- *)

let connect_raw socket =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX socket);
  (* A daemon that never answers fails the test instead of hanging it. *)
  Unix.setsockopt_float fd SO_RCVTIMEO 10.0;
  (match Wire.write_frame fd Wire.Hello (Wire.encode_hello ~model:Model.X86) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Wire.error_to_string e));
  let r = Wire.reader fd in
  (match Wire.read_one r with
  | Ok (Wire.Hello_ack, _) -> ()
  | Ok (k, _) -> Alcotest.failf "expected hello_ack, got %s" (Wire.kind_name k)
  | Error e -> Alcotest.fail (Wire.error_to_string e));
  (fd, r)

let wait_for cond =
  let rec go n =
    if cond () then ()
    else if n = 0 then Alcotest.fail "condition not reached within 5s"
    else begin
      Thread.delay 0.05;
      go (n - 1)
    end
  in
  go 100

let test_client_killed_mid_frame () =
  let obs = Obs.create () in
  with_server ~obs (fun socket t ->
      let fd, _ = connect_raw socket in
      (* A frame header promising 4096 payload bytes, then silence: the
         client "crashes" mid-frame. *)
      let header = Bytes.make Wire.header_len '\x00' in
      Bytes.set header 0 (Char.chr Wire.version);
      Bytes.set header 1 (Char.chr (Wire.kind_code Wire.Section));
      Bytes.set header 4 '\x10' (* len = 4096, big-endian at offset 2 *);
      ignore (Unix.write fd header 0 Wire.header_len);
      ignore (Unix.write_substring fd "only part of it" 0 15);
      Unix.close fd;
      (* The daemon must shrug the session off... *)
      wait_for (fun () -> Server.active_sessions t = 0);
      (* ... and keep serving: a fresh session still round-trips. *)
      let case = List.hd Catalog.all in
      Alcotest.(check string) "daemon survives a mid-frame crash"
        (render (local_report ~model:Model.X86 (Case.trace case)))
        (render (remote_report ~socket ~model:Model.X86 (Case.trace case)));
      let snap = Obs.snapshot obs in
      Alcotest.(check bool) "torn frame counted" true
        (Obs.find snap "serve_frames_corrupt" >= Some 1))

let test_garbage_section_rejected () =
  with_server
    ~cfg:{ Server.default_config with Server.workers = 1 }
    (fun socket t ->
      (* Valid CRC, hostile payload: must come back as Err, not take a
         checking worker down.  The second is a well-formed arena holding
         a zero-size write, which no checker can give a meaning to.  One
         worker, so a worker killed here would leave none to check the
         session that follows. *)
      List.iter
        (fun payload ->
          let fd, r = connect_raw socket in
          (match Wire.write_frame fd Wire.Section payload with
          | Ok () -> ()
          | Error e -> Alcotest.fail (Wire.error_to_string e));
          (match Wire.read_one r with
          | Ok (Wire.Err, _) -> ()
          | Ok (k, _) -> Alcotest.failf "expected err, got %s" (Wire.kind_name k)
          | Error e -> Alcotest.failf "expected err frame, got %s" (Wire.error_to_string e));
          Unix.close fd;
          wait_for (fun () -> Server.active_sessions t = 0))
        [
          "\xff\xff\xff\xff";
          Packed.encode_wire
            (Packed.of_events [| Event.make (Event.Op (Model.Write { addr = 0x100; size = 0 })) |]);
        ];
      (* The worker survived: a fresh session still gets its report. *)
      let case = List.hd Catalog.all in
      Alcotest.(check string) "daemon still checks after garbage"
        (render (local_report ~model:Model.X86 (Case.trace case)))
        (render (remote_report ~socket ~model:Model.X86 (Case.trace case))))

let test_max_sessions_rejected () =
  with_server
    ~cfg:{ Server.default_config with Server.max_sessions = 1 }
    (fun socket _t ->
      match Client.connect ~socket () with
      | Error m -> Alcotest.failf "first connect: %s" m
      | Ok c1 ->
        (match Client.connect ~socket () with
        | Ok _ -> Alcotest.fail "second session admitted past max-sessions=1"
        | Error m ->
          Alcotest.(check bool)
            ("rejection names the limit: " ^ m)
            true
            (String.length m > 0));
        Client.close c1)

let buggy_section =
  [|
    Event.make (Event.Op (Model.Write { addr = 0x100; size = 8 }));
    Event.make (Event.Checker (Event.Is_persist { addr = 0x100; size = 8 }));
  |]

let test_shed_policy_drops () =
  let obs = Obs.create () in
  with_server ~obs
    ~cfg:{ Server.default_config with Server.policy = Wire.Shed; max_inflight = 0 }
    (fun socket _t ->
      (* max_inflight=0 + Shed sheds deterministically: every section is
         dropped, so the aggregate stays empty — but the session itself
         stays healthy. *)
      match Client.connect ~socket () with
      | Error m -> Alcotest.failf "connect: %s" m
      | Ok c ->
        (match Client.policy c with
        | Wire.Shed -> ()
        | Wire.Block -> Alcotest.fail "server did not announce shed policy");
        for _ = 1 to 5 do
          match Client.send_events c buggy_section with
          | Ok () -> ()
          | Error m -> Alcotest.failf "send: %s" m
        done;
        (match Client.get_result c with
        | Error m -> Alcotest.failf "get_result: %s" m
        | Ok r -> Alcotest.(check int) "everything shed, nothing checked" 0 r.Report.entries);
        Client.close c;
        let snap = Obs.snapshot obs in
        Alcotest.(check (option int)) "five sections shed" (Some 5)
          (Obs.find snap "serve_sections_shed"))

let test_idle_timeout_disconnects () =
  with_server
    ~cfg:{ Server.default_config with Server.idle_timeout = 0.3 }
    (fun socket t ->
      match Client.connect ~socket () with
      | Error m -> Alcotest.failf "connect: %s" m
      | Ok c ->
        Thread.delay 0.8;
        (match Client.get_result c with
        | Ok _ -> Alcotest.fail "session survived past the idle timeout"
        | Error _ -> ());
        Client.close c;
        wait_for (fun () -> Server.active_sessions t = 0))

(* --- Shards ------------------------------------------------------------------- *)

let test_session_churn_across_shards () =
  (* 32 sessions against a 4-shard daemon, half of which die mid-stream:
     admission must spread sessions over every shard, the casualties must
     not wedge their shard, and every surviving session's aggregate must
     stay byte-identical to a dedicated in-process run. *)
  let obs = Obs.create () in
  with_server ~obs
    ~cfg:{ Server.default_config with Server.shards = 4; workers = 1; max_sessions = 64 }
    (fun socket t ->
      Alcotest.(check int) "shard count" 4 (Server.shard_count t);
      let cases = Array.of_list Catalog.all in
      let survivors = 16 and churners = 16 in
      let results = Array.make survivors (Ok Report.empty) in
      let survivor_threads =
        List.init survivors (fun i ->
            let case = cases.(i mod Array.length cases) in
            Thread.create
              (fun () ->
                try results.(i) <- Ok (remote_report ~socket ~model:Model.X86 (Case.trace case))
                with e -> results.(i) <- Error (Printexc.to_string e))
              ())
      in
      let churn_threads =
        List.init churners (fun _ ->
            Thread.create
              (fun () ->
                (* Handshake, start a section frame, die mid-payload. *)
                let fd, _ = connect_raw socket in
                let header = Bytes.make Wire.header_len '\x00' in
                Bytes.set header 0 (Char.chr Wire.version);
                Bytes.set header 1 (Char.chr (Wire.kind_code Wire.Section));
                Bytes.set header 4 '\x10';
                ignore (Unix.write fd header 0 Wire.header_len);
                Unix.close fd)
              ())
      in
      List.iter Thread.join survivor_threads;
      List.iter Thread.join churn_threads;
      List.iteri
        (fun i r ->
          let case = cases.(i mod Array.length cases) in
          match r with
          | Error m -> Alcotest.failf "survivor %d (%s): %s" i case.Case.id m
          | Ok r ->
            Alcotest.(check string)
              (Printf.sprintf "survivor %d (%s) byte-identical" i case.Case.id)
              (render (local_report ~model:Model.X86 (Case.trace case)))
              (render r))
        (Array.to_list results);
      wait_for (fun () -> Server.active_sessions t = 0);
      wait_for (fun () -> Array.for_all (fun n -> n = 0) (Server.sessions_per_shard t));
      let snap = Obs.snapshot obs in
      Alcotest.(check int) "per-shard admissions cover all four shards" 4
        (List.length snap.Obs.shards);
      Alcotest.(check int) "every session was pinned somewhere"
        (survivors + churners)
        (List.fold_left (fun n (sh : Obs.shard_stat) -> n + sh.Obs.shard_sessions) 0
           snap.Obs.shards);
      List.iter
        (fun (sh : Obs.shard_stat) ->
          Alcotest.(check bool)
            (Printf.sprintf "shard %d admitted sessions" sh.Obs.shard)
            true (sh.Obs.shard_sessions > 0))
        snap.Obs.shards)

let test_mid_frame_kill_on_nonzero_shard () =
  (* Pin one healthy session to shard 0, then kill a second session —
     least-loaded admission puts it on shard 1 — mid-frame.  The crash
     must stay contained in shard 1: the daemon keeps serving and the
     shard-0 session still produces the exact in-process report. *)
  with_server
    ~cfg:{ Server.default_config with Server.shards = 2; workers = 1 }
    (fun socket t ->
      let case = List.hd Catalog.all in
      match Client.connect ~model:Model.X86 ~socket () with
      | Error m -> Alcotest.failf "connect: %s" m
      | Ok conn ->
        Alcotest.(check (array int))
          "healthy session pinned to shard 0" [| 1; 0 |]
          (Server.sessions_per_shard t);
        let fd, _ = connect_raw socket in
        Alcotest.(check (array int))
          "second connection pinned to shard 1" [| 1; 1 |]
          (Server.sessions_per_shard t);
        (* Mid-frame death on shard 1. *)
        let header = Bytes.make Wire.header_len '\x00' in
        Bytes.set header 0 (Char.chr Wire.version);
        Bytes.set header 1 (Char.chr (Wire.kind_code Wire.Section));
        Bytes.set header 4 '\x10';
        ignore (Unix.write fd header 0 Wire.header_len);
        ignore (Unix.write_substring fd "partial" 0 7);
        Unix.close fd;
        wait_for (fun () -> (Server.sessions_per_shard t).(1) = 0);
        (* Shard 0's session is unharmed and still deterministic. *)
        let s = Client.Session.make conn in
        drive s (Case.trace case);
        (match Client.Session.finish s with
        | Error m -> Alcotest.failf "finish: %s" m
        | Ok r ->
          Alcotest.(check string) "shard-0 report unharmed"
            (render (local_report ~model:Model.X86 (Case.trace case)))
            (render r));
        Client.close conn;
        (* And shard 1 still admits fresh sessions after the crash. *)
        Alcotest.(check string) "shard 1 keeps serving"
          (render (local_report ~model:Model.X86 (Case.trace case)))
          (render (remote_report ~socket ~model:Model.X86 (Case.trace case))))

(* --- SIGTERM drain of the real daemon ----------------------------------------- *)

let cli_exe = "../bin/pmtest_cli.exe"

let test_sigterm_drains_cli_daemon () =
  let socket = next_socket () in
  let out = Filename.temp_file "pmtest-serve-drain" ".log" in
  let fd = Unix.openfile out [ O_WRONLY; O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process cli_exe
      [| cli_exe; "serve"; "--socket"; socket; "--workers"; "1" |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      (try Sys.remove out with Sys_error _ -> ());
      try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
      wait_for (fun () -> Sys.file_exists socket);
      (* A full session against the spawned daemon... *)
      let case = List.hd Catalog.all in
      Alcotest.(check string) "report over the spawned daemon"
        (render (local_report ~model:Model.X86 (Case.trace case)))
        (render (remote_report ~socket ~model:Model.X86 (Case.trace case)));
      (* ... then SIGTERM must drain and exit 0, removing the socket. *)
      Unix.kill pid Sys.sigterm;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED n -> Alcotest.failf "daemon exited %d" n
      | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Alcotest.failf "daemon killed by signal %d" s);
      Alcotest.(check bool) "socket unlinked on drain" false (Sys.file_exists socket))

(* --- Reconnect backoff ------------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_connect_retry_gives_up () =
  (* No daemon, ever: every attempt fails, on_retry fires before each
     backoff sleep (attempts - 1 times), and the final error names the
     attempt budget.  Jitter keeps each delay within 0.5x..1.5x of the
     nominal doubling schedule. *)
  let socket = next_socket () in
  let retries = ref 0 in
  let delays = ref [] in
  match
    Client.connect_retry ~attempts:3 ~base_delay:0.01 ~max_delay:0.02
      ~on_retry:(fun ~attempt:_ ~delay _err ->
        incr retries;
        delays := delay :: !delays)
      ~socket ()
  with
  | Ok conn ->
    Client.close conn;
    Alcotest.fail "connected to a daemon that does not exist"
  | Error m ->
    Alcotest.(check int) "one retry per failed attempt but the last" 2 !retries;
    Alcotest.(check bool) "error names the attempt budget" true
      (contains m "after 3 attempt(s)");
    List.iter
      (fun d ->
        Alcotest.(check bool) "jittered delay within 0.5x..1.5x nominal" true
          (d >= 0.004 && d <= 0.032))
      !delays

let test_connect_retry_waits_for_daemon () =
  (* The daemon comes up while the client is backing off: the retry
     loop must land the connection instead of failing fast. *)
  let socket = next_socket () in
  let srv = ref None in
  let th =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        srv := Some (Server.start { Server.default_config with Server.socket }))
      ()
  in
  let r = Client.connect_retry ~model:Model.X86 ~attempts:10 ~base_delay:0.02 ~socket () in
  Thread.join th;
  Fun.protect
    ~finally:(fun () -> match !srv with Some s -> Server.stop s | None -> ())
    (fun () ->
      match r with
      | Ok conn -> Client.close conn
      | Error m -> Alcotest.failf "never connected: %s" m)

let () =
  Alcotest.run "serve"
    [
      ( "identity",
        [
          Alcotest.test_case "bugdb reports identical over the wire" `Quick
            test_serve_equals_in_process_bugdb;
          Alcotest.test_case "concurrent sessions are isolated" `Quick
            test_concurrent_sessions_isolated;
          Alcotest.test_case "attached tracking scope and observers" `Quick
            test_attached_scope_and_observers;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "client killed mid-frame" `Quick test_client_killed_mid_frame;
          Alcotest.test_case "garbage section rejected" `Quick test_garbage_section_rejected;
          Alcotest.test_case "max-sessions admission control" `Quick test_max_sessions_rejected;
          Alcotest.test_case "shed policy drops deterministically" `Quick test_shed_policy_drops;
          Alcotest.test_case "idle timeout disconnects" `Quick test_idle_timeout_disconnects;
        ] );
      ( "shards",
        [
          Alcotest.test_case "32-session churn across 4 shards" `Quick
            test_session_churn_across_shards;
          Alcotest.test_case "mid-frame kill on a non-zero shard" `Quick
            test_mid_frame_kill_on_nonzero_shard;
        ] );
      ( "reconnect",
        [
          Alcotest.test_case "backoff gives up after its attempt budget" `Quick
            test_connect_retry_gives_up;
          Alcotest.test_case "backoff survives a late daemon" `Quick
            test_connect_retry_waits_for_daemon;
        ] );
      ( "drain",
        [
          Alcotest.test_case "SIGTERM drains the CLI daemon" `Quick
            test_sigterm_drains_cli_daemon;
        ] );
    ]
