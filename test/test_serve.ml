(* pmtestd end to end: serve-vs-in-process report identity over the bug
   catalog, robustness against clients dying mid-frame and garbage
   sections, admission control, both backpressure policies, idle
   timeouts, a drain no client can hold up, SIGTERM drain of the real CLI
   daemon, and the session dispatcher against a model in logical time. *)

open Pmtest_model
open Pmtest_trace
module Report = Pmtest_core.Report
module Pmtest = Pmtest_core.Pmtest
module Obs = Pmtest_obs.Obs
module Wire = Pmtest_wire.Wire
module Server = Pmtest_server.Server
module Dispatch = Pmtest_server.Dispatch
module Client = Pmtest_client.Client
module Case = Pmtest_bugdb.Case
module Catalog = Pmtest_bugdb.Catalog

(* Seconds on the monotonic clock, for test deadlines. *)
let now () = float_of_int (Obs.now_ns ()) /. 1e9

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

(* A catalog trace comes from running its workload: generate each once.
   Not thread-safe, so tests take theirs before spawning threads. *)
let trace =
  let memo = Hashtbl.create 64 in
  fun (case : Case.t) ->
    match Hashtbl.find_opt memo case.Case.id with
    | Some entries -> entries
    | None ->
      let entries = Case.trace case in
      Hashtbl.replace memo case.Case.id entries;
      entries

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

(* Every catalog trace, buggy and clean, with its in-process packed
   report: computed once for the tests that stream the catalog. *)
let catalog =
  lazy
    (List.concat_map
       (fun (case : Case.t) ->
         List.map
           (fun (name, entries) ->
             ( Printf.sprintf "%s (%s)" case.Case.id name,
               entries,
               render (local_report ~model:Model.X86 entries) ))
           [ ("buggy", trace case); ("clean", Case.trace_clean case) ])
       Catalog.all)

let test_serve_equals_in_process_bugdb () =
  with_server (fun socket _t ->
      List.iter
        (fun (name, entries, packed) ->
          let remote = render (remote_report ~socket ~model:Model.X86 entries) in
          Alcotest.(check string) (name ^ " identical over the wire, packed") packed remote;
          Alcotest.(check string)
            (name ^ " identical over the wire, boxed")
            (render (local_report ~packed:false ~model:Model.X86 entries))
            remote)
        (Lazy.force catalog))

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
          let entries = scoped (trace case) in
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
            let entries = trace case in
            Thread.create
              (fun () ->
                try results.(i) <- Ok (remote_report ~socket ~model:Model.X86 entries)
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
              (render (local_report ~model:Model.X86 (trace case)))
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

(* A section frame header promising 4096 payload bytes. *)
let section_header () =
  let header = Bytes.make Wire.header_len '\x00' in
  Bytes.set header 0 (Char.chr Wire.version);
  Bytes.set header 1 (Char.chr (Wire.kind_code Wire.Section));
  Bytes.set header 4 '\x10' (* len = 4096, big-endian at offset 2 *);
  header

let test_client_killed_mid_frame () =
  let obs = Obs.create () in
  with_server ~obs (fun socket t ->
      let fd, _ = connect_raw socket in
      (* A frame header promising 4096 payload bytes, then silence: the
         client "crashes" mid-frame. *)
      ignore (Unix.write fd (section_header ()) 0 Wire.header_len);
      ignore (Unix.write_substring fd "only part of it" 0 15);
      Unix.close fd;
      (* The daemon must shrug the session off... *)
      wait_for (fun () -> Server.active_sessions t = 0);
      (* ... and keep serving: a fresh session still round-trips. *)
      let case = List.hd Catalog.all in
      Alcotest.(check string) "daemon survives a mid-frame crash"
        (render (local_report ~model:Model.X86 (trace case)))
        (render (remote_report ~socket ~model:Model.X86 (trace case)));
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
        (render (local_report ~model:Model.X86 (trace case)))
        (render (remote_report ~socket ~model:Model.X86 (trace case))))

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

let test_idle_timeout_counts_frames () =
  with_server
    ~cfg:{ Server.default_config with Server.idle_timeout = 0.3 }
    (fun socket t ->
      let fd, _ = connect_raw socket in
      (* One byte of a section frame every 0.1 s: bytes keep coming, a
         complete frame never does. *)
      let bytes = Bytes.cat (section_header ()) (Bytes.make 64 '\x00') in
      let t0 = now () in
      let rec trickle i =
        if Server.active_sessions t > 0 then begin
          if now () -. t0 > 1.0 then
            Alcotest.fail "a byte trickle kept the session past its idle timeout";
          (try ignore (Unix.write fd bytes i 1) with Unix.Unix_error _ -> ());
          Thread.delay 0.1;
          trickle (i + 1)
        end
      in
      trickle 0;
      Unix.close fd)

(* ~5,000 one-diagnostic checks, a report of about 0.5 MB: more than a
   socket buffer holds. *)
let big_report_sections =
  List.init 10 (fun k ->
      Packed.encode_wire
        (Packed.of_events
           (Array.concat
              (List.init 500 (fun i ->
                   let addr = 0x1000 + (64 * ((k * 500) + i)) in
                   [|
                     Event.make (Event.Op (Model.Write { addr; size = 8 }));
                     Event.make (Event.Checker (Event.Is_persist { addr; size = 8 }));
                   |])))))

let test_unread_report_cannot_hang_stop () =
  let obs = Obs.create () in
  let socket = next_socket () in
  let t =
    Server.start ~obs { Server.default_config with Server.socket; workers = 1; idle_timeout = 0.2 }
  in
  let fd, _ = connect_raw socket in
  let write kind payload =
    match Wire.write_frame fd kind payload with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Wire.error_to_string e)
  in
  List.iter (write Wire.Section) big_report_sections;
  write Wire.Get_result "";
  (* The daemon has the barrier; this client never reads its report. *)
  wait_for (fun () -> Obs.find (Obs.snapshot obs) "serve_frames_in" = Some 12);
  let stopped = Atomic.make false in
  ignore (Thread.create (fun () -> Server.stop t; Atomic.set stopped true) ());
  let t0 = now () in
  while (not (Atomic.get stopped)) && now () -. t0 < 5.0 do
    Thread.delay 0.02
  done;
  Unix.close fd;
  Alcotest.(check bool) "Server.stop returns though a client stopped reading" true
    (Atomic.get stopped)

let test_block_policy_bounds_inflight () =
  let obs = Obs.create () in
  with_server ~obs
    ~cfg:{ Server.default_config with Server.max_inflight = 1; workers = 1 }
    (fun socket _t ->
      List.iter
        (fun (name, entries, local) ->
          Alcotest.(check string)
            (name ^ " identical with one section in flight")
            local
            (render (remote_report ~socket ~model:Model.X86 entries)))
        (Lazy.force catalog);
      match Obs.find (Obs.snapshot obs) "serve_inflight_hwm" with
      | Some n ->
        Alcotest.(check bool) (Printf.sprintf "in flight never above 1 (%d)" n) true (n <= 1)
      | None -> Alcotest.fail "no section was dispatched")

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
            let entries = trace cases.(i mod Array.length cases) in
            Thread.create
              (fun () ->
                try results.(i) <- Ok (remote_report ~socket ~model:Model.X86 entries)
                with e -> results.(i) <- Error (Printexc.to_string e))
              ())
      in
      let churn_threads =
        List.init churners (fun _ ->
            Thread.create
              (fun () ->
                (* Handshake, start a section frame, die mid-payload. *)
                let fd, _ = connect_raw socket in
                ignore (Unix.write fd (section_header ()) 0 Wire.header_len);
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
              (render (local_report ~model:Model.X86 (trace case)))
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
        ignore (Unix.write fd (section_header ()) 0 Wire.header_len);
        ignore (Unix.write_substring fd "partial" 0 7);
        Unix.close fd;
        wait_for (fun () -> (Server.sessions_per_shard t).(1) = 0);
        (* Shard 0's session is unharmed and still deterministic. *)
        let s = Client.Session.make conn in
        drive s (trace case);
        (match Client.Session.finish s with
        | Error m -> Alcotest.failf "finish: %s" m
        | Ok r ->
          Alcotest.(check string) "shard-0 report unharmed"
            (render (local_report ~model:Model.X86 (trace case)))
            (render r));
        Client.close conn;
        (* And shard 1 still admits fresh sessions after the crash. *)
        Alcotest.(check string) "shard 1 keeps serving"
          (render (local_report ~model:Model.X86 (trace case)))
          (render (remote_report ~socket ~model:Model.X86 (trace case))))

let test_stop_closes_a_pinned_handshake () =
  (* A connection pinned to shard 1 that has sent no [Hello] when [stop]
     runs: the drain closes it and releases its pin. *)
  with_server
    ~cfg:{ Server.default_config with Server.shards = 2; workers = 1 }
    (fun socket t ->
      let admitted, _ = connect_raw socket in
      let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      Unix.connect fd (ADDR_UNIX socket);
      Unix.setsockopt_float fd SO_RCVTIMEO 10.0;
      wait_for (fun () -> Server.sessions_per_shard t = [| 1; 1 |]);
      Server.stop t;
      Alcotest.(check (array int)) "every pin released" [| 0; 0 |] (Server.sessions_per_shard t);
      Alcotest.(check int) "no session live" 0 (Server.active_sessions t);
      Alcotest.(check int) "the handshake reads EOF" 0 (Unix.read fd (Bytes.create 1) 0 1);
      List.iter Unix.close [ fd; admitted ])

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
        (render (local_report ~model:Model.X86 (trace case)))
        (render (remote_report ~socket ~model:Model.X86 (trace case)));
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

let test_connect_gives_up_on_a_listener_that_never_accepts () =
  (* The kernel completes the connect and queues the hello, but no one
     ever reads it: only the reply deadline stops [Client.connect] from
     waiting forever.  A watchdog allows the deadline plus 1 s. *)
  let socket = next_socket () in
  let listen_fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind listen_fd (ADDR_UNIX socket);
  Unix.listen listen_fd 1;
  let result = ref None and t0 = now () in
  let th =
    Thread.create
      (fun () ->
        let r = Client.connect ~socket () in
        result := Some (r, now () -. t0))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* Closing the listener resets a dial still queued on it. *)
      Unix.close listen_fd;
      try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
      let deadline = now () +. Wire.hello_timeout +. 1.0 in
      while !result = None && now () < deadline do
        Thread.delay 0.02
      done;
      match !result with
      | None -> Alcotest.failf "Client.connect still waiting %.0f s on" (Wire.hello_timeout +. 1.)
      | Some (Ok c, _) ->
        Thread.join th;
        Client.close c;
        Alcotest.fail "connected to a listener that never accepts"
      | Some (Error e, secs) ->
        Thread.join th;
        Alcotest.(check bool)
          (Printf.sprintf "gave up at the deadline (%.2f s: %s)" secs e)
          true
          (secs >= Wire.hello_timeout -. 0.05))

(* --- The session dispatcher against its model ---------------------------------- *)

(* In logical time, one dispatcher over sessions pinned to 1-3 shards:
   admission up to [max_sessions], least-loaded pinning, per-shard
   completion order, both policies, [Get_result] ordering, the idle and
   handshake deadlines, and drain on [stop].  Section payloads are
   unique ints, so every action can be matched against the oldest frame
   its session has not yet had acted on. *)

let model_idle = 1.0

type spec = F_hello | F_prelude | F_section | F_result | F_bye | F_bad | F_other

type cmd =
  | Connect
  | Feed of int * bool * spec list  (* [i]th readable session; hello first? *)
  | Partial of int  (* a read that ended mid-frame *)
  | Complete of int  (* the oldest section in flight on shard [i] *)
  | Advance of int  (* tenths of a second, then a tick *)
  | Hangup of int
  | Stop

let spec_name = function
  | F_hello -> "hello"
  | F_prelude -> "prelude"
  | F_section -> "section"
  | F_result -> "result"
  | F_bye -> "bye"
  | F_bad -> "bad"
  | F_other -> "other"

let cmd_to_string = function
  | Connect -> "connect"
  | Feed (i, h, fs) ->
    Printf.sprintf "feed %d%s [%s]" i (if h then " +hello" else "")
      (String.concat " " (List.map spec_name fs))
  | Partial i -> Printf.sprintf "partial %d" i
  | Complete i -> Printf.sprintf "complete %d" i
  | Advance t -> Printf.sprintf "advance %d" t
  | Hangup i -> Printf.sprintf "hangup %d" i
  | Stop -> "stop"

type item = M_hello | M_pre of int | M_sec of int | M_res | M_bye | M_bad | M_other

type msession = {
  sid : int;
  shard : int;
  expect : item Queue.t;  (* fed, not yet acted on *)
  mutable admitted : bool;
  mutable inflight : int;
  mutable since : float;
  mutable open_ : bool;
}

type dmodel = {
  mutable d : int Dispatch.t option;
  policy : Wire.policy;
  bound : int;  (* max_inflight *)
  max_sessions : int;
  idle : float;
  pins : int array;
  checking : (int * int) Queue.t array;  (* per shard, in dispatch order *)
  mutable ss : msession list;  (* by sid *)
  mutable live : int;
  mutable admit_said : bool option;  (* admit's answer, not yet acted on *)
  mutable now : float;
  mutable stopping : bool;
  mutable hanging : int option;
  mutable next : int;
}

let fail fmt = QCheck2.Test.fail_reportf fmt

let new_dmodel ~shards ~policy ~bound ~max_sessions ~idle =
  let m =
    {
      d = None;
      policy;
      bound;
      max_sessions;
      idle;
      pins = Array.make shards 0;
      checking = Array.init shards (fun _ -> Queue.create ());
      ss = [];
      live = 0;
      admit_said = None;
      now = 0.;
      stopping = false;
      hanging = None;
      next = 1;
    }
  in
  let admit () =
    if m.admit_said <> None then fail "admit asked twice in one transition";
    m.admit_said <- Some (m.live < m.max_sessions);
    if m.live < m.max_sessions then begin
      m.live <- m.live + 1;
      None
    end
    else Some "full"
  in
  m.d <- Some (Dispatch.create ~max_inflight:bound ~policy ~idle_timeout:idle ~admit);
  m

let dispatch m = Option.get m.d

let waiting m s =
  Queue.is_empty s.expect && not (m.policy = Wire.Block && s.inflight >= m.bound)

let expired m s = m.idle > 0. && waiting m s && m.now >= s.since +. m.idle
let find m sid = List.find (fun s -> s.sid = sid) m.ss
let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let act m a =
  let sid =
    match (a : int Dispatch.action) with
    | Ack (sid, _) | Set_prelude (sid, _) | Check { sid; _ } | Shed (sid, _) | Reply sid
    | Close (sid, _) ->
      sid
  in
  let s = find m sid in
  if not s.open_ then fail "action for closed session %d" sid;
  let head = Queue.peek_opt s.expect in
  let pop () = ignore (Queue.pop s.expect) in
  match a with
  | Ack _ ->
    if s.admitted || head <> Some M_hello || m.stopping || m.admit_said <> Some true then
      fail "session %d acked out of turn" sid;
    m.admit_said <- None;
    s.admitted <- true;
    pop ()
  | Set_prelude (_, p) ->
    if (not s.admitted) || head <> Some (M_pre p) then fail "prelude %d out of order" p;
    pop ()
  | Check { section; depth; _ } ->
    if (not s.admitted) || head <> Some (M_sec section) then
      fail "section %d dispatched out of arrival order" section;
    if s.inflight >= m.bound then fail "session %d past max_inflight %d" sid m.bound;
    if depth <> s.inflight + 1 then fail "depth %d with %d in flight" depth s.inflight;
    s.inflight <- s.inflight + 1;
    Queue.push (sid, section) m.checking.(s.shard);
    pop ()
  | Shed (_, p) ->
    if m.policy <> Wire.Shed || s.inflight < m.bound || head <> Some (M_sec p) then
      fail "section %d shed below the bound or out of order" p;
    pop ()
  | Reply _ ->
    if (not s.admitted) || head <> Some M_res || s.inflight > 0 then
      fail "session %d answered with %d in flight" sid s.inflight;
    pop ()
  | Close (_, why) ->
    let ok =
      match (why, head) with
      | None, _ when m.hanging = Some sid -> true
      | None, Some M_bye -> true
      | Some "bad", Some M_bad -> true
      | Some "full", Some M_hello ->
        let ok = (not s.admitted) && m.admit_said = Some false in
        m.admit_said <- None;
        ok
      | Some w, Some h when not s.admitted -> h <> M_hello && starts_with "expected hello, got" w
      | Some w, Some (M_hello | M_other) -> starts_with "unexpected " w
      | Some "idle timeout exceeded", None -> s.admitted && expired m s
      | None, None -> m.stopping || ((not s.admitted) && expired m s)
      | _ -> false
    in
    if not ok then
      fail "session %d closed (%s) with %s next" sid
        (Option.value why ~default:"silently")
        (if head = None then "nothing" else "a frame");
    s.open_ <- false;
    m.pins.(s.shard) <- m.pins.(s.shard) - 1;
    if s.admitted then m.live <- m.live - 1

let check_invariants m =
  let d = dispatch m in
  if m.admit_said <> None then fail "an admission answer was not acted on";
  if m.live > m.max_sessions then fail "%d sessions live past the limit" m.live;
  let here = List.filter (fun s -> s.open_) m.ss in
  if Dispatch.sessions d <> List.length here then fail "session count";
  Array.iteri
    (fun k n ->
      if n <> List.length (List.filter (fun s -> s.shard = k) here) then
        fail "shard %d pin count" k)
    m.pins;
  let needs =
    List.filter_map
      (fun s ->
        if waiting m s then None
        else if Queue.peek_opt s.expect = Some M_res then Some s.inflight
        else Some (s.inflight - (m.bound / 2)))
      here
  in
  let fewest = match needs with [] -> 0 | n :: ns -> List.fold_left min n ns in
  if Dispatch.needed d <> fewest then fail "%d completions needed" (Dispatch.needed d);
  let dl =
    List.fold_left
      (fun d s ->
        if m.idle > 0. && waiting m s then
          Some (Float.min (s.since +. m.idle) (Option.value d ~default:infinity))
        else d)
      None here
  in
  if Dispatch.next_deadline d <> dl then fail "next deadline";
  List.iter
    (fun s ->
      if Dispatch.readable d s.sid <> ((not m.stopping) && waiting m s) then
        fail "session %d readable disagrees" s.sid;
      match Queue.peek_opt s.expect with
      | None -> if m.stopping then fail "drained session %d left open" s.sid
      | Some (M_sec _) when m.policy = Wire.Block && s.inflight >= m.bound -> ()
      | Some M_res when s.inflight > 0 -> ()
      | Some _ -> fail "session %d holds a frame it could act on" s.sid)
    here

let apply m acts = List.iter (act m) acts

let nth_of p l i =
  match List.filter p l with [] -> None | l -> Some (List.nth l (i mod List.length l))

let complete m k =
  let q = m.checking.(k mod Array.length m.checking) in
  if not (Queue.is_empty q) then begin
    let sid, _ = Queue.pop q in
    let s = find m sid in
    if s.open_ then begin
      if not (waiting m s) then s.since <- m.now;
      s.inflight <- s.inflight - 1
    end;
    apply m (Dispatch.completed (dispatch m) sid ~now:m.now)
  end

let stop m =
  if not m.stopping then begin
    m.stopping <- true;
    apply m (Dispatch.stop (dispatch m))
  end

let dstep m = function
  | Connect ->
    let low = Array.fold_left min max_int m.pins in
    let k =
      let rec first i = if m.pins.(i) = low then i else first (i + 1) in
      first 0
    in
    if Dispatch.least_loaded (Array.copy m.pins) <> k then fail "not pinned to shard %d" k;
    let s =
      {
        sid = m.next;
        shard = k;
        expect = Queue.create ();
        admitted = false;
        inflight = 0;
        since = m.now;
        open_ = true;
      }
    in
    m.next <- m.next + 1;
    m.pins.(k) <- m.pins.(k) + 1;
    m.ss <- m.ss @ [ s ];
    apply m (Dispatch.connect (dispatch m) s.sid ~now:m.now)
  | Feed (i, hello, specs) ->
    Option.iter
      (fun s ->
        let specs = if hello && not s.admitted then F_hello :: specs else specs in
        let frames =
          List.map
            (fun spec ->
              let n = m.next in
              m.next <- n + 1;
              let item, frame =
                match spec with
                | F_hello -> (M_hello, Dispatch.Hello Model.X86)
                | F_prelude -> (M_pre n, Dispatch.Prelude n)
                | F_section -> (M_sec n, Dispatch.Section n)
                | F_result -> (M_res, Dispatch.Get_result)
                | F_bye -> (M_bye, Dispatch.Bye)
                | F_bad -> (M_bad, Dispatch.Bad "bad")
                | F_other -> (M_other, Dispatch.Other Wire.Job_offer)
              in
              Queue.push item s.expect;
              frame)
            specs
        in
        if frames <> [] then s.since <- m.now;
        apply m (Dispatch.frames (dispatch m) s.sid ~now:m.now frames))
      (nth_of (fun s -> s.open_ && Dispatch.readable (dispatch m) s.sid) m.ss i)
  | Partial i ->
    Option.iter
      (fun s -> apply m (Dispatch.frames (dispatch m) s.sid ~now:m.now []))
      (nth_of (fun s -> s.open_ && Dispatch.readable (dispatch m) s.sid) m.ss i)
  | Complete k -> complete m k
  | Advance tenths ->
    m.now <- m.now +. (float_of_int tenths /. 10.);
    apply m (Dispatch.tick (dispatch m) ~now:m.now);
    List.iter
      (fun s -> if s.open_ && expired m s then fail "session %d outlived its deadline" s.sid)
      m.ss
  | Hangup i ->
    Option.iter
      (fun s ->
        m.hanging <- Some s.sid;
        apply m (Dispatch.hangup (dispatch m) s.sid);
        m.hanging <- None;
        if s.open_ then fail "session %d survived its hangup" s.sid)
      (nth_of (fun s -> s.open_) m.ss i)
  | Stop -> stop m

let prop_dispatch_matches_model =
  QCheck2.Test.make ~name:"dispatcher agrees with its model" ~count:1000 ~long_factor:100
    ~print:(fun ((shards, block, bound, max_sessions, idle), cmds) ->
      Printf.sprintf "%d shard(s), %s, max_inflight %d, max_sessions %d, idle %b: %s" shards
        (if block then "block" else "shed")
        bound max_sessions idle
        (String.concat "; " (List.map cmd_to_string cmds)))
    QCheck2.Gen.(
      let spec =
        frequency
          [
            (1, pure F_hello);
            (2, pure F_prelude);
            (8, pure F_section);
            (3, pure F_result);
            (1, pure F_bye);
            (1, pure F_bad);
            (1, pure F_other);
          ]
      in
      let cmd =
        frequency
          [
            (3, pure Connect);
            ( 8,
              map3
                (fun i h fs -> Feed (i, h, fs))
                small_nat
                (frequencyl [ (3, true); (1, false) ])
                (list_size (int_range 0 4) spec) );
            (1, map (fun i -> Partial i) small_nat);
            (8, map (fun i -> Complete i) small_nat);
            (3, map (fun t -> Advance t) (int_range 1 6));
            (1, map (fun i -> Hangup i) small_nat);
            (1, pure Stop);
          ]
      in
      let config =
        int_range 1 3 >>= fun shards ->
        bool >>= fun block ->
        int_range (if block then 1 else 0) 3 >>= fun bound ->
        int_range 1 4 >>= fun max_sessions ->
        map (fun idle -> (shards, block, bound, max_sessions, idle)) bool
      in
      pair config (list_size (int_range 0 80) cmd))
    (fun ((shards, block, bound, max_sessions, idle), cmds) ->
      let m =
        new_dmodel ~shards
          ~policy:(if block then Wire.Block else Wire.Shed)
          ~bound ~max_sessions
          ~idle:(if idle then model_idle else 0.)
      in
      List.iter
        (fun c ->
          dstep m c;
          check_invariants m)
        cmds;
      (* Drain: stop, then let every section in flight finish. *)
      stop m;
      check_invariants m;
      while Array.exists (fun q -> not (Queue.is_empty q)) m.checking do
        let k = ref 0 in
        while Queue.is_empty m.checking.(!k) do
          incr k
        done;
        complete m !k;
        check_invariants m
      done;
      List.iter (fun s -> if s.open_ then fail "session %d never closed" s.sid) m.ss;
      if m.live <> 0 then fail "%d sessions still counted live" m.live;
      true)

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
          Alcotest.test_case "idle timeout counts frames, not bytes" `Quick
            test_idle_timeout_counts_frames;
          Alcotest.test_case "an unread report cannot hang stop" `Quick
            test_unread_report_cannot_hang_stop;
          Alcotest.test_case "block policy bounds in-flight sections" `Quick
            test_block_policy_bounds_inflight;
        ] );
      ( "shards",
        [
          Alcotest.test_case "32-session churn across 4 shards" `Quick
            test_session_churn_across_shards;
          Alcotest.test_case "mid-frame kill on a non-zero shard" `Quick
            test_mid_frame_kill_on_nonzero_shard;
          Alcotest.test_case "stop closes a handshake pinned to shard 1" `Quick
            test_stop_closes_a_pinned_handshake;
        ] );
      ( "reconnect",
        [
          Alcotest.test_case "backoff gives up after its attempt budget" `Quick
            test_connect_retry_gives_up;
          Alcotest.test_case "backoff survives a late daemon" `Quick
            test_connect_retry_waits_for_daemon;
          Alcotest.test_case "a listener that never accepts" `Quick
            test_connect_gives_up_on_a_listener_that_never_accepts;
        ] );
      ( "drain",
        [
          Alcotest.test_case "SIGTERM drains the CLI daemon" `Quick
            test_sigterm_drains_cli_daemon;
        ] );
      ("dispatch", [ QCheck_alcotest.to_alcotest prop_dispatch_matches_model ]);
    ]
