(* pmfarm end to end: spec and checkpoint round trips, deterministic
   job digests, a real coordinator/worker campaign over a Unix socket,
   crash-resume equality (the checkpoint is the campaign), zero lost
   jobs when a worker dies mid-claim, nondeterminism flagging, a worker
   link that survives corrupt job offers, a silent peer that cannot
   hang the coordinator, a worker that redials a silent coordinator and
   heartbeats through a job longer than the heartbeat timeout, and the
   scheduler against a reference model in logical time. *)

module Farm = Pmtest_farm.Farm
module Wire = Pmtest_wire.Wire
module Model = Pmtest_model.Model
module Crashfs = Pmtest_crashfs.Crashfs
module Obs = Pmtest_obs.Obs

(* Seconds on the monotonic clock, for test deadlines. *)
let now () = float_of_int (Obs.now_ns ()) /. 1e9

let next_id =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "pmfarm-test-%d-%d" (Unix.getpid ()) !n

let next_socket () =
  Filename.concat (Filename.get_temp_dir_name ()) (next_id () ^ ".sock")

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let with_dir f =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) (next_id ()) in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Small and fast: 4 fuzz jobs of 10 tiny programs each. *)
let fuzz_spec = Farm.Spec.fuzz ~max_ops:10 ~model:Model.X86 ~seed:0 ~count:40 ~chunk:10 ()

(* A seeded pmfs fault that deterministically surfaces findings: 3 jobs,
   4 reproducers over the 30 runs. *)
let crash_spec =
  Farm.Spec.crashfs ~fault:"skip-journal-flush" ~fs:Crashfs.Pmfs ~model:Model.X86 ~seed:0
    ~count:30 ~chunk:10 ()

let direct_results spec =
  List.map
    (fun (id, lo, hi) ->
      match Farm.run_units spec ~lo ~hi with
      | Ok r -> (id, r)
      | Error e -> Alcotest.failf "run_units [%d,%d): %s" lo hi e)
    (Farm.Spec.jobs spec)

let direct_digests spec =
  List.map (fun (id, r) -> (id, r.Farm.digest)) (direct_results spec)

(* What the coordinator's triage store should end up holding: every
   per-job finding, deduplicated by reproducer text. *)
let direct_finding_count spec =
  direct_results spec
  |> List.concat_map (fun (_, r) -> List.map snd r.Farm.findings)
  |> List.sort_uniq compare
  |> List.length

(* Run a coordinator on its own thread; returns once the socket listens. *)
let start_coordinator cfg =
  let result = ref None in
  let ready = ref false in
  let t =
    Thread.create
      (fun () -> result := Some (Farm.Coordinator.run ~ready:(fun () -> ready := true) cfg))
      ()
  in
  while (not !ready) && !result = None do
    Thread.delay 0.002
  done;
  (t, result)

let finish_coordinator (t, result) =
  Thread.join t;
  match !result with
  | Some (Ok s) -> s
  | Some (Error e) -> Alcotest.failf "coordinator: %s" e
  | None -> Alcotest.fail "coordinator thread died without a result"

(* Poll [ready] for up to [secs] seconds: a test of something that used
   to hang fails on its own clock instead of hanging the suite. *)
let within secs ready =
  let deadline = now () +. secs in
  let rec go () =
    ready () || (now () < deadline && (Thread.delay 0.005; go ()))
  in
  go ()

let start_worker ?(attempts = 8) ~socket name =
  Thread.create
    (fun () ->
      ignore
        (Farm.Worker.run
           { (Farm.Worker.default_cfg ~socket ~name) with Farm.Worker.attempts }))
    ()

(* --- Specs ------------------------------------------------------------------- *)

let test_spec_round_trip () =
  List.iter
    (fun (spec, want) ->
      let s = Farm.Spec.to_string spec in
      Alcotest.(check string) "rendering" want s;
      match Farm.Spec.of_string s with
      | Error e -> Alcotest.failf "%s: %s" s e
      | Ok got ->
        Alcotest.(check bool) (s ^ " survives") true (got = spec);
        Alcotest.(check string) "renders identically" s (Farm.Spec.to_string got))
    [
      (fuzz_spec, "fuzz model=x86 seed=0 count=40 chunk=10 max_ops=10");
      ( crash_spec,
        "crashfs model=x86 fs=pmfs seed=0 count=30 chunk=10 fault=skip-journal-flush" );
      ( Farm.Spec.fuzz ~model:Model.Cxl ~seed:1000 ~count:1 ~chunk:1 (),
        "fuzz model=cxl seed=1000 count=1 chunk=1" );
      ( Farm.Spec.crashfs ~max_ops:12 ~fs:Crashfs.Nova ~model:Model.Eadr ~seed:7 ~count:50
          ~chunk:9 (),
        "crashfs model=eadr fs=nova seed=7 count=50 chunk=9 max_ops=12" );
      ( Farm.Spec.crashfs ~max_ops:6 ~fault:"skip-tail-persist" ~fs:Crashfs.Nova ~model:Model.Hops
          ~seed:3 ~count:8 ~chunk:2 (),
        "crashfs model=hops fs=nova seed=3 count=8 chunk=2 fault=skip-tail-persist max_ops=6" );
      (Farm.Spec.litmus ~chunk:4 (), "litmus model=x86 seed=0 count=25 chunk=4");
    ]

let test_spec_rejects_garbage () =
  List.iter
    (fun s ->
      match Farm.Spec.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [
      "";
      "bogus model=x86 seed=0 count=1 chunk=1";
      "fuzz model=martian seed=0 count=1 chunk=1";
      "fuzz model=x86 seed=0 count=1 chunk=1 surprise=1";
      "fuzz model=x86 seed=zero count=1 chunk=1";
      "fuzz model=x86 seed=0 chunk=1";
      "fuzz model=x86 seed=0 count=1";
      "fuzz model=x86 seed=0 count=1 chunk=0";
      "crashfs model=x86 fs=extfour seed=0 count=1 chunk=1";
      "fuzz model=x86 seed=-3 count=1 chunk=1";
      "crashfs model=x86 fs=pmfs fault=no-such-fault seed=0 count=1 chunk=1";
      "crashfs model=cxl seed=0 count=2 chunk=1";
      "fuzz model=x86 fault=skip-journal-flush seed=0 count=1 chunk=1";
      "fuzz model=x86 fs=nova seed=0 count=1 chunk=1";
      "litmus model=x86 fs=pmfs seed=0 count=25 chunk=5";
      "litmus model=x86 seed=0 count=25 chunk=5 max_ops=3";
      "litmus model=hops seed=0 count=25 chunk=5";
      "litmus model=x86 seed=1 count=24 chunk=5";
      "litmus model=x86 seed=0 count=26 chunk=5";
    ]

let test_spec_jobs_cover_the_range () =
  let spec = Farm.Spec.fuzz ~model:Model.X86 ~seed:5 ~count:10 ~chunk:4 () in
  Alcotest.(check (list (triple int int int)))
    "contiguous chunks, short tail"
    [ (0, 5, 9); (1, 9, 13); (2, 13, 15) ]
    (Farm.Spec.jobs spec)

(* --- Job execution ----------------------------------------------------------- *)

let test_run_units_deterministic () =
  match (Farm.run_units fuzz_spec ~lo:10 ~hi:20, Farm.run_units fuzz_spec ~lo:10 ~hi:20) with
  | Ok a, Ok b ->
    Alcotest.(check string) "same job, same digest" a.Farm.digest b.Farm.digest;
    Alcotest.(check int) "units" 10 a.Farm.units
  | Error e, _ | _, Error e -> Alcotest.failf "run_units: %s" e

(* Pinned digests, one row per campaign kind: two runs of the same code
   always agree, so only fixed values catch a change to what a job
   derives from its spec (config, generator, shrinker, digest text).
   Each job runs [seed, seed + count). Every seeded crashfs fault has a
   row, at a seed range with findings where the fault has any (the
   five PMFS performance faults have none), so both shrinkers and the
   oracle's failure messages are pinned; the clean rows cover x86,
   hops and eadr. *)
let test_run_units_golden () =
  let crashfs ?fault ?(model = Model.X86) ?(seed = 0) ?(count = 4) fs =
    Farm.Spec.crashfs ?fault ~fs ~model ~seed ~count ~chunk:count ()
  in
  List.iter
    (fun (spec, want) ->
      let lo = spec.Farm.Spec.seed in
      let hi = lo + spec.Farm.Spec.count in
      let what = Printf.sprintf "%s [%d, %d)" (Farm.Spec.to_string spec) lo hi in
      match Farm.run_units spec ~lo ~hi with
      | Error e -> Alcotest.failf "%s: %s" what e
      | Ok r -> Alcotest.(check string) what want r.Farm.digest)
    [
      ( Farm.Spec.fuzz ~max_ops:16 ~model:Model.X86 ~seed:0 ~count:48 ~chunk:48 (),
        "8fba58ff78152701f6106705095539ea" );
      ( Farm.Spec.fuzz ~model:Model.Hops ~seed:0 ~count:24 ~chunk:24 (),
        "4f479fa80e6ea67db7f88bc1d4656d53" );
      (crashfs ~fault:"journal-double-flush" Crashfs.Pmfs, "6b047552967b410e11d0ff03f647e650");
      (crashfs ~fault:"data-double-flush" Crashfs.Pmfs, "e2b014a923f940b05689659b262803f8");
      (crashfs ~fault:"flush-unmapped" Crashfs.Pmfs, "f0cbc7881f4b3515c2a4c28f9c248137");
      (crashfs ~fault:"skip-journal-flush" Crashfs.Pmfs, "d19c23481aa84760262dfa6f2e1de11f");
      (crashfs ~fault:"skip-commit-fence" Crashfs.Pmfs, "ac98e14d90b581d706c02c77270e0ede");
      (crashfs ~fault:"fsync-redundant-fence" Crashfs.Pmfs, "f0cbc7881f4b3515c2a4c28f9c248137");
      (crashfs ~fault:"empty-tx-fence" Crashfs.Pmfs, "f0cbc7881f4b3515c2a4c28f9c248137");
      (crashfs ~fault:"alloc-no-zero" ~seed:76 Crashfs.Pmfs, "ceed626112cac3d8341e221fe8655c59");
      (crashfs ~fault:"skip-data-persist" Crashfs.Nova, "c66548e916451b8760e72ab3d71cd562");
      (crashfs ~fault:"skip-entry-persist" Crashfs.Nova, "d1200feb6f3e25b83b99ce7423ce2365");
      (crashfs ~fault:"skip-tail-persist" Crashfs.Nova, "531b08c435704b0110c00b8e26120f5c");
      (crashfs ~fault:"valid-before-init" Crashfs.Nova, "73f93e3bb033f585330f34a036792c1d");
      (crashfs ~count:8 Crashfs.Pmfs, "f55e41197f8f9b85b372fe2a6a80f067");
      (crashfs ~model:Model.Hops Crashfs.Pmfs, "f0cbc7881f4b3515c2a4c28f9c248137");
      (crashfs ~model:Model.Eadr Crashfs.Nova, "a8bafce85d42c9d72e0bd86b77399a67");
      (Farm.Spec.litmus ~chunk:25 (), "92b7e506a6d92c820236558198a6aa91");
    ]

(* --- Checkpoints ------------------------------------------------------------- *)

let test_checkpoint_round_trip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "checkpoint" in
      let ck =
        {
          Farm.Checkpoint.spec = crash_spec;
          jobs = 3;
          done_jobs =
            [
              { Farm.Checkpoint.job = 0; attempt = 1; units = 10; digest = "aaaa" };
              { Farm.Checkpoint.job = 2; attempt = 3; units = 10; digest = "cccc" };
            ];
          findings = [ ("d1", "pmfs-skip-journal-flush-seed4") ];
          nondet = [ 1 ];
        }
      in
      Farm.Checkpoint.save ~path ck;
      (match Farm.Checkpoint.load path with
      | Error e -> Alcotest.fail e
      | Ok got -> Alcotest.(check bool) "checkpoint survives" true (got = ck));
      (match Farm.Checkpoint.load (Filename.concat dir "nope") with
      | Ok _ -> Alcotest.fail "loaded a missing checkpoint"
      | Error _ -> ());
      let bad = Filename.concat dir "bad" in
      let oc = open_out bad in
      output_string oc "not a checkpoint\n";
      close_out oc;
      match Farm.Checkpoint.load bad with
      | Ok _ -> Alcotest.fail "loaded garbage"
      | Error _ -> ())

(* --- End to end -------------------------------------------------------------- *)

let test_two_worker_campaign_matches_direct () =
  with_dir (fun dir ->
      let socket = next_socket () in
      let obs = Obs.create () in
      let cfg = { (Farm.Coordinator.default_cfg ~spec:crash_spec ~socket ~dir) with obs } in
      let coord = start_coordinator cfg in
      let w1 = start_worker ~socket "w-a" in
      let w2 = start_worker ~socket "w-b" in
      let s = finish_coordinator coord in
      Thread.join w1;
      Thread.join w2;
      Alcotest.(check int) "all jobs done" s.Farm.Coordinator.jobs
        s.Farm.Coordinator.jobs_done;
      let count name = Option.get (Obs.find (Obs.snapshot obs) name) in
      Alcotest.(check int) "farm_jobs counts the campaign" s.Farm.Coordinator.jobs
        (count "farm_jobs");
      Alcotest.(check int) "farm_jobs_done = farm_jobs" (count "farm_jobs")
        (count "farm_jobs_done");
      Alcotest.(check bool) "farm_offers >= farm_jobs" true
        (count "farm_offers" >= count "farm_jobs");
      Alcotest.(check bool) "farm_workers >= 1" true (count "farm_workers" >= 1);
      Alcotest.(check int) "both workers served" 2 s.Farm.Coordinator.workers_seen;
      Alcotest.(check (list (pair int string)))
        "distributed digests equal a direct run" (direct_digests crash_spec)
        s.Farm.Coordinator.digests;
      Alcotest.(check (list int)) "no nondeterminism" [] s.Farm.Coordinator.nondet;
      let want_findings = direct_finding_count crash_spec in
      Alcotest.(check bool) "the seeded fault surfaced reproducers" true (want_findings > 0);
      Alcotest.(check int) "finding set matches a direct run" want_findings
        (List.length s.Farm.Coordinator.findings);
      (* The triage store holds exactly the deduplicated reproducers. *)
      let pmts =
        Sys.readdir cfg.Farm.Coordinator.triage_dir
        |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".pmt")
      in
      Alcotest.(check int) "triage store matches the finding set" want_findings
        (List.length pmts))

let test_crash_resume_matches_uninterrupted () =
  (* The acceptance property: a campaign hard-killed after its first
     result, then resumed from the on-disk checkpoint, ends with the
     same per-job digests and the same finding set as a run that was
     never interrupted. *)
  with_dir (fun dir_a ->
      with_dir (fun dir_b ->
          (* Uninterrupted reference run. *)
          let socket_a = next_socket () in
          let cfg_a = Farm.Coordinator.default_cfg ~spec:crash_spec ~socket:socket_a ~dir:dir_a in
          let coord_a = start_coordinator cfg_a in
          let wa = start_worker ~socket:socket_a "ref" in
          let full = finish_coordinator coord_a in
          Thread.join wa;
          Alcotest.(check int) "reference run complete" full.Farm.Coordinator.jobs
            full.Farm.Coordinator.jobs_done;
          (* Crashed run: the coordinator hard-stops after one result —
             no Bye, no extra bookkeeping, exactly as a SIGKILL would
             leave things.  The worker loses its link mid-campaign and
             exhausts its reconnect budget. *)
          let socket_b = next_socket () in
          let base = Farm.Coordinator.default_cfg ~spec:crash_spec ~socket:socket_b ~dir:dir_b in
          let crashed_cfg = { base with Farm.Coordinator.stop_after_results = Some 1 } in
          let coord_b = start_coordinator crashed_cfg in
          let wb = start_worker ~attempts:2 ~socket:socket_b "doomed" in
          let crashed = finish_coordinator coord_b in
          Thread.join wb;
          Alcotest.(check int) "crashed after exactly one result" 1
            crashed.Farm.Coordinator.jobs_done;
          (match Farm.Checkpoint.load base.Farm.Coordinator.checkpoint with
          | Error e -> Alcotest.failf "post-crash checkpoint: %s" e
          | Ok ck ->
            Alcotest.(check int) "checkpoint carries the one survivor" 1
              (List.length ck.Farm.Checkpoint.done_jobs));
          (* Resume from the checkpoint and finish. *)
          let resume_cfg = { base with Farm.Coordinator.resume = true } in
          let coord_c = start_coordinator resume_cfg in
          let wc = start_worker ~socket:socket_b "revived" in
          let resumed = finish_coordinator coord_c in
          Thread.join wc;
          Alcotest.(check int) "resumed run complete" resumed.Farm.Coordinator.jobs
            resumed.Farm.Coordinator.jobs_done;
          Alcotest.(check (list (pair int string)))
            "same per-job digests as the uninterrupted run"
            full.Farm.Coordinator.digests resumed.Farm.Coordinator.digests;
          Alcotest.(check (list (pair string string)))
            "same finding set as the uninterrupted run" full.Farm.Coordinator.findings
            resumed.Farm.Coordinator.findings;
          Alcotest.(check (list int)) "replay found no nondeterminism" []
            resumed.Farm.Coordinator.nondet))

let must_write fd kind payload =
  match Wire.write_frame fd kind payload with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write %s: %s" (Wire.kind_name kind) (Wire.error_to_string e)

(* One reader per connection: it buffers bytes past the frame it
   returns. *)
let must_read r =
  match Wire.read_one r with
  | Ok f -> f
  | Error e -> Alcotest.failf "read: %s" (Wire.error_to_string e)

let test_worker_death_loses_no_jobs () =
  (* A hand-rolled worker handshakes, claims the first job, and drops
     dead.  The coordinator must reassign that job to the real worker
     that arrives next; the campaign ends with every job done and the
     same digests as a direct run. *)
  with_dir (fun dir ->
      let socket = next_socket () in
      let cfg = Farm.Coordinator.default_cfg ~spec:fuzz_spec ~socket ~dir in
      let coord = start_coordinator cfg in
      let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      Unix.connect fd (ADDR_UNIX socket);
      must_write fd Wire.Worker_hello (Wire.encode_worker_hello ~name:"doomed");
      let r = Wire.reader fd in
      (match must_read r with
      | Wire.Worker_hello, _ -> ()
      | kind, _ -> Alcotest.failf "expected hello ack, got %s" (Wire.kind_name kind));
      (match must_read r with
      | Wire.Job_offer, payload -> (
        match Wire.decode_job_offer payload with
        | Ok (job, attempt, _, _, _) ->
          must_write fd Wire.Job_claim (Wire.encode_job_claim ~job ~attempt)
        | Error e -> Alcotest.failf "offer: %s" (Wire.error_to_string e))
      | kind, _ -> Alcotest.failf "expected an offer, got %s" (Wire.kind_name kind));
      (* Die without a word, job in hand. *)
      Unix.close fd;
      let w = start_worker ~socket "survivor" in
      let s = finish_coordinator coord in
      Thread.join w;
      Alcotest.(check int) "zero lost jobs" s.Farm.Coordinator.jobs
        s.Farm.Coordinator.jobs_done;
      Alcotest.(check bool) "the claimed job was reassigned" true
        (s.Farm.Coordinator.reassigned >= 1);
      Alcotest.(check (list (pair int string)))
        "digests unaffected by the death" (direct_digests fuzz_spec)
        s.Farm.Coordinator.digests)

let test_silent_peer_does_not_hang () =
  (* A peer that connects and never says hello is closed once its
     handshake deadline passes, even with no worker connected; another
     one, still silent when a real worker finishes the campaign, does
     not keep [Coordinator.run] from returning. *)
  with_dir (fun dir ->
      let socket = next_socket () in
      let cfg =
        {
          (Farm.Coordinator.default_cfg ~spec:fuzz_spec ~socket ~dir) with
          Farm.Coordinator.heartbeat_timeout = 1.0;
        }
      in
      let ((_, result) as coord) = start_coordinator cfg in
      let silent () =
        let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
        Unix.connect fd (ADDR_UNIX socket);
        Unix.setsockopt_float fd SO_RCVTIMEO 5.0;
        fd
      in
      let closed_by_peer fd =
        match Unix.read fd (Bytes.create 1) 0 1 with
        | 0 -> true
        | _ -> false
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> false
        | exception Unix.Unix_error (ECONNRESET, _, _) -> true
      in
      let early = silent () and late = ref None in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            (early :: Option.to_list !late))
        (fun () ->
          Alcotest.(check bool) "a silent peer is closed at its handshake deadline" true
            (closed_by_peer early);
          late := Some (silent ());
          let w =
            Thread.create
              (fun () ->
                ignore
                  (Farm.Worker.run
                     { (Farm.Worker.default_cfg ~socket ~name:"real") with hb_interval = 0.2 }))
              ()
          in
          if not (within 10.0 (fun () -> !result <> None)) then
            Alcotest.fail "Coordinator.run still running 10 s after the campaign started";
          let s = finish_coordinator coord in
          Thread.join w;
          Alcotest.(check int) "all jobs done" s.Farm.Coordinator.jobs
            s.Farm.Coordinator.jobs_done;
          Alcotest.(check bool) "teardown closes the late silent peer" true
            (closed_by_peer (Option.get !late))))

let test_trickling_peer_is_dropped () =
  (* A worker floods the coordinator with bad frames and then takes the
     error replies a few bytes at a time.  Once those replies fill its
     socket buffer, every frame written to it must still go out whole
     within [heartbeat_timeout]: the coordinator drops the peer and an
     honest worker finishes the campaign while the trickle goes on.
     With a deadline per write(2) instead, each reply could wait out a
     full timeout and the peer held the loop for as long as it liked. *)
  with_dir (fun dir ->
      let socket = next_socket () in
      let timeout = 0.3 in
      let cfg =
        {
          (Farm.Coordinator.default_cfg ~spec:fuzz_spec ~socket ~dir) with
          Farm.Coordinator.heartbeat_timeout = timeout;
        }
      in
      let ((_, result) as coord) = start_coordinator cfg in
      let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      Unix.connect fd (ADDR_UNIX socket);
      must_write fd Wire.Worker_hello (Wire.encode_worker_hello ~name:"trickle");
      (match must_read (Wire.reader fd) with
      | Wire.Worker_hello, _ -> ()
      | kind, _ -> Alcotest.failf "expected hello ack, got %s" (Wire.kind_name kind));
      let dropped = Atomic.make false and stop = Atomic.make false in
      (* A worker never sends offers: each one earns an [Err] reply.
         They go out a thousand per write(2), so a single read on the
         coordinator's side already owes more replies than a socket
         buffer holds. *)
      let offers =
        let r, w = Unix.pipe ~cloexec:true () in
        must_write w Wire.Job_offer "";
        let one = Bytes.create Wire.header_len in
        ignore (Unix.read r one 0 Wire.header_len);
        List.iter Unix.close [ r; w ];
        String.concat "" (List.init 1000 (fun _ -> Bytes.to_string one))
      in
      let flood =
        Thread.create
          (fun () ->
            (try
               while true do
                 ignore (Unix.write_substring fd offers 0 (String.length offers))
               done
             with Unix.Unix_error _ -> ());
            Atomic.set dropped true)
          ()
      in
      let trickle =
        Thread.create
          (fun () ->
            let buf = Bytes.create 8 and until = now () +. 8.0 in
            Unix.setsockopt_float fd SO_RCVTIMEO (timeout /. 3.);
            while (not (Atomic.get stop)) && now () < until do
              (try ignore (Unix.read fd buf 0 8) with Unix.Unix_error _ -> ());
              Thread.delay (timeout /. 3.)
            done;
            (* Wakes the flood thread if the coordinator never let go. *)
            try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ())
          ()
      in
      let w =
        Thread.create
          (fun () ->
            ignore
              (Farm.Worker.run
                 { (Farm.Worker.default_cfg ~socket ~name:"honest") with hb_interval = 0.05 }))
          ()
      in
      let dropped_in_time = within 4.0 (fun () -> Atomic.get dropped) in
      let finished_in_time = within 4.0 (fun () -> !result <> None) in
      Atomic.set stop true;
      List.iter Thread.join [ flood; trickle ];
      Unix.close fd;
      let s = finish_coordinator coord in
      Thread.join w;
      Alcotest.(check bool) "the trickling peer is dropped" true dropped_in_time;
      Alcotest.(check bool) "the campaign finishes meanwhile" true finished_in_time;
      Alcotest.(check int) "all jobs done" s.Farm.Coordinator.jobs s.Farm.Coordinator.jobs_done;
      Alcotest.(check bool) "its job went to the honest worker" true
        (s.Farm.Coordinator.reassigned >= 1))

(* A hand-rolled coordinator's side of the handshake on a fresh accept;
   [None] if no worker dialed within [secs]. *)
let accept_worker listen_fd ~secs =
  match Unix.select [ listen_fd ] [] [] secs with
  | [], _, _ -> None
  | _ ->
    let fd, _ = Unix.accept ~cloexec:true listen_fd in
    let r = Wire.reader fd in
    (match must_read r with
    | Wire.Worker_hello, _ -> ()
    | kind, _ -> Alcotest.failf "expected worker hello, got %s" (Wire.kind_name kind));
    must_write fd Wire.Worker_hello (Wire.encode_worker_hello ~name:"w0");
    Some (fd, r)

let test_silent_coordinator_is_redialed () =
  (* The test plays a coordinator that answers the handshake and then
     says nothing, its socket still open.  The worker's idle heartbeats
     go unanswered, so it must drop the link and dial again: six 0.1 s
     heartbeats and one more interval, well inside the 3 s watchdog. *)
  let socket = next_socket () in
  let listen_fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind listen_fd (ADDR_UNIX socket);
  Unix.listen listen_fd 4;
  let result = ref None and links = ref [] in
  let worker =
    Thread.create
      (fun () ->
        result :=
          Some
            (Farm.Worker.run
               { (Farm.Worker.default_cfg ~socket ~name:"patient") with
                 Farm.Worker.hb_interval = 0.1;
                 attempts = 2;
               }))
      ()
  in
  let accept () =
    match accept_worker listen_fd ~secs:3.0 with
    | Some (fd, r) ->
      links := fd :: !links;
      (fd, r)
    | None -> Alcotest.fail "no worker dialed within 3 s"
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) (listen_fd :: !links);
      try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
      let _, silent = accept () in
      let second, _ = accept () in
      (* The first link holds only the idle heartbeats, then the
         worker's close. *)
      let rec heartbeats n =
        match Wire.read_one silent with
        | Ok (Wire.Checkpoint, payload) -> (
          match Wire.decode_checkpoint payload with
          | Ok (None, _) -> heartbeats (n + 1)
          | _ -> Alcotest.fail "a heartbeat named a running job")
        | Ok (kind, _) -> Alcotest.failf "unexpected %s frame" (Wire.kind_name kind)
        | Error _ -> n
      in
      Alcotest.(check int) "six unanswered heartbeats, then a redial" 6 (heartbeats 0);
      must_write second Wire.Bye "";
      if not (within 5.0 (fun () -> !result <> None)) then
        Alcotest.fail "Worker.run still running 5 s after Bye";
      Thread.join worker;
      match !result with
      | Some (Ok 0) -> ()
      | Some (Ok n) -> Alcotest.failf "worker reported %d jobs, wanted 0" n
      | Some (Error e) -> Alcotest.failf "worker: %s" e
      | None -> Alcotest.fail "worker thread died")

let test_long_job_heartbeats_between_units () =
  (* One crashfs job whose units together outlast the coordinator's
     0.5 s [heartbeat_timeout]: the worker runs it on its only thread,
     so the heartbeats it sends between units are all that keeps the
     coordinator from dropping it and re-offering the job. *)
  let n = 40 in
  let spec = Farm.Spec.crashfs ~fs:Crashfs.Pmfs ~model:Model.X86 ~seed:0 ~count:n ~chunk:n () in
  let calls = ref 0 and t0 = now () in
  let direct =
    match Farm.run_units ~between:(fun () -> incr calls) spec ~lo:0 ~hi:n with
    | Ok r -> r
    | Error e -> Alcotest.failf "run_units: %s" e
  in
  let secs = now () -. t0 in
  Alcotest.(check int) "between runs once per unit" n !calls;
  Alcotest.(check bool)
    (Printf.sprintf "the job (%.2f s) outlasts heartbeat_timeout" secs)
    true (secs > 0.5);
  with_dir (fun dir ->
      let socket = next_socket () in
      let cfg =
        {
          (Farm.Coordinator.default_cfg ~spec ~socket ~dir) with
          Farm.Coordinator.heartbeat_timeout = 0.5;
        }
      in
      let ((_, result) as coord) = start_coordinator cfg in
      let w =
        Thread.create
          (fun () ->
            ignore
              (Farm.Worker.run
                 { (Farm.Worker.default_cfg ~socket ~name:"steady") with hb_interval = 0.1 }))
          ()
      in
      (* Without those heartbeats every attempt is dropped mid-job and
         re-offered, and the campaign never ends. *)
      if not (within (10.0 +. (4. *. secs)) (fun () -> !result <> None)) then
        Alcotest.fail "the campaign is still running: was the job re-offered forever?";
      let s = finish_coordinator coord in
      Thread.join w;
      Alcotest.(check int) "never reassigned" 0 s.Farm.Coordinator.reassigned;
      Alcotest.(check int) "never stolen" 0 s.Farm.Coordinator.steals;
      Alcotest.(check (list (pair int string)))
        "digest equals run_units" [ (0, direct.Farm.digest) ] s.Farm.Coordinator.digests)

let test_overlong_unit_ends_the_campaign () =
  (* One nova job with four units (shrinking included) of 0.13-0.35 s
     on a 2-vCPU host, against a 0.15 s [heartbeat_timeout].  The worker
     heartbeats only between units, so each attempt is dropped mid-unit
     and the job re-offered; the campaign must still end, all done or
     with an error naming the timeout, inside the watchdog. *)
  let spec =
    Farm.Spec.crashfs ~fault:"skip-data-persist" ~fs:Crashfs.Nova ~model:Model.X86 ~seed:0
      ~count:20 ~chunk:20 ()
  in
  with_dir (fun dir ->
      let socket = next_socket () in
      let cfg =
        {
          (Farm.Coordinator.default_cfg ~spec ~socket ~dir) with
          Farm.Coordinator.heartbeat_timeout = 0.15;
        }
      in
      let t, result = start_coordinator cfg in
      let worker_done = ref false in
      let w =
        Thread.create
          (fun () ->
            ignore
              (Farm.Worker.run
                 {
                   (Farm.Worker.default_cfg ~socket ~name:"slow") with
                   Farm.Worker.hb_interval = 0.05;
                   attempts = 3;
                   base_delay = 0.01;
                   max_delay = 0.05;
                 });
            worker_done := true)
          ()
      in
      if not (within 20.0 (fun () -> !result <> None)) then
        Alcotest.fail "the campaign is still running after 20 s: the job is re-offered forever";
      Thread.join t;
      (match !result with
      | Some (Ok s) ->
        Alcotest.(check int) "every job done" s.Farm.Coordinator.jobs s.Farm.Coordinator.jobs_done
      | Some (Error e) ->
        let names_timeout =
          let k = "heartbeat_timeout" in
          let n = String.length k in
          let rec at i = i + n <= String.length e && (String.sub e i n = k || at (i + 1)) in
          at 0
        in
        Alcotest.(check bool) (Printf.sprintf "the error names the timeout (%s)" e) true names_timeout
      | None -> Alcotest.fail "coordinator thread died without a result");
      if not (within 10.0 (fun () -> !worker_done)) then
        Alcotest.fail "the worker is still running 10 s after the campaign ended";
      Thread.join w)

let test_duplicate_result_mismatch_flags_nondet () =
  (* Replay verification: a second result for an already-done job whose
     digest disagrees is flagged as nondeterminism, never silently
     resolved.  The fake worker answers job 0 twice with different
     digests, then finishes the rest honestly enough to end the run. *)
  with_dir (fun dir ->
      let socket = next_socket () in
      let spec = Farm.Spec.fuzz ~max_ops:8 ~model:Model.X86 ~seed:0 ~count:2 ~chunk:1 () in
      let cfg = Farm.Coordinator.default_cfg ~spec ~socket ~dir in
      let coord = start_coordinator cfg in
      let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      Unix.connect fd (ADDR_UNIX socket);
      must_write fd Wire.Worker_hello (Wire.encode_worker_hello ~name:"liar");
      let r = Wire.reader fd in
      (match must_read r with
      | Wire.Worker_hello, _ -> ()
      | kind, _ -> Alcotest.failf "expected hello ack, got %s" (Wire.kind_name kind));
      let answer ~twice =
        match must_read r with
        | Wire.Job_offer, payload -> (
          match Wire.decode_job_offer payload with
          | Error e -> Alcotest.failf "offer: %s" (Wire.error_to_string e)
          | Ok (job, attempt, _lo, _hi, _spec) ->
            let result digest =
              Wire.encode_job_result ~job ~attempt ~digest ~units:1 ~elapsed_ms:1
                ~findings:[]
            in
            must_write fd Wire.Job_result (result "digest-one");
            if twice then must_write fd Wire.Job_result (result "digest-two"))
        | kind, _ -> Alcotest.failf "expected an offer, got %s" (Wire.kind_name kind)
      in
      answer ~twice:true;
      answer ~twice:false;
      (match must_read r with
      | Wire.Bye, _ -> ()
      | kind, _ -> Alcotest.failf "expected bye, got %s" (Wire.kind_name kind));
      Unix.close fd;
      let s = finish_coordinator coord in
      Alcotest.(check (list int)) "job 0 flagged nondeterministic" [ 0 ]
        s.Farm.Coordinator.nondet)

let test_corrupt_offer_does_not_kill_worker () =
  (* The test plays coordinator: after the handshake it sends a
     well-framed [Job_offer] whose payload is garbage (answered with a
     bare [Err]), then one whose spec is gibberish (answered with
     [Job_refused] naming the job).  Either way the worker stays on the
     line — the next valid offer still gets executed. *)
  let socket = next_socket () in
  let listen_fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind listen_fd (ADDR_UNIX socket);
  Unix.listen listen_fd 1;
  let jobs_done = ref None in
  let worker =
    Thread.create
      (fun () ->
        jobs_done :=
          Some
            (Farm.Worker.run
               { (Farm.Worker.default_cfg ~socket ~name:"stoic") with
                 Farm.Worker.hb_interval = 60.0;
               }))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
      let fd, _ = Unix.accept ~cloexec:true listen_fd in
      let r = Wire.reader fd in
      (match must_read r with
      | Wire.Worker_hello, _ -> ()
      | kind, _ -> Alcotest.failf "expected worker hello, got %s" (Wire.kind_name kind));
      must_write fd Wire.Worker_hello (Wire.encode_worker_hello ~name:"w0");
      (* Skip the claim/heartbeat chatter; find the next interesting frame. *)
      let rec next () =
        match must_read r with
        | (Wire.Job_claim | Wire.Checkpoint), _ -> next ()
        | f -> f
      in
      (* Valid frame, undecodable payload: the worker cannot even name
         the job, so a bare [Err] is all it can answer. *)
      must_write fd Wire.Job_offer "\xff\xff\xff\xff garbage";
      (match next () with
      | Wire.Err, _ -> ()
      | kind, _ -> Alcotest.failf "expected err for garbage offer, got %s" (Wire.kind_name kind));
      (* Decodable offer, gibberish campaign spec: refused by job id so
         the coordinator can unassign it. *)
      must_write fd Wire.Job_offer
        (Wire.encode_job_offer ~job:0 ~attempt:1 ~lo:0 ~hi:5 ~spec:"haunted model=ghost");
      (match next () with
      | Wire.Job_refused, payload -> (
        match Wire.decode_job_refused payload with
        | Ok (0, 1, _reason) -> ()
        | Ok (job, attempt, _) ->
          Alcotest.failf "refusal names job %d attempt %d, wanted 0/1" job attempt
        | Error e -> Alcotest.failf "refusal: %s" (Wire.error_to_string e))
      | kind, _ ->
        Alcotest.failf "expected job-refused for bad spec, got %s" (Wire.kind_name kind));
      (* The link survived: a real offer still produces a real result. *)
      let spec = Farm.Spec.fuzz ~max_ops:8 ~model:Model.X86 ~seed:0 ~count:5 ~chunk:5 () in
      must_write fd Wire.Job_offer
        (Wire.encode_job_offer ~job:0 ~attempt:1 ~lo:0 ~hi:5
           ~spec:(Farm.Spec.to_string spec));
      let wait_result () =
        match next () with
        | Wire.Job_result, payload -> (
          match Wire.decode_job_result payload with
          | Ok r -> r
          | Error e -> Alcotest.failf "result: %s" (Wire.error_to_string e))
        | kind, _ -> Alcotest.failf "expected a result, got %s" (Wire.kind_name kind)
      in
      let job, _attempt, digest, units, _ms, _findings = wait_result () in
      Alcotest.(check int) "job id" 0 job;
      Alcotest.(check int) "units" 5 units;
      (match Farm.run_units spec ~lo:0 ~hi:5 with
      | Ok direct -> Alcotest.(check string) "honest digest" direct.Farm.digest digest
      | Error e -> Alcotest.failf "direct run: %s" e);
      must_write fd Wire.Bye "";
      (* The worker's heartbeat sleeps 60 s at a time: its teardown must
         not wait one out. *)
      if not (within 5.0 (fun () -> !jobs_done <> None)) then
        Alcotest.fail "Worker.run still running 5 s after Bye";
      Unix.close fd;
      Thread.join worker;
      match !jobs_done with
      | Some (Ok 1) -> ()
      | Some (Ok n) -> Alcotest.failf "worker reported %d jobs, wanted 1" n
      | Some (Error e) -> Alcotest.failf "worker: %s" e
      | None -> Alcotest.fail "worker thread died")

let refusing_worker_handshake socket name =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX socket);
  must_write fd Wire.Worker_hello (Wire.encode_worker_hello ~name);
  let r = Wire.reader fd in
  (match must_read r with
  | Wire.Worker_hello, _ -> ()
  | kind, _ -> Alcotest.failf "expected hello ack, got %s" (Wire.kind_name kind));
  (fd, r)

let read_offer r =
  match must_read r with
  | Wire.Job_offer, payload -> (
    match Wire.decode_job_offer payload with
    | Ok o -> o
    | Error e -> Alcotest.failf "offer: %s" (Wire.error_to_string e))
  | kind, _ -> Alcotest.failf "expected an offer, got %s" (Wire.kind_name kind)

let test_refused_job_is_requeued () =
  (* A worker that cannot run a job says so with [Job_refused]; the
     coordinator must unassign and re-offer it — the worker stays live
     and heartbeating, so no timeout or steal would ever recover it.
     Two refusals (below the abort cap), then an honest result: the
     campaign still completes. *)
  with_dir (fun dir ->
      let socket = next_socket () in
      let spec = Farm.Spec.fuzz ~max_ops:8 ~model:Model.X86 ~seed:0 ~count:5 ~chunk:5 () in
      let cfg = Farm.Coordinator.default_cfg ~spec ~socket ~dir in
      let coord = start_coordinator cfg in
      let fd, r = refusing_worker_handshake socket "picky" in
      let job, attempt, lo, hi, _ = read_offer r in
      Alcotest.(check (pair int int)) "first offer" (0, 1) (job, attempt);
      must_write fd Wire.Job_refused
        (Wire.encode_job_refused ~job ~attempt ~reason:"not feeling it");
      let job, attempt, _, _, _ = read_offer r in
      Alcotest.(check (pair int int)) "re-offered with a fresh attempt" (0, 2) (job, attempt);
      must_write fd Wire.Job_refused
        (Wire.encode_job_refused ~job ~attempt ~reason:"still not feeling it");
      let job, attempt, _, _, _ = read_offer r in
      Alcotest.(check (pair int int)) "third offer" (0, 3) (job, attempt);
      (match Farm.run_units spec ~lo ~hi with
      | Error e -> Alcotest.failf "direct run: %s" e
      | Ok r ->
        must_write fd Wire.Job_result
          (Wire.encode_job_result ~job ~attempt ~digest:r.Farm.digest ~units:r.Farm.units
             ~elapsed_ms:1 ~findings:r.Farm.findings));
      (match must_read r with
      | Wire.Bye, _ -> ()
      | kind, _ -> Alcotest.failf "expected bye, got %s" (Wire.kind_name kind));
      Unix.close fd;
      let s = finish_coordinator coord in
      Alcotest.(check int) "the refused job still completed" s.Farm.Coordinator.jobs
        s.Farm.Coordinator.jobs_done)

let test_repeated_refusals_abort_campaign () =
  (* A deterministically failing job must not bounce between offers
     forever (nor deadlock the campaign, as it did when refusals were
     ignored): after the refusal cap the coordinator gives up with the
     worker's reason. *)
  with_dir (fun dir ->
      let socket = next_socket () in
      let spec = Farm.Spec.fuzz ~max_ops:8 ~model:Model.X86 ~seed:0 ~count:5 ~chunk:5 () in
      let cfg = Farm.Coordinator.default_cfg ~spec ~socket ~dir in
      let coord = start_coordinator cfg in
      let fd, r = refusing_worker_handshake socket "naysayer" in
      for _ = 1 to 3 do
        let job, attempt, _, _, _ = read_offer r in
        must_write fd Wire.Job_refused
          (Wire.encode_job_refused ~job ~attempt ~reason:"engine not built")
      done;
      (* An aborted campaign still says goodbye so workers exit. *)
      (match must_read r with
      | Wire.Bye, _ -> ()
      | kind, _ -> Alcotest.failf "expected bye, got %s" (Wire.kind_name kind));
      Unix.close fd;
      let t, result = coord in
      Thread.join t;
      match !result with
      | Some (Error e) ->
        Alcotest.(check bool)
          (Printf.sprintf "error names the job (%s)" e)
          true
          (let has_sub s sub =
             let n = String.length sub in
             let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
             go 0
           in
           has_sub e "job 0" && has_sub e "engine not built")
      | Some (Ok _) -> Alcotest.fail "campaign succeeded despite a permanently refused job"
      | None -> Alcotest.fail "coordinator thread died without a result")

let test_invalid_specs_rejected_before_serving () =
  (* Negative seeds would blow up mid-[encode_job_offer] inside the
     coordinator loop; an unknown fault would make every attempt of
     every job fail worker-side, and so would a litmus range past the
     suite; a litmus spec that sets what the suite fixes is refused
     too.  All are rejected before the socket even opens. *)
  (match Farm.Spec.validate (Farm.Spec.fuzz ~model:Model.X86 ~seed:(-1) ~count:5 ~chunk:5 ()) with
  | Ok () -> Alcotest.fail "negative seed validated"
  | Error _ -> ());
  with_dir (fun dir ->
      List.iter
        (fun spec ->
          let cfg = Farm.Coordinator.default_cfg ~spec ~socket:(next_socket ()) ~dir in
          match Farm.Coordinator.run cfg with
          | Ok _ -> Alcotest.failf "coordinator served %s" (Farm.Spec.to_string spec)
          | Error _ -> ())
        [
          Farm.Spec.fuzz ~model:Model.X86 ~seed:(-7) ~count:5 ~chunk:5 ();
          Farm.Spec.crashfs ~fault:"no-such-fault" ~fs:Crashfs.Pmfs ~model:Model.X86 ~seed:0
            ~count:5 ~chunk:5 ();
          Farm.Spec.crashfs ~fs:Crashfs.Pmfs ~model:Model.Cxl ~seed:0 ~count:2 ~chunk:1 ();
          { (Farm.Spec.litmus ~chunk:5 ()) with Farm.Spec.seed = 1 };
          { (Farm.Spec.litmus ~chunk:5 ()) with Farm.Spec.count = 30 };
          { (Farm.Spec.litmus ~chunk:5 ()) with Farm.Spec.max_ops = Some 3 };
          { (Farm.Spec.litmus ~chunk:5 ()) with Farm.Spec.model = Model.Cxl };
        ])

(* --- Scheduler model ----------------------------------------------------------

   [Sched] driven in logical time by random joins, heartbeats, honest
   and forged results, refusals, losses and clock advances, against a
   reference model of what each worker holds and when it was last
   heard from.  Every action the scheduler returns is checked against
   the model as it happens. *)

module Sched = Pmtest_farm.Sched

(* Four one-run jobs under a seeded crashfs fault: real digests, each
   with a reproducer.  Few jobs empty the queue early, so steals and
   duplicate results are common. *)
let model_spec =
  Farm.Spec.crashfs ~fault:"skip-journal-flush" ~fs:Crashfs.Pmfs ~model:Model.X86 ~seed:0
    ~count:4 ~chunk:1 ()

let model_direct = lazy (Array.of_list (List.map snd (direct_results model_spec)))
let model_heartbeat = 1.0
let model_steal = 0.4

type cmd =
  | Join
  | Advance of int  (* tenths of a second, then a tick *)
  | Beat of int  (* a heartbeat from the [i]th live worker *)
  | Answer of int * int * bool  (* worker, which held job, honest? *)
  | Refuse of int * int
  | Lose of int

let cmd_to_string = function
  | Join -> "join"
  | Advance t -> Printf.sprintf "advance %d" t
  | Beat i -> Printf.sprintf "beat %d" i
  | Answer (i, k, h) -> Printf.sprintf "answer %d %d %s" i k (if h then "honest" else "forged")
  | Refuse (i, k) -> Printf.sprintf "refuse %d %d" i k
  | Lose i -> Printf.sprintf "lose %d" i

type mworker = {
  mwid : int;
  mutable alive : bool;
  mutable last : float;
  mutable held : (int * int) list;  (* (job, attempt), oldest first *)
}

type mjob = {
  mutable first : string option;  (* the digest that won *)
  mutable top : int;  (* highest attempt offered *)
  mutable holders : int list;
  mutable since : float;  (* time of the latest offer *)
  mutable refused : int;
  mutable lost : int;  (* requeued because its last holder was lost *)
  mutable flagged : bool;  (* a later digest disagreed *)
}

type model = {
  s : Sched.t;
  mutable now : float;
  mutable ws : mworker list;  (* join order *)
  js : mjob array;
  stored : (string, unit) Hashtbl.t;  (* finding texts sent to the triage store *)
  mutable requeued : int;
}

let fail fmt = QCheck2.Test.fail_reportf fmt

let new_model (resume : Farm.Checkpoint.t option) =
  let js =
    Array.init (List.length (Farm.Spec.jobs model_spec)) (fun _ ->
        { first = None; top = 0; holders = []; since = 0.; refused = 0; lost = 0; flagged = false })
  in
  Option.iter
    (fun (ck : Farm.Checkpoint.t) ->
      List.iter
        (fun (d : Farm.Checkpoint.done_job) ->
          js.(d.job).first <- Some d.digest;
          js.(d.job).top <- d.attempt)
        ck.done_jobs)
    resume;
  let s =
    Sched.create ~heartbeat_timeout:model_heartbeat ~steal_after:model_steal
      ~obs:Obs.disabled model_spec resume
  in
  { s; now = 0.; ws = []; js; stored = Hashtbl.create 8; requeued = 0 }

let pending m =
  Array.exists (fun j -> j.first = None && j.holders = []) m.js

let release m w job =
  w.held <- List.remove_assoc job w.held;
  m.js.(job).holders <- List.filter (fun h -> h <> w.mwid) m.js.(job).holders

let lose m w =
  w.alive <- false;
  List.iter
    (fun (job, _) ->
      release m w job;
      let j = m.js.(job) in
      if j.first = None && j.holders = [] then begin
        m.requeued <- m.requeued + 1;
        j.lost <- j.lost + 1
      end)
    w.held

let apply m acts =
  List.iter
    (function
      | Sched.Offer { wid; job; attempt; _ } ->
        let w = List.find (fun w -> w.mwid = wid) m.ws and j = m.js.(job) in
        if not w.alive then fail "job %d offered to lost worker %d" job wid;
        if w.held <> [] then fail "worker %d offered a second job" wid;
        if List.mem_assoc job w.held then fail "worker %d offered job %d it holds" wid job;
        if j.first <> None then fail "finished job %d offered" job;
        if attempt <= j.top then fail "job %d attempt %d after attempt %d" job attempt j.top;
        if j.holders <> [] then begin
          if m.now -. j.since <= model_steal then
            fail "job %d stolen %.1f s after its offer" job (m.now -. j.since);
          if pending m then fail "job %d stolen while jobs are pending" job
        end;
        j.top <- attempt;
        j.since <- m.now;
        j.holders <- wid :: j.holders;
        w.held <- w.held @ [ (job, attempt) ]
      | Sched.Drop wid ->
        let w = List.find (fun w -> w.mwid = wid) m.ws in
        if not w.alive then fail "lost worker %d dropped again" wid;
        if m.now -. w.last <= model_heartbeat then
          fail "worker %d dropped after %.1f s of silence" wid (m.now -. w.last);
        lose m w
      | Sched.Store { text; _ } ->
        if Hashtbl.mem m.stored text then fail "one finding stored twice";
        Hashtbl.replace m.stored text ()
      | Sched.Save -> ())
    acts;
  if
    (not (Sched.over m.s))
    && pending m
    && List.exists (fun w -> w.alive && w.held = []) m.ws
  then fail "a job is pending while a worker has room"

(* Any frame from [w] proves it alive; only a [Checkpoint] frame is a
   heartbeat. *)
let hear ?(heartbeat = false) m w =
  Sched.seen m.s w.mwid ~now:m.now ~heartbeat;
  w.last <- m.now

let answer m w (job, attempt) ~honest =
  hear m w;
  let direct = (Lazy.force model_direct).(job) in
  let digest = if honest then direct.Farm.digest else "forged" in
  let findings = if honest then direct.Farm.findings else [] in
  release m w job;
  let j = m.js.(job) in
  (match j.first with
  | None -> j.first <- Some digest
  | Some d -> if d <> digest then j.flagged <- true);
  apply m (Sched.result m.s w.mwid ~now:m.now ~job ~attempt ~digest ~units:1 ~findings)

(* The [i]th (mod their number) element of [l] satisfying [p]. *)
let nth_of p l i =
  match List.filter p l with [] -> None | l -> Some (List.nth l (i mod List.length l))

let step m ~honest_only = function
  | Join ->
    let wid, acts = Sched.join m.s ~now:m.now in
    if List.exists (fun w -> w.mwid = wid) m.ws then fail "worker id %d reused" wid;
    m.ws <- m.ws @ [ { mwid = wid; alive = true; last = m.now; held = [] } ];
    apply m acts
  | Advance tenths ->
    m.now <- m.now +. (float_of_int tenths /. 10.);
    apply m (Sched.tick m.s ~now:m.now);
    List.iter
      (fun w ->
        if w.alive && m.now -. w.last > model_heartbeat then
          fail "worker %d silent for %.1f s survived a tick" w.mwid (m.now -. w.last))
      m.ws
  | Beat i -> Option.iter (hear ~heartbeat:true m) (nth_of (fun w -> w.alive) m.ws i)
  | Answer (i, k, honest) ->
    Option.iter
      (fun w ->
        answer m w (List.nth w.held (k mod List.length w.held)) ~honest:(honest || honest_only))
      (nth_of (fun w -> w.alive && w.held <> []) m.ws i)
  | Refuse (i, k) ->
    Option.iter
      (fun w ->
        let job, _ = List.nth w.held (k mod List.length w.held) in
        hear m w;
        release m w job;
        let j = m.js.(job) in
        if j.first = None then j.refused <- j.refused + 1;
        apply m (Sched.refusal m.s w.mwid ~now:m.now ~job ~reason:"model"))
      (nth_of (fun w -> w.alive && w.held <> []) m.ws i)
  | Lose i ->
    Option.iter
      (fun w ->
        lose m w;
        apply m (Sched.lost m.s w.mwid ~now:m.now))
      (nth_of (fun w -> w.alive) m.ws i)

let aborted m = Array.exists (fun j -> j.refused >= 3 || j.lost >= 3) m.js

(* Honest answers, and a fresh worker whenever none is left, until the
   campaign is over; the clock stands still, so nobody times out. *)
let complete m =
  let rec go fuel =
    if not (Sched.over m.s) then begin
      if fuel = 0 then fail "the campaign never finished";
      (match List.find_opt (fun w -> w.alive && w.held <> []) m.ws with
      | Some w -> answer m w (List.hd w.held) ~honest:true
      | None ->
        if List.exists (fun w -> w.alive) m.ws then fail "live workers hold nothing, jobs remain";
        step m ~honest_only:true Join);
      go (fuel - 1)
    end
  in
  go 1000

let finding_digests m =
  Hashtbl.fold (fun text () acc -> Digest.to_hex (Digest.string text) :: acc) m.stored []
  |> List.sort compare

let prop_sched_matches_model =
  QCheck2.Test.make ~name:"scheduler agrees with its model" ~count:1000 ~long_factor:100
    ~print:(fun (liars, cmds, split) ->
      Printf.sprintf "%s, checkpoint after %d: %s"
        (if liars then "forged results" else "honest")
        split
        (String.concat "; " (List.map cmd_to_string cmds)))
    QCheck2.Gen.(
      let cmd =
        frequency
          [
            (2, pure Join);
            (4, map (fun t -> Advance t) (int_range 1 6));
            (3, map (fun i -> Beat i) small_nat);
            (6, map3 (fun i k h -> Answer (i, k, h)) small_nat small_nat bool);
            (2, map2 (fun i k -> Refuse (i, k)) small_nat small_nat);
            (1, map (fun i -> Lose i) small_nat);
          ]
      in
      pair bool (list_size (int_range 0 60) cmd) >>= fun (liars, cmds) ->
      map (fun split -> (liars, cmds, split)) (int_range 0 (List.length cmds)))
    (fun (liars, cmds, split) ->
      let m = new_model None in
      apply m (Sched.start m.s);
      let ck = ref None in
      List.iteri
        (fun i c ->
          if i = split && not (Sched.over m.s) then ck := Some (Sched.checkpoint_of m.s);
          if not (Sched.over m.s) then step m ~honest_only:((not liars) || i >= split) c;
          if aborted m <> (Sched.failed m.s <> None) then
            fail "abort on the third refusal or loss expected: %b" (aborted m))
        cmds;
      if split = List.length cmds && not (Sched.over m.s) then
        ck := Some (Sched.checkpoint_of m.s);
      if not (aborted m) then begin
        complete m;
        let sum = Sched.summary m.s in
        let firsts = Array.to_list (Array.mapi (fun id j -> (id, Option.get j.first)) m.js) in
        if sum.Sched.digests <> firsts then fail "digests are not the first results";
        if (not liars)
           && firsts
              <> List.mapi (fun id r -> (id, r.Farm.digest))
                   (Array.to_list (Lazy.force model_direct))
        then fail "honest digests differ from a direct run";
        let flagged =
          List.filter (fun id -> m.js.(id).flagged) (List.init (Array.length m.js) Fun.id)
        in
        if sum.Sched.nondet <> flagged then fail "nondeterminism flags differ";
        if List.map fst sum.Sched.findings <> finding_digests m then fail "finding set differs";
        if sum.Sched.reassigned <> m.requeued then
          fail "%d jobs reassigned, the model requeued %d" sum.Sched.reassigned m.requeued;
        Option.iter
          (fun ck ->
            let m2 = new_model (Some ck) in
            apply m2 (Sched.start m2.s);
            complete m2;
            let sum2 = Sched.summary m2.s in
            if sum2.Sched.digests <> sum.Sched.digests then fail "resumed digests differ";
            if sum2.Sched.findings <> sum.Sched.findings then fail "resumed findings differ")
          !ck
      end;
      true)

let () =
  Alcotest.run "farm"
    [
      ( "spec",
        [
          Alcotest.test_case "round trip" `Quick test_spec_round_trip;
          Alcotest.test_case "garbage rejected" `Quick test_spec_rejects_garbage;
          Alcotest.test_case "jobs cover the seed range" `Quick
            test_spec_jobs_cover_the_range;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "run_units is deterministic" `Quick test_run_units_deterministic;
          Alcotest.test_case "run_units digests are pinned" `Quick test_run_units_golden;
        ] );
      ( "checkpoint",
        [ Alcotest.test_case "save/load round trip" `Quick test_checkpoint_round_trip ] );
      ( "campaign",
        [
          Alcotest.test_case "two workers match a direct run" `Quick
            test_two_worker_campaign_matches_direct;
          Alcotest.test_case "crash + resume matches uninterrupted" `Quick
            test_crash_resume_matches_uninterrupted;
          Alcotest.test_case "worker death loses no jobs" `Quick
            test_worker_death_loses_no_jobs;
          Alcotest.test_case "digest mismatch flags nondeterminism" `Quick
            test_duplicate_result_mismatch_flags_nondet;
          Alcotest.test_case "corrupt offers do not kill the worker" `Quick
            test_corrupt_offer_does_not_kill_worker;
          Alcotest.test_case "refused job is requeued" `Quick test_refused_job_is_requeued;
          Alcotest.test_case "repeated refusals abort the campaign" `Quick
            test_repeated_refusals_abort_campaign;
          Alcotest.test_case "invalid specs rejected before serving" `Quick
            test_invalid_specs_rejected_before_serving;
          Alcotest.test_case "silent peers cannot hang the run" `Quick
            test_silent_peer_does_not_hang;
          Alcotest.test_case "trickling peers cannot hold the loop" `Quick
            test_trickling_peer_is_dropped;
          Alcotest.test_case "a silent coordinator is redialed" `Quick
            test_silent_coordinator_is_redialed;
          Alcotest.test_case "long jobs heartbeat between units" `Quick
            test_long_job_heartbeats_between_units;
          Alcotest.test_case "a unit past the timeout ends the run" `Quick
            test_overlong_unit_ends_the_campaign;
        ] );
      ("sched", [ QCheck_alcotest.to_alcotest prop_sched_matches_model ]);
    ]
