(* Command-line front end: run the bug suite, test a workload under a
   chosen tool, or walk through the paper's Fig. 7 trace. *)

open Cmdliner
open Pmtest_util
module Report = Pmtest_core.Report
module Pmtest = Pmtest_core.Pmtest
module Engine = Pmtest_core.Engine
module Pmemcheck = Pmtest_baseline.Pmemcheck
module Lint = Pmtest_lint.Lint
module Rule = Pmtest_lint.Rule
module Repair = Pmtest_repair.Repair
module Sink = Pmtest_trace.Sink
module Event = Pmtest_trace.Event
module Obs = Pmtest_obs.Obs
module Model = Pmtest_model.Model
module Interval = Pmtest_model.Interval
module Server = Pmtest_server.Server
module Client = Pmtest_client.Client
module Wire = Pmtest_wire.Wire
module Litmus = Pmtest_litmus.Litmus
module Suite = Pmtest_litmus.Suite
module Farm = Pmtest_farm.Farm
open Pmtest_bugdb
open Pmtest_workloads

(* --- bugs ------------------------------------------------------------------- *)

let run_bugs which verbose =
  let cases =
    match which with
    | `Table5 -> Catalog.synthetic
    | `Table6 -> Catalog.table6
    | `Extended -> Catalog.extended
    | `All -> Catalog.all
  in
  let detected = ref 0 and false_pos = ref 0 in
  let by_cat = Catalog.by_category cases in
  List.iter
    (fun (cat, cs) ->
      Fmt.pr "@.%s (%d cases)@." (Case.category_name cat) (List.length cs);
      List.iter
        (fun case ->
          let outcome = Case.execute case in
          if outcome.Case.detected then incr detected;
          if not outcome.Case.clean then incr false_pos;
          let mark = if outcome.Case.detected then "detected" else "MISSED " in
          Fmt.pr "  [%s] %-12s %s@." mark case.Case.id case.Case.description;
          if verbose then
            List.iter
              (fun d -> Fmt.pr "      %a@." Report.pp_diagnostic d)
              outcome.Case.report.Report.diagnostics)
        cs)
    by_cat;
  Fmt.pr "@.%d/%d bugs detected, %d false positives on the clean twins@." !detected
    (List.length cases) !false_pos;
  if !detected = List.length cases && !false_pos = 0 then 0 else 1

let which_arg =
  let table5 = Arg.info [ "table5" ] ~doc:"Only the 42 synthetic Table-5 cases." in
  let table6 = Arg.info [ "table6" ] ~doc:"Only the six real Table-6 bugs." in
  let extended =
    Arg.info [ "extended" ] ~doc:"Only the extended custom-CCS cases (pqueue, plog)."
  in
  Arg.(value (vflag `All [ (`Table5, table5); (`Table6, table6); (`Extended, extended) ]))

let verbose_arg = Arg.(value (flag (info [ "v"; "verbose" ] ~doc:"Print every diagnostic.")))

let bugs_cmd =
  Cmd.v
    (Cmd.info "bugs" ~doc:"Run the bug-injection suite (paper Tables 5 and 6).")
    Term.(const run_bugs $ which_arg $ verbose_arg)

(* --- workload ---------------------------------------------------------------- *)

type tool =
  | Tool_none
  | Tool_pmtest
  | Tool_pmemcheck
  | Tool_remote of { socket : string; model : Model.kind }
      (** Trace into a session on a running [pmtestd] ([attach]). *)

(* A tracing session for [tool] — in process or on a running daemon, one
   [Pmtest] session either way — and the daemon connection to close
   once it is finished. *)
let open_session ?(model = Model.X86) ~obs ~workers tool =
  match tool with
  | Tool_pmtest -> Ok (Some (Pmtest.init ~model ~workers ~obs (), None))
  | Tool_remote { socket; model } -> (
    let on_retry ~attempt ~delay err =
      Fmt.epr "attach: %s; retry %d in %.0f ms@.%!" err attempt (delay *. 1000.)
    in
    match Client.connect_retry ~model ~attempts:5 ~on_retry ~socket () with
    | Error m -> Error ("cannot attach: " ^ m)
    | Ok conn -> Ok (Some (Client.Session.make ~obs conn, Some conn)))
  | Tool_none | Tool_pmemcheck -> Ok None

let finish_session (s, conn) =
  let r = Pmtest.finish_result s in
  Option.iter Client.close conn;
  r

(* Tee: record every event a session sink sees, so [attach --record]
   can save the trace it just streamed. *)
let recording = ref None

let record_events () =
  let buf = Pmtest_util.Vec.create () in
  let m = Mutex.create () in
  recording := Some (buf, m);
  fun () -> Mutex.protect m (fun () -> Pmtest_util.Vec.to_array buf)

let tee_sink thread (sink : Sink.t) =
  match !recording with
  | None -> sink
  | Some (buf, m) ->
    {
      Sink.emit =
        (fun kind loc ->
          Mutex.protect m (fun () -> Pmtest_util.Vec.push buf (Event.make ~thread ~loc kind));
          sink.Sink.emit kind loc);
    }

(* Replay a recorded event stream through a session, chunked into
   sections of [section] entries, flushing the boundary event's thread —
   the same chunking for the in-process and the remote session, so an
   [attach --verify] comparison is over identical section streams. *)
let replay_session ~section s entries =
  let sinks = Hashtbl.create 8 in
  let sink thread =
    match Hashtbl.find_opt sinks thread with
    | Some k -> k
    | None ->
      let k = tee_sink thread (Pmtest.sink ~thread s) in
      Hashtbl.replace sinks thread k;
      k
  in
  Array.iteri
    (fun i (e : Event.t) ->
      (sink e.Event.thread).Sink.emit e.Event.kind e.Event.loc;
      if (i + 1) mod section = 0 then Pmtest.send_trace ~thread:e.Event.thread s)
    entries

(* Shared by [workload], [stat WORKLOAD] and [attach WORKLOAD]: run the
   named workload and return the tool's report, with [obs] threaded
   into every session. *)
let exec_workload ?(local_model = Model.X86) ~obs name tool ops threads workers seed =
  let finish_report = ref Report.empty in
  let with_session k =
    match open_session ~model:local_model ~obs ~workers tool with
    | Error _ as e -> e
    | Ok opened -> (
      match k (Option.map fst opened) with
      | Error _ as e -> e
      | Ok () -> (
        match Option.map finish_session opened with
        | None -> Ok ()
        | Some (Ok r) ->
          finish_report := r;
          Ok ()
        | Some (Error m) -> Error ("session failed: " ^ m)))
  in
  let send session thread = Option.iter (Pmtest.send_trace ~thread) session in
  let sink_for session thread =
    tee_sink thread
      (match session with Some s -> Pmtest.sink ~thread s | None -> Sink.null)
  in
  let run_kv_memcached client =
    with_session (fun session ->
        let mc = Memcached.create ~shards:threads ~sink_of:(sink_for session) () in
        let streams =
          Memcached.generate_streams ~client ~ops_per_client:(ops / threads) ~keys:4096 ~seed mc
        in
        Memcached.run mc ~on_section:(send session) ~streams;
        Memcached.check_consistent mc)
  in
  let run_redis () =
    match tool with
    | Tool_pmemcheck ->
      let pc = Pmemcheck.create ~size:(32 * 1024 * 1024) in
      let r = Redis.create ~sink:(tee_sink 0 (Pmemcheck.sink pc)) () in
      Redis.run r (Clients.redis_lru ~ops ~keys:16384 (Rng.create seed));
      finish_report := Pmemcheck.result pc;
      Redis.check_consistent r
    | Tool_pmtest | Tool_remote _ ->
      with_session (fun session ->
          let r = Redis.create ~sink:(sink_for session 0) () in
          let ops_arr = Clients.redis_lru ~ops ~keys:16384 (Rng.create seed) in
          Array.iteri
            (fun i op ->
              Redis.apply r op;
              if i mod 16 = 0 then send session 0)
            ops_arr;
          send session 0;
          Redis.check_consistent r)
    | Tool_none ->
      let r = Redis.create ~annotate:false ~sink:Sink.null () in
      Redis.run r (Clients.redis_lru ~ops ~keys:16384 (Rng.create seed));
      Redis.check_consistent r
  in
  let run_pmfs client =
    with_session (fun session ->
        let fs = Pmtest_pmfs.Fs.mkfs ~inodes:128 ~blocks:1024 ~sink:(sink_for session 0) () in
        Pmfs_app.run ~on_section:(fun () -> send session 0) fs (client (Rng.create seed));
        Pmtest_pmfs.Fs.check_consistent fs)
  in
  let result =
    match name with
    | "memcached-memslap" -> run_kv_memcached (fun ~ops ~keys rng -> Clients.memslap ~ops ~keys rng)
    | "memcached-ycsb" -> run_kv_memcached (fun ~ops ~keys rng -> Clients.ycsb ~ops ~keys rng)
    | "redis-lru" -> run_redis ()
    | "pmfs-filebench" -> run_pmfs (fun rng -> Clients.filebench ~ops ~files:32 rng)
    | "pmfs-oltp" -> run_pmfs (fun rng -> Clients.oltp ~ops ~tables:4 ~rows_per_table:64 rng)
    | "vacation" ->
      with_session (fun session ->
          let v = Vacation.create ~resources:64 ~sink:(sink_for session 0) () in
          Vacation.run v ~on_section:(fun () -> send session 0)
            (Vacation.client ~ops ~customers:256 ~resources:64 (Rng.create seed));
          Vacation.check_consistent v)
    | other -> Error (Printf.sprintf "unknown workload %S" other)
  in
  match result with Error e -> Error e | Ok () -> Ok !finish_report

let tool_name = function
  | Tool_none -> "none"
  | Tool_pmemcheck -> "pmemcheck"
  | Tool_pmtest -> "pmtest"
  | Tool_remote _ -> "remote"

let run_workload name tool ops threads workers seed profile =
  (match tool with
  | Tool_pmtest | Tool_remote _ -> ()
  | Tool_none | Tool_pmemcheck ->
    if profile then
      Fmt.epr "note: --profile instruments the pmtest pipeline; --tool %s collects nothing@."
        (tool_name tool));
  let obs = if profile then Obs.create () else Obs.disabled in
  match exec_workload ~obs name tool ops threads workers seed with
  | Error e ->
    Fmt.epr "workload failed: %s@." e;
    1
  | Ok report ->
    Fmt.pr "workload completed; store consistent.@.";
    (match tool with
    | Tool_none -> Fmt.pr "(no testing tool attached)@."
    | Tool_pmtest | Tool_pmemcheck | Tool_remote _ -> Fmt.pr "%a@." Report.pp report);
    if profile then Fmt.pr "@.%a@." Obs.pp (Obs.snapshot obs);
    if Report.has_fail report then 1 else 0

let workload_names =
  [ "memcached-memslap"; "memcached-ycsb"; "redis-lru"; "pmfs-filebench"; "pmfs-oltp"; "vacation" ]

let workload_cmd =
  let wname =
    Arg.(
      required
        (pos 0 (some (enum (List.map (fun n -> (n, n)) workload_names))) None
           (info [] ~docv:"WORKLOAD" ~doc:"One of: memcached-memslap, memcached-ycsb, redis-lru, pmfs-filebench, pmfs-oltp, vacation.")))
  in
  let tool =
    Arg.(
      value
        (opt (enum [ ("none", Tool_none); ("pmtest", Tool_pmtest); ("pmemcheck", Tool_pmemcheck) ])
           Tool_pmtest
           (info [ "tool" ] ~doc:"Testing tool to attach: none, pmtest or pmemcheck.")))
  in
  let profile =
    Common_args.profile
      ~doc:"Collect and print a pipeline profile (counters, worker utilization, latency histograms)."
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Run a WHISPER-style workload under a testing tool.")
    Term.(
      const run_workload $ wname $ tool
      $ Common_args.ops ()
      $ Common_args.threads
      $ Common_args.workers ()
      $ Common_args.seed ()
      $ profile)

(* --- record / check-trace ------------------------------------------------------ *)

(* Every recordable source runs under the x86 model; the two pmfs-*-bug
   drivers seed the auto-repair differentials with the real PMFS
   performance bugs (a surplus drain fence each). *)
let recordable_names =
  [ "redis-lru"; "pmfs-filebench"; "pmfs-oltp"; "pmfs-fsync-bug"; "pmfs-empty-tx-bug" ]

let record_workload name ops seed =
  let sink, recorded = Pmtest_trace.Serial.recording_sink () in
  let result =
    match name with
    | "redis-lru" ->
      let r = Redis.create ~sink () in
      Redis.run r (Clients.redis_lru ~ops ~keys:16384 (Rng.create seed));
      Redis.check_consistent r
    | "pmfs-filebench" ->
      let fs = Pmtest_pmfs.Fs.mkfs ~inodes:128 ~blocks:1024 ~sink () in
      Pmfs_app.run fs (Clients.filebench ~ops ~files:32 (Rng.create seed));
      Pmtest_pmfs.Fs.check_consistent fs
    | "pmfs-oltp" ->
      let fs = Pmtest_pmfs.Fs.mkfs ~inodes:128 ~blocks:1024 ~sink () in
      Pmfs_app.run fs (Clients.oltp ~ops ~tables:4 ~rows_per_table:64 (Rng.create seed));
      Pmtest_pmfs.Fs.check_consistent fs
    | "pmfs-fsync-bug" ->
      (* fsync.c:260 without the deliberate-drain annotation: everything
         is already durable after the write's commit, so both fsync
         fences drain nothing. *)
      let fs = Pmtest_pmfs.Fs.mkfs ~inodes:16 ~blocks:64 ~sink () in
      Pmtest_pmfs.Fs.set_fault fs (Some Pmtest_pmfs.Fs.Fsync_redundant_fence);
      Result.bind (Pmtest_pmfs.Fs.create fs "wal") (fun ino ->
          Result.bind
            (Pmtest_pmfs.Fs.write fs ~ino ~off:0 (String.make 192 'a'))
            (fun () ->
              Pmtest_pmfs.Fs.fsync fs ~ino;
              Pmtest_pmfs.Fs.fsync fs ~ino;
              Pmtest_pmfs.Fs.check_consistent fs))
    | "pmfs-empty-tx-bug" ->
      (* journal.c:633 without the empty-commit guard: an in-place
         overwrite journals no metadata, yet commit still fences — right
         after the data path's own drain at xips.c:208. *)
      let fs = Pmtest_pmfs.Fs.mkfs ~inodes:16 ~blocks:64 ~sink () in
      Pmtest_pmfs.Fs.set_fault fs (Some Pmtest_pmfs.Fs.Empty_tx_fence);
      Result.bind (Pmtest_pmfs.Fs.create fs "table") (fun ino ->
          Result.bind
            (Pmtest_pmfs.Fs.write fs ~ino ~off:0 (String.make 128 'a'))
            (fun () ->
              Result.bind
                (Pmtest_pmfs.Fs.write fs ~ino ~off:0 (String.make 128 'b'))
                (fun () -> Pmtest_pmfs.Fs.check_consistent fs)))
    | other -> Error (Printf.sprintf "workload %S cannot be recorded" other)
  in
  match result with Error e -> Error e | Ok () -> Ok (recorded ())

let run_record name ops seed output =
  match record_workload name ops seed with
  | Error e ->
    Fmt.epr "record failed: %s@." e;
    1
  | Ok entries ->
    Pmtest_trace.Serial.save_file ~header:[ "model: x86" ] output entries;
    Fmt.pr "recorded %d trace entries (%d PM operations) to %s@." (Array.length entries)
      (Pmtest_trace.Event.op_count entries) output;
    0

let record_cmd =
  let wname =
    Arg.(
      required
        (pos 0
           (some (enum (List.map (fun n -> (n, n)) recordable_names)))
           None
           (info [] ~docv:"WORKLOAD"
              ~doc:
                "redis-lru, pmfs-filebench, pmfs-oltp, or one of the seeded PMFS performance \
                 bugs: pmfs-fsync-bug, pmfs-empty-tx-bug.")))
  in
  let output = Arg.(value (opt string "trace.pmt" (info [ "o"; "output" ] ~doc:"Output file."))) in
  Cmd.v
    (Cmd.info "record" ~doc:"Run an annotated workload and save its trace to a file.")
    Term.(
      const run_record $ wname $ Common_args.ops ~default:1000 () $ Common_args.seed () $ output)

let run_check_trace file model profile =
  match Pmtest_trace.Serial.load_file file with
  | Error e ->
    Fmt.epr "cannot load %s: %s@." file e;
    2
  | Ok entries ->
    let obs = if profile then Obs.create () else Obs.disabled in
    (* The whole file is one section through the synchronous path. *)
    let report =
      Obs.sync_section obs ~seq:0 ~entries:(Array.length entries) (fun () ->
          Engine.check ~obs ~model entries)
    in
    Fmt.pr "%a@." Report.pp_summary report;
    if profile then Fmt.pr "@.%a@." Obs.pp (Obs.snapshot obs);
    if Report.has_fail report then 1 else 0

let check_trace_cmd =
  let file = Arg.(required (pos 0 (some file) None (info [] ~docv:"TRACE"))) in
  Cmd.v
    (Cmd.info "check-trace" ~doc:"Check a previously recorded trace file offline.")
    Term.(
      const run_check_trace $ file
      $ Common_args.model ()
      $ Common_args.profile ~doc:"Print a pipeline profile of the checking pass.")

(* --- lint -------------------------------------------------------------------- *)

(* Lint every catalog case from its raw op stream, checkers stripped:
   the validation mode behind the "checker-free" claim. *)
let run_lint_bugdb rules =
  Fmt.pr "%-14s %-10s %-40s %s@." "case" "expected" "lint findings (buggy)" "clean twin";
  List.iter
    (fun case ->
      let lint trace = Lint.run ~rules (Lint.strip_checkers trace) in
      let buggy = lint (Case.trace case) in
      let clean = lint (Case.trace_clean case) in
      let fired =
        List.sort_uniq compare (List.map (fun f -> Rule.id f.Lint.rule) buggy.Lint.findings)
      in
      Fmt.pr "%-14s %-10s %-40s %s@." case.Case.id
        (Report.kind_string case.Case.expected)
        (match fired with [] -> "-" | ids -> String.concat "," ids)
        (match clean.Lint.findings with
        | [] -> "clean"
        | fs ->
          String.concat "; "
            (List.map
               (fun f -> Printf.sprintf "%s@%s" (Rule.id f.Lint.rule) (Loc.to_string f.Lint.loc))
               fs)))
    Catalog.all;
  0

let run_lint file bugdb model rules_spec machine verbose =
  if rules_spec = "help" then begin
    print_endline (Rule.help ());
    0
  end
  else
  match Rule.of_spec rules_spec with
  | Error e ->
    Fmt.epr "--rules: %s@." e;
    2
  | Ok rules -> (
    if bugdb then run_lint_bugdb rules
    else
      match file with
      | None ->
        Fmt.epr "a TRACE file is required (or use --bugdb)@.";
        2
      | Some file -> (
        match Pmtest_trace.Serial.load_file file with
        | Error e ->
          Fmt.epr "cannot load %s: %s@." file e;
          2
        | Ok entries ->
          let result = Lint.run ~model ~rules entries in
          if machine then List.iter print_endline (Lint.machine_lines result)
          else if verbose then Fmt.pr "%a@." Lint.pp result
          else Fmt.pr "%a@." Report.pp_summary (Lint.report_of result);
          if Lint.has_fail result then 1 else 0))

let rules_arg =
  Arg.(
    value
      (opt string "default"
         (info [ "rules" ]
            ~doc:
              "Rule selection: $(b,all), $(b,none), $(b,default), a comma-separated list of \
               rule names (only those), $(b,+rule)/$(b,-rule) tweaks to the default set, or \
               $(b,help) to list every rule with its description.")))

let lint_cmd =
  let file = Arg.(value (pos 0 (some file) None (info [] ~docv:"TRACE"))) in
  let bugdb =
    Arg.(
      value
        (flag
           (info [ "bugdb" ]
              ~doc:
                "Instead of a trace file, lint every bug-catalog case from its raw op stream \
                 (checkers stripped) and tabulate which rules fire.")))
  in
  let rules = rules_arg in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically lint a recorded trace: no checkers needed, fix-it suggestions included.")
    Term.(
      const run_lint $ file $ bugdb
      $ Common_args.model ()
      $ rules
      $ Common_args.machine ~doc:"Machine-readable output: one tab-separated finding per line."
      $ Common_args.verbose ~doc:"Print every finding with its fix-it.")

(* --- repair ------------------------------------------------------------------- *)

let model_name = Model.kind_name

let header_model headers =
  List.find_map
    (fun h ->
      match String.index_opt h ':' with
      | Some i when String.trim (String.sub h 0 i) = "model" ->
        Model.kind_of_string (String.trim (String.sub h (i + 1) (String.length h - i - 1)))
      | _ -> None)
    headers

(* SOURCE resolves like [stat]: a recordable workload (run live, then
   repaired from its recorded trace), an existing trace file, or a
   bug-catalog case id. *)
let resolve_repair_source source model_opt ops seed =
  if List.mem source recordable_names then
    match record_workload source ops seed with
    | Error e -> Error e
    | Ok entries -> Ok (entries, Option.value model_opt ~default:Model.X86, false)
  else if Sys.file_exists source then
    match Pmtest_trace.Serial.load_file_with_header source with
    | Error e -> Error (Printf.sprintf "cannot load %s: %s" source e)
    | Ok (headers, entries) ->
      let model =
        match model_opt with
        | Some m -> m
        | None -> Option.value (header_model headers) ~default:Model.X86
      in
      Ok (entries, model, true)
  else
    match List.find_opt (fun c -> c.Case.id = source) Catalog.all with
    | Some case -> Ok (Case.trace case, Option.value model_opt ~default:Model.X86, false)
    | None ->
      Error
        (Printf.sprintf
           "%S is neither a recordable workload, an existing trace file nor a bug-catalog case \
            id"
           source)

let run_repair source model_opt rules_spec ops seed max_rounds diff machine verify in_place
    output profile =
  if rules_spec = "help" then begin
    print_endline (Rule.help ());
    0
  end
  else
    match Rule.of_spec rules_spec with
    | Error e ->
      Fmt.epr "--rules: %s@." e;
      2
    | Ok rules -> (
      match
        match source with
        | None -> Error "a SOURCE is required (or use --rules help)"
        | Some source -> resolve_repair_source source model_opt ops seed
      with
      | Error e ->
        Fmt.epr "repair: %s@." e;
        2
      | Ok (_, _, false) when in_place ->
        Fmt.epr "repair: --in-place needs SOURCE to be a trace file@.";
        2
      | Ok (entries, model, _is_file) ->
        let obs = if profile then Obs.create () else Obs.disabled in
        let o = Repair.fixpoint ~obs ~model ~rules ~max_rounds entries in
        if machine then List.iter print_endline (Repair.machine_lines o)
        else begin
          Fmt.pr "%a@." Repair.pp_outcome o;
          if diff && Repair.edits_applied o > 0 then
            Fmt.pr "@.%a@."
              (fun ppf () -> Repair.pp_diff ppf ~original:entries ~repaired:o.Repair.repaired)
              ()
        end;
        let problems =
          if not verify then []
          else begin
            let ps = Repair.verify_static ~obs ~model ~rules ~original:entries o in
            List.iter (fun p -> Fmt.epr "verify: %s@." p) ps;
            if ps = [] && not machine then
              Fmt.pr
                "verify: repair proven (repaired trace lints clean, plan is idempotent, engine \
                 differential holds)@.";
            ps
          end
        in
        let dest =
          match output with Some p -> Some p | None when in_place -> source | None -> None
        in
        (match dest with
        | None -> ()
        | Some path ->
          Pmtest_trace.Serial.save_file
            ~header:[ "model: " ^ model_name model ]
            path o.Repair.repaired;
          if not machine then
            Fmt.pr "wrote repaired trace (%d entries) to %s@."
              (Array.length o.Repair.repaired)
              path);
        if profile then Fmt.pr "@.%a@." Obs.pp (Obs.snapshot obs);
        if (not o.Repair.converged) || problems <> [] then 1 else 0)

let repair_cmd =
  let source =
    Arg.(
      value
        (pos 0 (some string) None
           (info [] ~docv:"SOURCE"
              ~doc:
                "What to repair: a recordable workload name (run live, repaired from its \
                 recorded trace), a recorded $(b,.pmt) trace file, or a bug-catalog case id.")))
  in
  let model =
    Common_args.model_opt
      ~doc:
        "Persistency model (default: the file's $(b,model:) header, else x86)."
  in
  let max_rounds =
    Arg.(
      value
        (opt int Repair.default_max_rounds
           (info [ "max-rounds" ] ~doc:"Fixed-point iteration bound.")))
  in
  let diff =
    Arg.(
      value
        (flag
           (info [ "diff" ]
              ~doc:"Print a unified line diff of the original and repaired traces.")))
  in
  let verify =
    Arg.(
      value
        (flag
           (info [ "verify" ]
              ~doc:
                "Prove the repair: the repaired trace must lint clean for every repairable \
                 rule, the plan over it must be empty, and the dynamic engine (boxed and \
                 packed) must agree no diagnostic got worse. Non-zero exit if any obligation \
                 fails.")))
  in
  let in_place =
    Arg.(
      value
        (flag
           (info [ "in-place" ]
              ~doc:"Rewrite the SOURCE trace file with the repaired trace (atomic replace).")))
  in
  let output =
    Arg.(
      value
        (opt (some string) None
           (info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the repaired trace to $(docv).")))
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Auto-repair a trace: delete redundant fences and surplus writebacks, insert missing \
          ones, iterate to a fixed point, and optionally prove the result against the dynamic \
          engine.")
    Term.(
      const run_repair $ source $ model $ rules_arg
      $ Common_args.ops ~doc:"Operations (workload sources)." ~default:1000 ()
      $ Common_args.seed ()
      $ max_rounds $ diff
      $ Common_args.machine
          ~doc:"Machine-readable output: one tab-separated edit per line (round, index, rule, fixit)."
      $ verify $ in_place $ output
      $ Common_args.profile ~doc:"Print the repair counters and timings after the outcome.")

(* --- fuzz -------------------------------------------------------------------- *)

module Campaign = Pmtest_fuzz.Campaign
module Cross = Pmtest_fuzz.Cross
module Repro = Pmtest_fuzz.Repro
module Mutate = Pmtest_fuzz.Mutate


let replay_corpus dir failures =
  match Repro.load_dir dir with
  | Error e ->
    Fmt.epr "corpus %s: %s@." dir e;
    incr failures
  | Ok [] -> ()
  | Ok cases ->
    Fmt.pr "replaying %d corpus case(s) from %s@." (List.length cases) dir;
    List.iter
      (fun c ->
        match Repro.replay c with
        | Ok () -> Fmt.pr "  ok   %s@." c.Repro.name
        | Error e ->
          incr failures;
          Fmt.pr "  FAIL %s: %s@." c.Repro.name e)
      cases

let run_fuzz_mutate failures =
  let seeded = Mutate.seed_catalog () in
  Fmt.pr "@.mutation mode: %d mutant(s) seeded from the bug catalog's clean twins@."
    (List.length seeded);
  List.iter
    (fun sd ->
      let o = Mutate.check sd in
      if o.Mutate.missed = [] then
        Fmt.pr "  [caught] %-14s %-12s all %d claim(s) flagged; shrunk to %d event(s)@."
          sd.Mutate.case_id
          (Mutate.kind_name sd.Mutate.mutation)
          (List.length sd.Mutate.claims)
          (Array.length o.Mutate.shrunk)
      else begin
        incr failures;
        List.iter
          (fun cl ->
            Fmt.pr "  [MISSED] %-14s %-12s %s no longer reports %s@." sd.Mutate.case_id
              (Mutate.kind_name sd.Mutate.mutation)
              (Repro.tool_name cl.Mutate.tool)
              (Report.kind_string cl.Mutate.diag))
          o.Mutate.missed
      end)
    seeded

let run_fuzz_campaign models count seed max_ops corpus progress profile failures =
  List.iter
    (fun model ->
      let spec = Farm.Spec.fuzz ?max_ops ~model ~seed ~count ~chunk:1 () in
      Fmt.pr "@.== %s: %d program(s), base seed %d ==@." (model_name model) count seed;
      let on_program i =
        if progress && i > 0 && i mod 1000 = 0 then Fmt.pr "  ... %d@.%!" i
      in
      let obs = if profile then Obs.create () else Obs.disabled in
      let stats = Campaign.run ~obs ~on_program (Farm.Spec.campaign_cfg spec) in
      Fmt.pr "%a@." Campaign.pp_stats stats;
      if profile then Fmt.pr "@.%a@." Obs.pp (Obs.snapshot obs);
      List.iter
        (fun f ->
          incr failures;
          let case = Repro.of_finding f in
          let shrunk = case.Repro.program in
          Fmt.pr "@.-- disagreement: model %s, seed %d, pair %s --@.%s@.@.serial trace:@.%s@.OCaml repro:@.%s@."
            (model_name model) f.Campaign.found_seed
            (Cross.pair_name f.Campaign.pair)
            f.Campaign.detail (Repro.serial_text shrunk) (Repro.ocaml_snippet shrunk);
          Option.iter
            (fun dir -> Fmt.pr "saved regression case to %s@." (Repro.save ~dir case))
            corpus)
        stats.Campaign.findings)
    models

let run_fuzz models count seed max_ops mutate corpus progress profile =
  let failures = ref 0 in
  (match corpus with None -> () | Some dir -> replay_corpus dir failures);
  if mutate then run_fuzz_mutate failures
  else run_fuzz_campaign models count seed max_ops corpus progress profile failures;
  if !failures = 0 then begin
    Fmt.pr "@.fuzz: OK@.";
    0
  end
  else begin
    Fmt.pr "@.fuzz: %d failure(s)@." !failures;
    1
  end

let fuzz_cmd =
  let count = Arg.(value (opt int 1000 (info [ "count" ] ~doc:"Programs per model."))) in
  let seed = Common_args.seed ~default:0 ~doc:"Base seed; program $(i,i) uses seed+$(i,i)." () in
  let max_ops =
    Arg.(
      value
        (opt (some int) None
           (info [ "max-ops" ] ~doc:"Cap the operations per generated program.")))
  in
  let mutate =
    Arg.(
      value
        (flag
           (info [ "mutate" ]
              ~doc:
                "Mutation mode: seed known-bad edits (dropped writebacks, swapped fences, \
                 widened stores, dropped undo-log backups) into the bug catalog's clean twins \
                 and assert every tool claiming that bug class still catches it.")))
  in
  let corpus =
    Arg.(
      value
        (opt (some string) None
           (info [ "corpus" ] ~docv:"DIR"
              ~doc:
                "Replay this regression corpus before fuzzing and save newly shrunk \
                 counterexamples into it.")))
  in
  let progress =
    Arg.(value (flag (info [ "progress" ] ~doc:"Print a progress line every 1000 programs.")))
  in
  let profile =
    Common_args.profile
      ~doc:"Print a per-model campaign throughput profile (one section per program)."
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate random annotated PM programs, replay them through \
          every checker, cross-check verdicts, and shrink any disagreement to a minimal \
          reproducer.")
    Term.(
      const run_fuzz $ Common_args.models $ count $ seed $ max_ops $ mutate $ corpus $ progress
      $ profile)

(* --- crashfs ----------------------------------------------------------------- *)

module Crashfs = Pmtest_crashfs.Crashfs

let replay_crashfs_corpus dir fses failures =
  match Crashfs.Repro.load_dir dir with
  | Error e ->
    Fmt.epr "corpus %s: %s@." dir e;
    incr failures
  | Ok all -> (
    match List.filter (fun c -> List.mem c.Crashfs.Repro.fs fses) all with
    | [] -> ()
    | cases ->
      Fmt.pr "replaying %d crashfs corpus case(s) from %s@." (List.length cases) dir;
      List.iter
        (fun c ->
          match Crashfs.Repro.replay c with
          | Ok _ -> Fmt.pr "  ok   %s@." c.Crashfs.Repro.name
          | Error e ->
            incr failures;
            Fmt.pr "  FAIL %s@." e)
        cases)

let run_crashfs fses model count seed max_ops fault corpus progress =
  let failures = ref 0 in
  (match corpus with None -> () | Some dir -> replay_crashfs_corpus dir fses failures);
  List.iter
    (fun fs ->
      let spec = Farm.Spec.crashfs ?max_ops ?fault ~fs ~model ~seed ~count ~chunk:1 () in
      match Farm.Spec.crashfs_config spec with
      | Error e ->
        Fmt.epr "%s@." e;
        incr failures
      | Ok config ->
        Fmt.pr "@.== crashfs %s, model %s%s: %d run(s), base seed %d ==@."
          (Crashfs.fs_kind_name fs) (Model.kind_name model)
          (match Crashfs.fault_name config with
          | Some f -> Printf.sprintf ", fault %s" f
          | None -> "")
          count seed;
        let on_run i = if progress && i mod 50 = 0 then Fmt.pr "  ... %d@.%!" i in
        let c = Crashfs.run_campaign config ~count ~seed ~progress:on_run () in
        Fmt.pr "%a@." Crashfs.pp_summary c;
        List.iter
          (fun f ->
            incr failures;
            Option.iter
              (fun dir ->
                let path = Crashfs.Repro.save ~dir (Crashfs.Repro.of_finding config f) in
                Fmt.pr "saved crashfs case to %s@." path)
              corpus)
          c.Crashfs.findings)
    fses;
  if !failures = 0 then begin
    Fmt.pr "@.crashfs: OK@.";
    0
  end
  else begin
    Fmt.pr "@.crashfs: %d failure(s)@." !failures;
    1
  end

let crashfs_cmd =
  let fses =
    Arg.(
      value
        (opt
           (enum
              [
                ("pmfs", [ Crashfs.Pmfs ]);
                ("nova", [ Crashfs.Nova ]);
                ("both", [ Crashfs.Pmfs; Crashfs.Nova ]);
              ])
           [ Crashfs.Pmfs; Crashfs.Nova ]
           (info [ "fs" ] ~doc:"File system(s) to explore: pmfs, nova or both.")))
  in
  let model =
    Arg.(
      value
        (opt
           (enum [ ("x86", Model.X86); ("hops", Model.Hops); ("eadr", Model.Eadr) ])
           Model.X86
           (info [ "model" ]
              ~doc:
                "Persistency model for crash-image enumeration: x86, hops or eadr (cxl \
                 programs are gpf-based and covered by the crashtest suite).")))
  in
  let count = Arg.(value (opt int 100 (info [ "count" ] ~doc:"Workloads per file system."))) in
  let seed = Common_args.seed ~default:0 ~doc:"Base seed; run $(i,i) uses seed+$(i,i)." () in
  let max_ops =
    Arg.(
      value
        (opt (some int) None (info [ "max-ops" ] ~doc:"Cap the operations per workload.")))
  in
  let fault =
    Arg.(
      value
        (opt (some string) None
           (info [ "fault" ] ~docv:"NAME"
              ~doc:
                "Seed a known fault into the file system under test (sanity-checks the \
                 harness catches it): pmfs takes journal-double-flush, data-double-flush, \
                 flush-unmapped, skip-journal-flush, skip-commit-fence, \
                 fsync-redundant-fence, empty-tx-fence, alloc-no-zero; nova takes \
                 skip-data-persist, skip-entry-persist, skip-tail-persist, \
                 valid-before-init.")))
  in
  let corpus =
    Arg.(
      value
        (opt (some string) None
           (info [ "corpus" ] ~docv:"DIR"
              ~doc:
                "Replay this crashfs regression corpus first and save newly shrunk failing \
                 workloads into it.")))
  in
  let progress =
    Arg.(value (flag (info [ "progress" ] ~doc:"Print a progress line every 50 runs.")))
  in
  Cmd.v
    (Cmd.info "crashfs"
       ~doc:
         "Systematic crash-state exploration for the PM file systems: run seeded syscall \
          workloads against PMFS/NOVA, snapshot the reachable durable images at every \
          persist boundary (epoch-equivalent boundaries and duplicate images are pruned), \
          remount each distinct image and check recovery against fsck-style invariants and \
          a committed-operation oracle; failing workloads shrink to minimal reproducers.")
    Term.(
      const run_crashfs $ fses $ model $ count $ seed $ max_ops $ fault $ corpus $ progress)

(* --- litmus ------------------------------------------------------------------ *)

let run_litmus all models list_only name verbose =
  let models = if all then Model.all_kinds else models in
  let tests =
    match name with
    | Some n -> (
      match Suite.find n with
      | Some t -> Ok [ t ]
      | None ->
        Error
          (Printf.sprintf "unknown litmus test %S (see pmtest-cli litmus --list)" n))
    | None -> Ok (List.filter (fun (t : Litmus.t) -> List.mem t.Litmus.model models) Suite.all)
  in
  match tests with
  | Error e ->
    Fmt.epr "%s@." e;
    1
  | Ok tests ->
    if list_only then begin
      List.iter
        (fun (t : Litmus.t) ->
          Fmt.pr "%-28s %-5s %s@." t.Litmus.name (Model.kind_name t.Litmus.model) t.Litmus.doc)
        tests;
      0
    end
    else begin
      let failures = ref 0 in
      List.iter
        (fun (t : Litmus.t) ->
          let o = Litmus.run_test t in
          if Litmus.passed o then begin
            if verbose then Fmt.pr "ok   %-28s %s@." t.Litmus.name (Model.kind_name t.Litmus.model)
          end
          else begin
            incr failures;
            Fmt.pr "FAIL %-28s %s@." t.Litmus.name (Model.kind_name t.Litmus.model);
            List.iter
              (fun (f : Litmus.failure) -> Fmt.pr "     [%s] %s@." f.Litmus.leg f.Litmus.message)
              o.Litmus.failures
          end)
        tests;
      List.iter
        (fun kind ->
          let mine = List.filter (fun (t : Litmus.t) -> t.Litmus.model = kind) tests in
          if mine <> [] then
            Fmt.pr "%s: %d test(s) against engine+oracle+crashtest@." (Model.kind_name kind)
              (List.length mine))
        Model.all_kinds;
      if !failures = 0 then begin
        Fmt.pr "litmus: OK (%d tests)@." (List.length tests);
        0
      end
      else begin
        Fmt.pr "litmus: %d failure(s)@." !failures;
        1
      end
    end

let litmus_cmd =
  let all =
    Arg.(
      value
        (flag
           (info [ "all" ]
              ~doc:"Run the whole suite across every persistency model (the CI gate).")))
  in
  let list_only =
    Arg.(value (flag (info [ "list" ] ~doc:"List the selected tests instead of running them.")))
  in
  let only =
    Arg.(
      value
        (opt (some string) None
           (info [ "test" ] ~docv:"NAME" ~doc:"Run a single suite entry by name.")))
  in
  let verbose = Common_args.verbose ~doc:"Print a line for passing tests too." in
  Cmd.v
    (Cmd.info "litmus"
       ~doc:
         "Run the axiomatic litmus suite: small programs with allowed/forbidden post-crash \
          states, each validated against the engine, the crash-state oracle and the \
          crash-injection harness simultaneously.")
    Term.(const run_litmus $ all $ Common_args.models $ list_only $ only $ verbose)

(* --- stat -------------------------------------------------------------------- *)

(* Replay a recorded trace through a live session, chunked into sections,
   so the whole pipeline — dispatch, worker pool, in-order merge — is
   exercised and profiled, not just the engine. *)
let replay_trace ~obs ~model ~workers ~section entries =
  let session = Pmtest.init ~model ~workers ~obs () in
  let threads = Hashtbl.create 8 in
  Array.iter (fun (e : Event.t) -> Hashtbl.replace threads e.Event.thread ()) entries;
  Hashtbl.iter (fun th () -> if th <> 0 then Pmtest.thread_init session ~thread:th) threads;
  Array.iteri
    (fun i (e : Event.t) ->
      Pmtest.emit ~thread:e.Event.thread ~loc:e.Event.loc session e.Event.kind;
      if (i + 1) mod section = 0 then Pmtest.send_trace ~thread:e.Event.thread session)
    entries;
  Pmtest.finish session

let run_stat source model_opt workers section ops threads seed machine json_out =
  let section = max 1 section in
  let obs = Obs.create () in
  let outcome =
    if List.mem source workload_names then
      exec_workload ~obs source Tool_pmtest ops threads workers seed
    else if Sys.file_exists source then
      match Pmtest_trace.Serial.load_file_with_header source with
      | Error e -> Error (Printf.sprintf "cannot load %s: %s" source e)
      | Ok (headers, entries) ->
        let model =
          match model_opt with
          | Some m -> m
          | None -> Option.value (header_model headers) ~default:Model.X86
        in
        Ok (replay_trace ~obs ~model ~workers ~section entries)
    else
      match List.find_opt (fun c -> c.Case.id = source) Catalog.all with
      | Some case ->
        let model = Option.value model_opt ~default:Model.X86 in
        Ok (replay_trace ~obs ~model ~workers ~section (Case.trace case))
      | None ->
        Error
          (Printf.sprintf
             "%S is neither a workload, an existing trace file nor a bug-catalog case id" source)
  in
  match outcome with
  | Error e ->
    Fmt.epr "stat: %s@." e;
    2
  | Ok report ->
    let snap = Obs.snapshot obs in
    (match json_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Obs.to_jsonl snap));
      Fmt.epr "wrote JSON-lines profile to %s@." path);
    if machine then print_string (Obs.to_tsv snap)
    else begin
      Fmt.pr "%a@.@." Report.pp_summary report;
      Fmt.pr "%a@." Obs.pp snap
    end;
    0

let stat_cmd =
  let source =
    Arg.(
      required
        (pos 0 (some string) None
           (info [] ~docv:"SOURCE"
              ~doc:
                "What to profile: a workload name (run live under the pmtest tool), a recorded \
                 $(b,.pmt) trace file, or a bug-catalog case id (both replayed through a live \
                 session).")))
  in
  let model =
    Common_args.model_opt
      ~doc:
        "Persistency model for replayed traces (default: the file's $(b,model:) header, else \
         x86)."
  in
  let machine =
    Common_args.machine
      ~doc:
        "Machine-readable profile: TSV on stdout, round-trippable through the observability \
         parser."
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "Profile the checking pipeline: counters, per-worker utilization, queue and reorder \
          high-water marks, check and end-to-end latency histograms.")
    Term.(
      const run_stat $ source $ model
      $ Common_args.workers ()
      $ Common_args.section ()
      $ Common_args.ops ~doc:"Operations (workload sources)." ()
      $ Common_args.threads
      $ Common_args.seed ()
      $ machine $ Common_args.json)

(* --- serve / attach ----------------------------------------------------------- *)

let run_serve socket shards workers max_sessions max_inflight idle_timeout policy profile =
  let obs = if profile then Obs.create () else Obs.disabled in
  let cfg = { Server.socket; shards; workers; max_sessions; max_inflight; idle_timeout; policy } in
  (* Block the termination signals before the daemon spawns any thread
     (they inherit the mask), then park in [wait_signal]: SIGTERM and
     SIGINT become a graceful drain instead of a process kill. *)
  let signals = [ Sys.sigterm; Sys.sigint ] in
  ignore (Thread.sigmask SIG_BLOCK signals);
  match Server.start ~obs cfg with
  | exception Unix.Unix_error (err, _, _) ->
    Fmt.epr "pmtestd: cannot listen on %s: %s@." socket (Unix.error_message err);
    2
  | t ->
    Fmt.pr "pmtestd: listening on %s (%d shard(s) x %d worker(s), %d max session(s), %s policy)@.%!"
      socket (Server.shard_count t) workers max_sessions (Wire.policy_name policy);
    let s = Thread.wait_signal signals in
    Fmt.pr "pmtestd: %s received, draining %d active session(s)@.%!"
      (if s = Sys.sigterm then "SIGTERM" else "SIGINT")
      (Server.active_sessions t);
    Server.stop t;
    if profile then Fmt.pr "@.%a@." Obs.pp (Obs.snapshot obs);
    Fmt.pr "pmtestd: drained, bye@.";
    0

let serve_cmd =
  let shards =
    Arg.(
      value
        (opt int Server.default_config.Server.shards
           (info [ "shards" ]
              ~doc:
                "Independent execution shards; each owns its worker domains, arena freelist \
                 and session loop, and shard 0 pins each new session to the least-loaded \
                 shard.")))
  in
  let max_sessions =
    Arg.(
      value
        (opt int Server.default_config.Server.max_sessions
           (info [ "max-sessions" ] ~doc:"Concurrent client sessions admitted.")))
  in
  let max_inflight =
    Arg.(
      value
        (opt int Server.default_config.Server.max_inflight
           (info [ "max-inflight" ]
              ~doc:"Per-session bound on dispatched-but-unmerged sections.")))
  in
  let idle_timeout =
    Arg.(
      value
        (opt float Server.default_config.Server.idle_timeout
           (info [ "idle-timeout" ] ~docv:"SECONDS"
              ~doc:"Disconnect a session silent for this long; 0 disables the timeout.")))
  in
  let policy =
    Arg.(
      value
        (opt
           (enum [ ("block", Wire.Block); ("shed", Wire.Shed) ])
           Wire.Block
           (info [ "policy" ]
              ~doc:
                "Backpressure when a session exceeds --max-inflight: $(b,block) stops reading \
                 the session's socket (the client's sends stall), $(b,shed) drops the section \
                 and counts it.")))
  in
  let profile =
    Common_args.profile ~doc:"Print the service profile (sessions, frames, latency) on exit."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run pmtestd: a checking daemon accepting concurrent client sessions over a Unix \
          domain socket.  SIGTERM/SIGINT drain active sessions before exit.")
    Term.(
      const run_serve
      $ Common_args.socket ()
      $ shards
      $ Common_args.workers ~default:2 ~doc:"Checking worker domains (per shard)." ()
      $ max_sessions $ max_inflight $ idle_timeout $ policy $ profile)

let run_attach source socket model_opt section ops threads seed record verify profile =
  let section = max 1 section in
  let obs = if profile then Obs.create () else Obs.disabled in
  let recorded = Option.map (fun path -> (path, record_events ())) record in
  let is_workload = List.mem source workload_names in
  (* Model: --model wins, else a trace file's [model:] header, else x86. *)
  let model =
    match model_opt with
    | Some m -> m
    | None when (not is_workload) && Sys.file_exists source -> (
      match Pmtest_trace.Serial.load_file_with_header source with
      | Ok (headers, _) -> Option.value (header_model headers) ~default:Model.X86
      | Error _ -> Model.X86)
    | None -> Model.X86
  in
  let run_under tool =
    if is_workload then exec_workload ~local_model:model ~obs source tool ops threads 1 seed
    else
      let entries =
        if Sys.file_exists source then
          match Pmtest_trace.Serial.load_file_with_header source with
          | Error e -> Error (Printf.sprintf "cannot load %s: %s" source e)
          | Ok (_, entries) -> Ok entries
        else
          match List.find_opt (fun c -> c.Case.id = source) Catalog.all with
          | Some case -> Ok (Case.trace case)
          | None ->
            Error
              (Printf.sprintf
                 "%S is neither a workload, an existing trace file nor a bug-catalog case id"
                 source)
      in
      match entries with
      | Error _ as e -> e
      | Ok entries -> (
        match open_session ~model ~obs ~workers:1 tool with
        | Error _ as e -> e
        | Ok None -> Error "no tracing session"
        | Ok (Some ((s, _) as opened)) ->
          replay_session ~section s entries;
          finish_session opened)
  in
  match run_under (Tool_remote { socket; model }) with
  | Error e ->
    Fmt.epr "attach: %s@." e;
    2
  | Ok remote_report ->
    (* Stop teeing before any verify re-run: the file must hold exactly
       the stream the daemon saw, once. *)
    (match recorded with
    | None -> ()
    | Some (path, take) ->
      recording := None;
      let entries = take () in
      Pmtest_trace.Serial.save_file
        ~header:[ "model: " ^ model_name model ]
        path entries;
      Fmt.pr "recorded %d trace entries to %s@." (Array.length entries) path);
    recording := None;
    Fmt.pr "%a@." Report.pp remote_report;
    if profile then Fmt.pr "@.%a@." Obs.pp (Obs.snapshot obs);
    let rc = if Report.has_fail remote_report then 1 else 0 in
    if not verify then rc
    else begin
      match run_under Tool_pmtest with
      | Error e ->
        Fmt.epr "attach --verify: in-process run failed: %s@." e;
        2
      | Ok local_report ->
        let render r = Fmt.str "%a" Report.pp r in
        if render remote_report = render local_report then begin
          Fmt.pr "verify: remote and in-process reports are identical@.";
          rc
        end
        else begin
          Fmt.epr "verify: reports DIFFER@.-- remote --@.%s@.-- in-process --@.%s@."
            (render remote_report) (render local_report);
          1
        end
    end

let attach_cmd =
  let source =
    Arg.(
      required
        (pos 0 (some string) None
           (info [] ~docv:"SOURCE"
              ~doc:
                "What to run against the daemon: a workload name, a recorded $(b,.pmt) trace \
                 file, or a bug-catalog case id.")))
  in
  let model =
    Common_args.model_opt
      ~doc:
        "Persistency model for the remote session (default: the file's $(b,model:) header, \
         else x86)."
  in
  let record =
    Arg.(
      value
        (opt (some string) None
           (info [ "record" ] ~docv:"FILE"
              ~doc:"Also save the streamed trace to $(docv) (atomic write).")))
  in
  let verify =
    Arg.(
      value
        (flag
           (info [ "verify" ]
              ~doc:
                "Re-run the same source through an in-process session and fail unless the two \
                 reports are identical.")))
  in
  let profile =
    Common_args.profile ~doc:"Print the client-side pipeline profile after the report."
  in
  Cmd.v
    (Cmd.info "attach"
       ~doc:
         "Run a workload, trace file or bug-catalog case against a running pmtestd and print \
          the daemon's report.")
    Term.(
      const run_attach $ source
      $ Common_args.socket ()
      $ model
      $ Common_args.section ()
      $ Common_args.ops ~doc:"Operations (workload sources)." ()
      $ Common_args.threads
      $ Common_args.seed ()
      $ record $ verify $ profile)

(* --- farm -------------------------------------------------------------------- *)

(* A flag the campaign kind has no use for is refused in
   [Spec.of_string]'s words, not dropped. *)
(* [model] and [seed] are [None] unless given: a litmus campaign runs
   the fixed suite, so only an explicit flag can disagree with it. *)
(* [model] and [seed] are [None] unless given on the command line: a
   litmus campaign runs the fixed suite, so it refuses either flag. *)
let farm_spec campaign model fs fault seed count chunk max_ops =
  let kind = match campaign with `Fuzz -> "fuzz" | `Crashfs -> "crashfs" | `Litmus -> "litmus" in
  let stray flag = Error (Printf.sprintf "%s only applies to crashfs campaigns, not %s" flag kind) in
  let fixed flag = Error (Printf.sprintf "%s does not apply to litmus campaigns" flag) in
  let model_or_x86 = Option.value model ~default:Model.X86 in
  let seed_or_0 = Option.value seed ~default:0 in
  match (campaign, fs, fault, max_ops) with
  | (`Fuzz | `Litmus), Some _, _, _ -> stray "fs"
  | (`Fuzz | `Litmus), _, Some _, _ -> stray "fault"
  | `Litmus, _, _, Some _ -> Error "max-ops only applies to fuzz and crashfs campaigns, not litmus"
  | `Litmus, _, _, _ when model <> None -> fixed "model"
  | `Litmus, _, _, _ when seed <> None -> fixed "seed"
  | `Litmus, _, _, _ -> Ok (Farm.Spec.litmus ~chunk ())
  | `Fuzz, _, _, _ ->
    Ok (Farm.Spec.fuzz ?max_ops ~model:model_or_x86 ~seed:seed_or_0 ~count ~chunk ())
  | `Crashfs, _, _, _ ->
    let fs = Option.value fs ~default:Crashfs.Pmfs in
    Ok
      (Farm.Spec.crashfs ?max_ops ?fault ~fs ~model:model_or_x86 ~seed:seed_or_0 ~count ~chunk
         ())

let run_farm_serve resume socket dir campaign model fs fault seed count chunk max_ops capacity
    heartbeat_timeout steal_after stop_after profile =
  (* On resume the checkpoint is the source of truth for the campaign:
     reading the spec back from disk means `farm resume --dir D` needs no
     campaign flags and can never mismatch what it is resuming. *)
  let resumed_spec =
    if not resume then None
    else
      match Farm.Checkpoint.load (Filename.concat dir "checkpoint") with
      | Ok ck -> Some ck.Farm.Checkpoint.spec
      | Error _ -> None
  in
  match (resume, resumed_spec) with
  | true, None ->
    Fmt.epr "pmfarm: nothing to resume: no readable checkpoint in %s@." dir;
    2
  | _ ->
  match
    match resumed_spec with
    | Some spec -> Ok spec
    | None -> farm_spec campaign model fs fault seed count chunk max_ops
  with
  | Error e ->
    Fmt.epr "pmfarm: %s@." e;
    2
  | Ok spec ->
  let obs = if profile then Obs.create () else Obs.disabled in
  let cfg =
    {
      (Farm.Coordinator.default_cfg ~spec ~socket ~dir) with
      Farm.Coordinator.resume;
      capacity;
      heartbeat_timeout;
      steal_after;
      stop_after_results = stop_after;
      obs;
    }
  in
  Fmt.pr "pmfarm: %s %s on %s (%d job(s), state in %s)@.%!"
    (if resume then "resuming" else "coordinating")
    (Farm.Spec.to_string spec) socket
    (List.length (Farm.Spec.jobs spec))
    dir;
  match Farm.Coordinator.run cfg with
  | Error e ->
    Fmt.epr "pmfarm: %s@." e;
    2
  | Ok s ->
    Fmt.pr "pmfarm: %d/%d job(s) done, %d finding(s), %d reassigned, %d steal(s), %d worker(s)%s@."
      s.Farm.Coordinator.jobs_done s.Farm.Coordinator.jobs
      (List.length s.Farm.Coordinator.findings)
      s.Farm.Coordinator.reassigned s.Farm.Coordinator.steals s.Farm.Coordinator.workers_seen
      (if s.Farm.Coordinator.nondet = [] then ""
       else
         Printf.sprintf ", NONDETERMINISTIC job(s) %s"
           (String.concat "," (List.map string_of_int s.Farm.Coordinator.nondet)));
    if profile then Fmt.pr "@.%a@." Obs.pp (Obs.snapshot obs);
    if s.Farm.Coordinator.nondet <> [] then 1
    else if s.Farm.Coordinator.jobs_done < s.Farm.Coordinator.jobs then 3
    else 0

let run_farm_work socket name attempts hb_interval verbose =
  let log =
    if verbose then fun m -> Fmt.pr "pmfarm-worker[%s]: %s@.%!" name m else fun _ -> ()
  in
  let cfg =
    { (Farm.Worker.default_cfg ~socket ~name) with Farm.Worker.attempts; hb_interval; log }
  in
  match Farm.Worker.run cfg with
  | Ok n ->
    Fmt.pr "pmfarm-worker[%s]: campaign over, %d job(s) done@." name n;
    0
  | Error e ->
    Fmt.epr "pmfarm-worker[%s]: %s@." name e;
    2

let run_farm_status dir =
  let path =
    if Sys.file_exists dir && Sys.is_directory dir then Filename.concat dir "checkpoint"
    else dir
  in
  match Farm.Checkpoint.load path with
  | Error e ->
    Fmt.epr "pmfarm: %s@." e;
    2
  | Ok ck ->
    Fmt.pr "%a@." Farm.Checkpoint.pp ck;
    if List.length ck.Farm.Checkpoint.done_jobs = ck.Farm.Checkpoint.jobs then 0 else 1

let farm_dir_arg =
  Arg.(
    value
      (opt string "pmfarm-state"
         (info [ "dir" ] ~docv:"DIR"
            ~doc:
              "Campaign state directory: $(docv)/checkpoint (resumable progress) and \
               $(docv)/triage (deduplicated reproducers).")))

let farm_campaign_args =
  let campaign =
    Arg.(
      value
        (opt
           (enum [ ("fuzz", `Fuzz); ("crashfs", `Crashfs); ("litmus", `Litmus) ])
           `Fuzz
           (info [ "campaign" ] ~doc:"Campaign kind: $(b,fuzz), $(b,crashfs) or $(b,litmus).")))
  in
  let fs =
    Arg.(
      value
        (opt
           (some (enum [ ("pmfs", Crashfs.Pmfs); ("nova", Crashfs.Nova) ]))
           None
           (info [ "fs" ] ~doc:"File system for crashfs campaigns (default $(b,pmfs)).")))
  in
  let fault =
    Arg.(
      value
        (opt (some string) None
           (info [ "fault" ] ~docv:"NAME"
              ~doc:"Seeded crashfs fault (see $(b,pmtest-cli crashfs --list-faults).")))
  in
  let count =
    Arg.(
      value
        (opt int 200 (info [ "count" ] ~doc:"Total campaign units (programs / runs).")))
  in
  let chunk =
    Arg.(value (opt int 25 (info [ "chunk" ] ~doc:"Units per distributed job.")))
  in
  let max_ops =
    Arg.(
      value
        (opt (some int) None
           (info [ "max-ops" ] ~doc:"Generator / workload op bound per unit.")))
  in
  (campaign, fs, fault, count, chunk, max_ops)

let farm_serve_term ~resume =
  let campaign, fs, fault, count, chunk, max_ops = farm_campaign_args in
  let capacity =
    Arg.(value (opt int 1 (info [ "capacity" ] ~doc:"Jobs in flight per worker.")))
  in
  let heartbeat_timeout =
    Arg.(
      value
        (opt float 5.0
           (info [ "heartbeat-timeout" ] ~docv:"SECONDS"
              ~doc:
                "Reassign a worker's jobs after this long without a frame from it. Also the \
                 deadline for a new connection's hello and for each write to a worker.")))
  in
  let steal_after =
    Arg.(
      value
        (opt float 2.0
           (info [ "steal-after" ] ~docv:"SECONDS"
              ~doc:
                "Offer a duplicate attempt of an in-flight job to an idle worker after this \
                 long.")))
  in
  let stop_after =
    Arg.(
      value
        (opt (some int) None
           (info [ "stop-after-results" ] ~docv:"N"
              ~doc:
                "Testing hook: hard-stop (as a crash would) after $(docv) job results; resume \
                 with $(b,farm resume).")))
  in
  Term.(
    const run_farm_serve $ const resume
    $ Common_args.socket ~doc:"Unix socket the coordinator listens on." ()
    $ farm_dir_arg $ campaign
    $ Common_args.model_opt ~doc:(Common_args.model_doc ^ " Default x86; not for litmus.")
    $ fs $ fault
    $ Arg.(
        value
          (opt (some int) None
             (info [ "seed" ] ~doc:"Base campaign seed (default 0; not for litmus).")))
    $ count $ chunk $ max_ops $ capacity $ heartbeat_timeout $ steal_after $ stop_after
    $ Common_args.profile ~doc:"Print farm counters (offers, steals, reassignments) on exit.")

let farm_cmd =
  let serve_cmd =
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Coordinate a distributed campaign: shard it into seed-range jobs, serve them to \
            workers, checkpoint every result, reassign jobs from lost workers.")
      (farm_serve_term ~resume:false)
  in
  let resume_cmd =
    Cmd.v
      (Cmd.info "resume"
         ~doc:
           "Resume an interrupted campaign from its checkpoint: completed jobs are skipped, \
            the rest are re-served.")
      (farm_serve_term ~resume:true)
  in
  let work_cmd =
    let worker_name =
      Arg.(
        value
          (opt string
             (Printf.sprintf "worker-%d" (Unix.getpid ()))
             (info [ "name" ] ~doc:"Worker name announced to the coordinator.")))
    in
    let attempts =
      Arg.(
        value
          (opt int 8
             (info [ "attempts" ]
                ~doc:"Consecutive connect failures before the worker gives up.")))
    in
    let hb_interval =
      Arg.(
        value
          (opt float 1.0 (info [ "heartbeat-interval" ] ~docv:"SECONDS" ~doc:"Heartbeat period.")))
    in
    Cmd.v
      (Cmd.info "work"
         ~doc:
           "Run a worker: claim jobs from a coordinator, execute them, ship results and shrunk \
            reproducers back. Reconnects with jittered exponential backoff.")
      Term.(
        const run_farm_work
        $ Common_args.socket ~doc:"Coordinator's Unix socket." ()
        $ worker_name $ attempts $ hb_interval
        $ Common_args.verbose ~doc:"Log per-job progress.")
  in
  let status_cmd =
    Cmd.v
      (Cmd.info "status" ~doc:"Print a campaign checkpoint's progress.")
      Term.(const run_farm_status $ farm_dir_arg)
  in
  Cmd.group
    (Cmd.info "farm"
       ~doc:
         "Distributed campaigns: a fault-tolerant coordinator plus workers over the pmtestd \
          wire protocol.")
    [ serve_cmd; resume_cmd; work_cmd; status_cmd ]

(* --- demo -------------------------------------------------------------------- *)

let run_demo () =
  Fmt.pr "Paper Fig. 7: persist-interval deduction over a small trace@.@.";
  let trace =
    [|
      Event.make (Event.Op (Model.Write { addr = 0x10; size = 64 }));
      Event.make (Event.Op (Model.Clwb { addr = 0x10; size = 64 }));
      Event.make (Event.Op Model.Sfence);
      Event.make (Event.Op (Model.Write { addr = 0x50; size = 64 }));
      Event.make (Event.Checker (Event.Is_persist { addr = 0x50; size = 64 }));
      Event.make
        (Event.Checker
           (Event.Is_ordered_before { a_addr = 0x10; a_size = 64; b_addr = 0x50; b_size = 64 }));
    |]
  in
  Array.iter (fun e -> Fmt.pr "  %a@." Event.pp e) trace;
  let report, snap = Engine.check_with_snapshot trace in
  Fmt.pr "@.final timestamp: %d@." snap.Engine.timestamp;
  List.iter
    (fun r ->
      Fmt.pr "  [0x%x,+%d) persist interval %a%a@." r.Engine.lo (r.Engine.hi - r.Engine.lo)
        Interval.pp r.Engine.persist
        (fun ppf -> function
          | None -> Fmt.pf ppf ""
          | Some fi -> Fmt.pf ppf ", flush interval %a" Interval.pp fi)
        r.Engine.flush)
    snap.Engine.ranges;
  Fmt.pr "@.%a@." Report.pp report;
  0

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"Walk through the paper's Fig. 7 trace and print persist intervals.")
    Term.(const run_demo $ const ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default
          (Cmd.info "pmtest-cli" ~version:"1.0.0"
             ~doc:"PMTest: fast and flexible crash-consistency testing for PM programs.")
          [
            bugs_cmd;
            workload_cmd;
            record_cmd;
            check_trace_cmd;
            lint_cmd;
            repair_cmd;
            fuzz_cmd;
            crashfs_cmd;
            litmus_cmd;
            stat_cmd;
            serve_cmd;
            attach_cmd;
            farm_cmd;
            demo_cmd;
          ]))
