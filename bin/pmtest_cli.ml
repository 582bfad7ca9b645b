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

let run_workload run tool ops threads workers seed profile =
  if profile && tool <> `Pmtest then
    Fmt.epr "note: --profile instruments the pmtest pipeline; --tool %s collects nothing@."
      (if tool = `None then "none" else "pmemcheck");
  let obs = if profile then Obs.create () else Obs.disabled in
  let p = { Source.ops; threads; seed } in
  let outcome =
    match tool with
    | `None -> Result.map (fun () -> None) (run p Source.untraced)
    | `Pmemcheck when threads > 1 -> Error "--tool pmemcheck shadows one thread; use --threads 1"
    | `Pmemcheck ->
      let pc = Pmemcheck.create ~size:(32 * 1024 * 1024) in
      let io = { Source.sink_of = (fun _ -> Pmemcheck.sink pc); send = ignore } in
      Result.map (fun () -> Some (Pmemcheck.result pc)) (run p io)
    | `Pmtest ->
      Result.map Option.some
        (Source.check_in ~section:1 p (Source.Workload run) (Pmtest.init ~workers ~obs ()))
  in
  match outcome with
  | Error e ->
    Fmt.epr "workload failed: %s@." e;
    1
  | Ok report ->
    Fmt.pr "workload completed; store consistent.@.";
    (match report with
    | None -> Fmt.pr "(no testing tool attached)@."
    | Some r -> Fmt.pr "%a@." Report.pp r);
    if profile then Fmt.pr "@.%a@." Obs.pp (Obs.snapshot obs);
    if Option.fold ~none:false ~some:Report.has_fail report then 1 else 0

let workload_arg =
  Arg.(
    required
      (pos 0 (some (enum Source.workloads)) None
         (info [] ~docv:"WORKLOAD"
            ~doc:("One of: " ^ String.concat ", " (List.map fst Source.workloads) ^ "."))))

let workload_cmd =
  let tool =
    Arg.(
      value
        (opt (enum [ ("none", `None); ("pmtest", `Pmtest); ("pmemcheck", `Pmemcheck) ]) `Pmtest
           (info [ "tool" ] ~doc:"Testing tool to attach: none, pmtest or pmemcheck.")))
  in
  let profile =
    Common_args.profile
      ~doc:"Collect and print a pipeline profile (counters, worker utilization, latency histograms)."
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Run a WHISPER-style workload under a testing tool.")
    Term.(
      const run_workload $ workload_arg $ tool
      $ Common_args.ops ()
      $ Common_args.threads
      $ Common_args.workers ()
      $ Common_args.seed ()
      $ profile)

(* --- SOURCE ------------------------------------------------------------------- *)

(* The positional SOURCE, documented as [what] it is for. *)
let source_pos what =
  let doc =
    what
    ^ ": a workload name, a recorded $(b,.pmt) trace file, or a bug-catalog case id. Model: \
       $(b,--model), else the file's $(b,model:) header, else x86."
  in
  Arg.(pos 0 (some string) None (info [] ~docv:"SOURCE" ~doc))

let model_arg = Common_args.model_opt ~doc:"Persistency model; overrides the SOURCE's own."

(* Resolve SOURCE for subcommand [cmd] and hand it to [k]; a SOURCE
   that does not resolve exits 2 with the reason. *)
let with_source cmd ?model name k =
  match Source.resolve ?model name with
  | Error e ->
    Fmt.epr "%s: %s@." cmd e;
    2
  | Ok src -> k src

(* As [with_source], with the source's trace entries: a workload is
   recorded first, under [p]. *)
let with_entries cmd p ?model name k =
  with_source cmd ?model name (fun src ->
      match Source.entries p src.Source.input with
      | Error e ->
        Fmt.epr "%s: %s@." cmd e;
        2
      | Ok entries -> k src entries)

(* --- Saves --------------------------------------------------------------------- *)

exception Cannot_save of string

(* Every file a command writes goes through [save]: a write that fails
   (a missing directory, a full disk, a failed fsync) ends the command
   through [saving] with exit 2, naming the file. *)
let save path write =
  match write () with
  | v -> v
  | exception Sys_error e -> raise (Cannot_save (Printf.sprintf "cannot save %s: %s" path e))
  | exception Unix.Unix_error (err, _, _) ->
    raise (Cannot_save (Printf.sprintf "cannot save %s: %s" path (Unix.error_message err)))

let saving cmd run =
  match run () with
  | rc -> rc
  | exception Cannot_save e ->
    Fmt.epr "%s: %s@." cmd e;
    2

(* A trace file, headed by the model that judges it. *)
let save_trace model path entries =
  save path (fun () ->
      Pmtest_trace.Serial.save_file
        ~header:{ Files.banner = None; fields = [ ("model", Model.kind_name model) ] }
        path entries)

(* [record]'s defaults, which [repair] shares; check-trace and lint
   take no workload flags and record a workload with these. *)
let record_defaults = { Source.ops = 1000; threads = 1; seed = 42 }

(* --- record / check-trace ------------------------------------------------------ *)

let run_record run ops seed output =
  match Source.record run { Source.ops; threads = 1; seed } with
  | Error e ->
    Fmt.epr "record failed: %s@." e;
    1
  | Ok entries ->
    saving "record" @@ fun () ->
    save_trace Model.X86 output entries;
    Fmt.pr "recorded %d trace entries (%d PM operations) to %s@." (Array.length entries)
      (Event.op_count entries) output;
    0

let record_cmd =
  let output = Arg.(value (opt string "trace.pmt" (info [ "o"; "output" ] ~doc:"Output file."))) in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Run an annotated workload under the x86 model and save its trace to a file.")
    Term.(
      const run_record $ workload_arg
      $ Common_args.ops ~default:record_defaults.ops ()
      $ Common_args.seed ~default:record_defaults.seed ()
      $ output)

let run_check_trace source model profile =
  with_entries "check-trace" record_defaults ?model source (fun src entries ->
      let obs = if profile then Obs.create () else Obs.disabled in
      (* The whole trace is one section through the synchronous path. *)
      let report =
        Obs.sync_section obs ~seq:0 ~entries:(Array.length entries) (fun () ->
            Engine.check ~obs ~model:src.Source.model entries)
      in
      Fmt.pr "%a@." Report.pp_summary report;
      if profile then Fmt.pr "@.%a@." Obs.pp (Obs.snapshot obs);
      if Report.has_fail report then 1 else 0)

let check_trace_cmd =
  let source = Arg.required (source_pos "What to check") in
  Cmd.v
    (Cmd.info "check-trace" ~doc:"Check a recorded trace offline with the dynamic engine.")
    Term.(
      const run_check_trace $ source $ model_arg
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

(* [--rules help] lists the rules and needs no SOURCE; a bad spec exits 2. *)
let with_rules spec k =
  if spec = "help" then begin
    print_endline (Rule.help ());
    0
  end
  else
    match Rule.of_spec spec with
    | Error e ->
      Fmt.epr "--rules: %s@." e;
      2
    | Ok rules -> k rules

let run_lint source bugdb model rules_spec machine verbose =
  with_rules rules_spec (fun rules ->
      match source with
      | _ when bugdb -> run_lint_bugdb rules
      | None ->
        Fmt.epr "a SOURCE is required (or use --bugdb)@.";
        2
      | Some source ->
        with_entries "lint" record_defaults ?model source (fun src entries ->
            let result = Lint.run ~model:src.Source.model ~rules entries in
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
  let source = Arg.value (source_pos "What to lint") in
  let bugdb =
    Arg.(
      value
        (flag
           (info [ "bugdb" ]
              ~doc:
                "Instead of a SOURCE, lint every bug-catalog case from its raw op stream \
                 (checkers stripped) and tabulate which rules fire.")))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically lint a recorded trace: no checkers needed, fix-it suggestions included.")
    Term.(
      const run_lint $ source $ bugdb $ model_arg $ rules_arg
      $ Common_args.machine ~doc:"Machine-readable output: one tab-separated finding per line."
      $ Common_args.verbose ~doc:"Print every finding with its fix-it.")

(* --- repair ------------------------------------------------------------------- *)

let run_repair source model rules_spec ops seed max_rounds diff machine verify in_place output
    profile =
  with_rules rules_spec (fun rules ->
      match source with
      | None ->
        Fmt.epr "repair: a SOURCE is required (or use --rules help)@.";
        2
      | Some source ->
        with_entries "repair" { Source.ops; threads = 1; seed } ?model source
          (fun src entries ->
            if in_place && not src.Source.file then begin
              Fmt.epr "repair: --in-place needs SOURCE to be a trace file@.";
              2
            end
            else begin
              let model = src.Source.model in
              let obs = if profile then Obs.create () else Obs.disabled in
              let o = Repair.fixpoint ~obs ~model ~rules ~max_rounds entries in
              if machine then List.iter print_endline (Repair.machine_lines o)
              else begin
                Fmt.pr "%a@." Repair.pp_outcome o;
                if diff && Repair.edits_applied o > 0 then
                  Fmt.pr "@.%a@."
                    (fun ppf () ->
                      Repair.pp_diff ppf ~original:entries ~repaired:o.Repair.repaired)
                    ()
              end;
              let problems =
                if not verify then []
                else begin
                  let ps = Repair.verify_static ~obs ~model ~rules ~original:entries o in
                  List.iter (fun p -> Fmt.epr "verify: %s@." p) ps;
                  if ps = [] && not machine then
                    Fmt.pr
                      "verify: repair proven (repaired trace lints clean, plan is idempotent, \
                       engine differential holds)@.";
                  ps
                end
              in
              let dest = if output = None && in_place then Some source else output in
              saving "repair" @@ fun () ->
              Option.iter
                (fun path ->
                  save_trace model path o.Repair.repaired;
                  if not machine then
                    Fmt.pr "wrote repaired trace (%d entries) to %s@."
                      (Array.length o.Repair.repaired)
                      path)
                dest;
              if profile then Fmt.pr "@.%a@." Obs.pp (Obs.snapshot obs);
              if (not o.Repair.converged) || problems <> [] then 1 else 0
            end))

let repair_cmd =
  let source = Arg.value (source_pos "What to repair") in
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
      const run_repair $ source $ model_arg $ rules_arg
      $ Common_args.ops ~doc:"Operations (workload sources)." ~default:record_defaults.ops ()
      $ Common_args.seed ~default:record_defaults.seed ()
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
      Fmt.pr "@.== %s: %d program(s), base seed %d ==@." (Model.kind_name model) count seed;
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
            (Model.kind_name model) f.Campaign.found_seed
            (Cross.pair_name f.Campaign.pair)
            f.Campaign.detail (Repro.serial_text shrunk) (Repro.ocaml_snippet shrunk);
          Option.iter
            (fun dir ->
              Fmt.pr "saved regression case to %s@." (save dir (fun () -> Repro.save ~dir case)))
            corpus)
        stats.Campaign.findings)
    models

let run_fuzz models count seed max_ops mutate corpus progress profile =
  saving "fuzz" @@ fun () ->
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
  saving "crashfs" @@ fun () ->
  let model = Option.value model ~default:Model.X86 in
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
          (match config.Crashfs.fault with
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
                let path =
                  save dir (fun () -> Crashfs.Repro.save ~dir (Crashfs.Repro.of_finding config f))
                in
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
    Common_args.model_opt
      ~doc:
        "Persistency model for crash-image enumeration (default x86); cxl is refused, its \
         gpf-based programs are covered by the crashtest suite."
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

(* A trace is replayed through a live session in sections, so the whole
   pipeline — dispatch, worker pool, in-order merge — is exercised and
   profiled, not just the engine. *)
let run_stat source model workers section ops threads seed machine json_out =
  let obs = Obs.create () in
  with_source "stat" ?model source (fun src ->
      match
        Source.check_in ~section { Source.ops; threads; seed } src.Source.input
          (Pmtest.init ~model:src.Source.model ~workers ~obs ())
      with
      | Error e ->
        Fmt.epr "stat: %s@." e;
        2
      | Ok report ->
        let snap = Obs.snapshot obs in
        saving "stat" @@ fun () ->
        Option.iter
          (fun path ->
            save path (fun () ->
                Files.write_atomic path (fun oc -> output_string oc (Obs.to_jsonl snap)));
            Fmt.epr "wrote JSON-lines profile to %s@." path)
          json_out;
        if machine then print_string (Obs.to_tsv snap)
        else begin
          Fmt.pr "%a@.@." Report.pp_summary report;
          Fmt.pr "%a@." Obs.pp snap
        end;
        0)

let stat_cmd =
  let source =
    Arg.required
      (source_pos
         "What to profile (a workload runs live under the pmtest tool, a trace is replayed \
          through a live session)")
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
      const run_stat $ source $ model_arg
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
                "Checking shards; each owns its worker domains and arena freelist.  One \
                 session loop serves every shard and pins each new session to the \
                 least-loaded one.")))
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

let run_attach source socket model section ops threads seed record verify profile =
  let obs = if profile then Obs.create () else Obs.disabled in
  let p = { Source.ops; threads; seed } in
  with_source "attach" ?model source (fun src ->
      let model = src.Source.model in
      (* Only the remote run is recorded: the file holds exactly the
         stream the daemon saw, once. *)
      let tap, take =
        match record with None -> (Fun.id, fun () -> [||]) | Some _ -> Source.recorder ()
      in
      let on_retry ~attempt ~delay err =
        Fmt.epr "attach: %s; retry %d in %.0f ms@.%!" err attempt (delay *. 1000.)
      in
      let remote =
        match Client.connect_retry ~model ~attempts:5 ~on_retry ~socket () with
        | Error m -> Error ("cannot attach: " ^ m)
        | Ok conn ->
          Fun.protect
            ~finally:(fun () -> Client.close conn)
            (fun () ->
              Source.check_in ~tap ~section p src.Source.input (Client.Session.make ~obs conn))
      in
      match remote with
      | Error e ->
        Fmt.epr "attach: %s@." e;
        2
      | Ok remote_report -> (
        saving "attach" @@ fun () ->
        Option.iter
          (fun path ->
            let entries = take () in
            save_trace model path entries;
            Fmt.pr "recorded %d trace entries to %s@." (Array.length entries) path)
          record;
        Fmt.pr "%a@." Report.pp remote_report;
        if profile then Fmt.pr "@.%a@." Obs.pp (Obs.snapshot obs);
        let rc = if Report.has_fail remote_report then 1 else 0 in
        if not verify then rc
        else
          match
            Source.check_in ~section p src.Source.input (Pmtest.init ~model ~workers:1 ~obs ())
          with
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
            end))

let attach_cmd =
  let source = Arg.required (source_pos "What to run against the daemon") in
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
      $ model_arg
      $ Common_args.section ()
      $ Common_args.ops ~doc:"Operations (workload sources)." ()
      $ Common_args.threads
      $ Common_args.seed ()
      $ record $ verify $ profile)

(* --- farm -------------------------------------------------------------------- *)

(* A flag the campaign kind has no use for is refused, not dropped.
   [model] and [seed] are [None] unless given on the command line: a
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

let run_farm_serve resume socket dir campaign model fs fault seed count chunk max_ops
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
      heartbeat_timeout;
      steal_after;
      stop_after_results = stop_after;
      obs;
    }
  in
  (* The banner waits for [ready]: a spec the coordinator refuses never
     claims a campaign. *)
  let ready () =
    Fmt.pr "pmfarm: %s %s on %s (%d job(s), state in %s)@.%!"
      (if resume then "resuming" else "coordinating")
      (Farm.Spec.to_string spec) socket
      (List.length (Farm.Spec.jobs spec))
      dir
  in
  match Farm.Coordinator.run ~ready cfg with
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
    $ count $ chunk $ max_ops $ heartbeat_timeout $ steal_after $ stop_after
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
