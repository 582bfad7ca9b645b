(* Observability layer: transparency (metrics cannot change verdicts),
   snapshot invariants, and the machine-readable sinks. *)

open Pmtest_util
open Pmtest_model
module Obs = Pmtest_obs.Obs
module Runtime = Pmtest_core.Runtime
module Report = Pmtest_core.Report
module Gen = Pmtest_fuzz.Gen

let chunk k arr =
  let n = Array.length arr in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let len = min k (n - i) in
      go (i + len) (Array.sub arr i len :: acc)
  in
  go 0 []

let run_sections ~workers ~obs ~model sections =
  let rt = Runtime.create ~workers ~model ~obs () in
  List.iter (Runtime.send_trace rt) sections;
  Runtime.shutdown rt

let report_string r = Format.asprintf "%a" Report.pp r

(* --- Transparency: reports are byte-identical with metrics on or off ---------- *)

let model_of_seed seed =
  match seed mod 3 with 0 -> Model.X86 | 1 -> Model.Hops | _ -> Model.Eadr

let prop_transparent =
  let gen_seed = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"metrics on/off yield byte-identical reports" ~count:50 gen_seed
    (fun seed ->
      let model = model_of_seed seed in
      let p = Gen.generate (Gen.default_cfg model) (Rng.create seed) in
      let sections = chunk 7 p.Gen.events in
      List.for_all
        (fun workers ->
          let off =
            report_string (run_sections ~workers ~obs:Obs.disabled ~model:p.Gen.model sections)
          in
          let on =
            report_string
              (run_sections ~workers ~obs:(Obs.create ()) ~model:p.Gen.model sections)
          in
          String.equal off on)
        [ 0; 4 ])

(* --- Snapshot invariants ------------------------------------------------------ *)

let sections_for_invariants () =
  let p = Gen.generate (Gen.default_cfg Model.X86) (Rng.create 7) in
  let q = Gen.generate (Gen.default_cfg Model.X86) (Rng.create 8) in
  List.concat (List.init 20 (fun _ -> chunk 5 p.Gen.events @ chunk 9 q.Gen.events))

let check_hist_invariants name (h : Obs.hist) ~expected_total =
  Alcotest.(check int) (name ^ " total") expected_total h.Obs.total;
  Alcotest.(check int)
    (name ^ " bucket sum = total")
    h.Obs.total
    (List.fold_left (fun acc (_, c) -> acc + c) 0 h.Obs.buckets);
  if h.Obs.total > 0 then begin
    Alcotest.(check bool) (name ^ " min <= max") true (h.Obs.min_ns <= h.Obs.max_ns);
    Alcotest.(check bool)
      (name ^ " sum bounded by total*min/max")
      true
      (h.Obs.sum_ns >= h.Obs.total * h.Obs.min_ns && h.Obs.sum_ns <= h.Obs.total * h.Obs.max_ns)
  end

let counters (s : Obs.snapshot) = List.map snd s.Obs.counters

let count s name =
  match Obs.find s name with Some v -> v | None -> Alcotest.failf "no counter %S" name

let test_snapshot_invariants () =
  let obs = Obs.create () in
  let rt = Runtime.create ~workers:4 ~obs () in
  let sections = sections_for_invariants () in
  let prev = ref (Obs.snapshot obs) in
  List.iteri
    (fun i sec ->
      Runtime.send_trace rt sec;
      if i mod 13 = 0 then begin
        let s = Obs.snapshot obs in
        (* Counters never go backwards from one snapshot to the next. *)
        List.iter2
          (fun a b -> Alcotest.(check bool) "monotonic counter" true (a <= b))
          (counters !prev) (counters s);
        prev := s
      end)
    sections;
  ignore (Runtime.shutdown rt);
  let s = Obs.snapshot obs in
  let n = List.length sections in
  Alcotest.(check int) "all sections sent" n (count s "sections_sent");
  Alcotest.(check int) "all sections checked" n (count s "sections_checked");
  Alcotest.(check int) "all sections merged" n (count s "sections_merged");
  Alcotest.(check int)
    "per-worker sections sum to sections_checked"
    (count s "sections_checked")
    (List.fold_left (fun acc (w : Obs.worker_stat) -> acc + w.Obs.sections) 0 s.Obs.workers);
  check_hist_invariants "check_hist" (List.assoc "check" s.Obs.hists)
    ~expected_total:(count s "sections_checked");
  check_hist_invariants "e2e_hist" (List.assoc "e2e" s.Obs.hists)
    ~expected_total:(count s "sections_merged");
  Alcotest.(check bool) "spans bounded" true (List.length s.Obs.spans <= 1024);
  List.iter
    (fun (sp : Obs.span) ->
      Alcotest.(check bool) "span stamps ordered" true
        (0 <= sp.Obs.sent_ns
        && sp.Obs.sent_ns <= sp.Obs.start_ns
        && sp.Obs.start_ns <= sp.Obs.done_ns
        && sp.Obs.done_ns <= sp.Obs.merged_ns);
      (* End-to-end latency includes the check. *)
      Alcotest.(check bool) "e2e >= check" true
        (sp.Obs.merged_ns - sp.Obs.sent_ns >= sp.Obs.done_ns - sp.Obs.start_ns))
    s.Obs.spans;
  Alcotest.(check bool) "elapsed positive" true (s.Obs.elapsed_ns >= 0)

let test_disabled_snapshot_is_empty () =
  let s = Obs.snapshot Obs.disabled in
  List.iter (fun c -> Alcotest.(check int) "zero" 0 c) (counters s);
  Alcotest.(check int) "no spans" 0 (List.length s.Obs.spans)

(* --- Golden sink output ------------------------------------------------------- *)

let synthetic : Obs.snapshot =
  let hist total sum_ns min_ns max_ns buckets = { Obs.total; sum_ns; min_ns; max_ns; buckets } in
  {
    Obs.elapsed_ns = 5000;
    counters =
      [
        ("events_traced", 42);
        ("sections_sent", 3);
        ("sections_checked", 3);
        ("sections_merged", 3);
        ("sections_dropped", 1);
        ("queue_hwm", 2);
        ("reorder_hwm", 1);
        ("entries_checked", 40);
        ("ops_checked", 30);
        ("checkers_run", 5);
        ("diagnostics", 2);
        ("scope_end_walks", 1);
        ("batches", 4);
        ("batch_sections_max", 2);
        ("arenas_allocated", 3);
        ("arenas_reused", 1);
        ("repair_traces", 2);
        ("repair_edits", 5);
        ("repair_rounds", 4);
        ("repair_ns", 800);
        ("repair_verify_ns", 650);
        ("serve_sessions_opened", 2);
        ("serve_sessions_closed", 2);
        ("serve_sessions_hwm", 2);
        ("serve_frames_in", 6);
        ("serve_frames_out", 4);
        ("serve_frame_bytes_in", 900);
        ("serve_frame_bytes_out", 120);
        ("serve_frames_corrupt", 1);
        ("serve_sections_shed", 0);
        ("serve_inflight_hwm", 3);
        ("farm_workers", 2);
        ("farm_workers_lost", 1);
        ("farm_jobs", 8);
        ("farm_jobs_done", 8);
        ("farm_offers", 9);
        ("farm_retries", 1);
        ("farm_steals", 1);
        ("farm_reassignments", 1);
        ("farm_findings", 3);
        ("farm_dup_findings", 1);
        ("farm_nondet", 0);
        ("farm_heartbeats", 12);
        ("farm_checkpoints", 8);
      ];
    hists =
      [
        ("check", hist 3 1000 100 600 [ (6, 1); (8, 2) ]);
        ("e2e", hist 3 2100 400 1000 [ (8, 1); (9, 2) ]);
        ("serve", hist 2 900 300 600 [ (8, 1); (9, 1) ]);
      ];
    workers =
      [
        { Obs.id = 0; sections = 2; busy_ns = 700 }; { Obs.id = 1; sections = 1; busy_ns = 300 };
      ];
    shards =
      [
        { Obs.shard = 0; shard_sessions = 1; shard_sections = 2 };
        { Obs.shard = 1; shard_sessions = 1; shard_sections = 1 };
      ];
    spans =
      [
        {
          Obs.seq = 0;
          worker = 0;
          entries = 10;
          sent_ns = 10;
          start_ns = 20;
          done_ns = 320;
          merged_ns = 330;
        };
        {
          Obs.seq = 1;
          worker = 1;
          entries = 16;
          sent_ns = 40;
          start_ns = 50;
          done_ns = 450;
          merged_ns = 470;
        };
      ];
  }

let golden_tsv =
  String.concat "\n"
    [
      "counter\telapsed_ns\t5000";
      "counter\tevents_traced\t42";
      "counter\tsections_sent\t3";
      "counter\tsections_checked\t3";
      "counter\tsections_merged\t3";
      "counter\tsections_dropped\t1";
      "counter\tqueue_hwm\t2";
      "counter\treorder_hwm\t1";
      "counter\tentries_checked\t40";
      "counter\tops_checked\t30";
      "counter\tcheckers_run\t5";
      "counter\tdiagnostics\t2";
      "counter\tscope_end_walks\t1";
      "counter\tbatches\t4";
      "counter\tbatch_sections_max\t2";
      "counter\tarenas_allocated\t3";
      "counter\tarenas_reused\t1";
      "counter\trepair_traces\t2";
      "counter\trepair_edits\t5";
      "counter\trepair_rounds\t4";
      "counter\trepair_ns\t800";
      "counter\trepair_verify_ns\t650";
      "counter\tserve_sessions_opened\t2";
      "counter\tserve_sessions_closed\t2";
      "counter\tserve_sessions_hwm\t2";
      "counter\tserve_frames_in\t6";
      "counter\tserve_frames_out\t4";
      "counter\tserve_frame_bytes_in\t900";
      "counter\tserve_frame_bytes_out\t120";
      "counter\tserve_frames_corrupt\t1";
      "counter\tserve_sections_shed\t0";
      "counter\tserve_inflight_hwm\t3";
      "counter\tfarm_workers\t2";
      "counter\tfarm_workers_lost\t1";
      "counter\tfarm_jobs\t8";
      "counter\tfarm_jobs_done\t8";
      "counter\tfarm_offers\t9";
      "counter\tfarm_retries\t1";
      "counter\tfarm_steals\t1";
      "counter\tfarm_reassignments\t1";
      "counter\tfarm_findings\t3";
      "counter\tfarm_dup_findings\t1";
      "counter\tfarm_nondet\t0";
      "counter\tfarm_heartbeats\t12";
      "counter\tfarm_checkpoints\t8";
      "worker\t0\t2\t700";
      "worker\t1\t1\t300";
      "shard\t0\t1\t2";
      "shard\t1\t1\t1";
      "hist\tcheck\t3\t1000\t100\t600";
      "histbucket\tcheck\t6\t1";
      "histbucket\tcheck\t8\t2";
      "hist\te2e\t3\t2100\t400\t1000";
      "histbucket\te2e\t8\t1";
      "histbucket\te2e\t9\t2";
      "hist\tserve\t2\t900\t300\t600";
      "histbucket\tserve\t8\t1";
      "histbucket\tserve\t9\t1";
      "span\t0\t0\t10\t10\t20\t320\t330";
      "span\t1\t1\t16\t40\t50\t450\t470";
      "";
    ]

let golden_jsonl =
  String.concat "\n"
    [
      {|{"type":"counters","elapsed_ns":5000,"events_traced":42,"sections_sent":3,"sections_checked":3,"sections_merged":3,"sections_dropped":1,"queue_hwm":2,"reorder_hwm":1,"entries_checked":40,"ops_checked":30,"checkers_run":5,"diagnostics":2,"scope_end_walks":1,"batches":4,"batch_sections_max":2,"arenas_allocated":3,"arenas_reused":1,"repair_traces":2,"repair_edits":5,"repair_rounds":4,"repair_ns":800,"repair_verify_ns":650,"serve_sessions_opened":2,"serve_sessions_closed":2,"serve_sessions_hwm":2,"serve_frames_in":6,"serve_frames_out":4,"serve_frame_bytes_in":900,"serve_frame_bytes_out":120,"serve_frames_corrupt":1,"serve_sections_shed":0,"serve_inflight_hwm":3,"farm_workers":2,"farm_workers_lost":1,"farm_jobs":8,"farm_jobs_done":8,"farm_offers":9,"farm_retries":1,"farm_steals":1,"farm_reassignments":1,"farm_findings":3,"farm_dup_findings":1,"farm_nondet":0,"farm_heartbeats":12,"farm_checkpoints":8}|};
      {|{"type":"worker","id":0,"sections":2,"busy_ns":700}|};
      {|{"type":"worker","id":1,"sections":1,"busy_ns":300}|};
      {|{"type":"shard","shard":0,"sessions":1,"sections":2}|};
      {|{"type":"shard","shard":1,"sessions":1,"sections":1}|};
      {|{"type":"hist","name":"check","total":3,"sum_ns":1000,"min_ns":100,"max_ns":600,"buckets":[[6,1],[8,2]]}|};
      {|{"type":"hist","name":"e2e","total":3,"sum_ns":2100,"min_ns":400,"max_ns":1000,"buckets":[[8,1],[9,2]]}|};
      {|{"type":"hist","name":"serve","total":2,"sum_ns":900,"min_ns":300,"max_ns":600,"buckets":[[8,1],[9,1]]}|};
      {|{"type":"span","seq":0,"worker":0,"entries":10,"sent_ns":10,"start_ns":20,"done_ns":320,"merged_ns":330}|};
      {|{"type":"span","seq":1,"worker":1,"entries":16,"sent_ns":40,"start_ns":50,"done_ns":450,"merged_ns":470}|};
      "";
    ]

let test_golden_tsv () = Alcotest.(check string) "tsv" golden_tsv (Obs.to_tsv synthetic)
let test_golden_jsonl () = Alcotest.(check string) "jsonl" golden_jsonl (Obs.to_jsonl synthetic)

let test_tsv_round_trip_synthetic () =
  match Obs.of_tsv (Obs.to_tsv synthetic) with
  | Error e -> Alcotest.failf "of_tsv: %s" e
  | Ok s -> Alcotest.(check bool) "equal" true (s = synthetic)

let test_tsv_round_trip_real () =
  let obs = Obs.create () in
  let p = Gen.generate (Gen.default_cfg Model.X86) (Rng.create 3) in
  ignore (run_sections ~workers:2 ~obs ~model:Model.X86 (chunk 6 p.Gen.events));
  let snap = Obs.snapshot obs in
  match Obs.of_tsv (Obs.to_tsv snap) with
  | Error e -> Alcotest.failf "of_tsv: %s" e
  | Ok s -> Alcotest.(check bool) "equal" true (s = snap)

let test_of_tsv_rejects_malformed () =
  List.iter
    (fun (what, text) ->
      match Obs.of_tsv text with
      | Ok _ -> Alcotest.failf "of_tsv accepted %s" what
      | Error _ -> ())
    [
      ("a line with a missing field", "counter\tevents_traced\n");
      ("a non-integer value", "counter\tevents_traced\tmany\n");
      ("a repeated counter name", "counter\tevents_traced\t1\ncounter\tevents_traced\t2\n");
    ]

(* --- Registry ------------------------------------------------------------------ *)

(* The registry, read back through a fresh collector, is exactly the
   counter set the golden TSV spells out. Referencing the daemon, farm
   and repair modules links their declarations into this test. *)
let test_fresh_collector_lists_declared () =
  ignore
    ( Pmtest_server.Server.default_config,
      Pmtest_farm.Farm.Coordinator.default_cfg,
      Pmtest_repair.Repair.default_max_rounds );
  let s = Obs.snapshot (Obs.create ()) in
  let golden_names =
    List.filter_map
      (fun l ->
        match String.split_on_char '\t' l with
        | [ "counter"; k; _ ] when k <> "elapsed_ns" -> Some k
        | _ -> None)
      (String.split_on_char '\n' golden_tsv)
  in
  Alcotest.(check (list string))
    "declared counters"
    (List.sort compare golden_names)
    (List.sort compare (List.map fst s.Obs.counters));
  List.iter (fun (k, v) -> Alcotest.(check int) (k ^ " starts at 0") 0 v) s.Obs.counters;
  Alcotest.(check (list string))
    "declared histograms" [ "check"; "e2e"; "serve" ]
    (List.sort compare (List.map fst s.Obs.hists));
  match Obs.of_tsv (Obs.to_tsv s) with
  | Error e -> Alcotest.failf "of_tsv: %s" e
  | Ok s' -> Alcotest.(check bool) "round-trips" true (s' = s)

(* --- `stat --machine` output parses back -------------------------------------- *)

let test_stat_machine_parses () =
  let cli =
    List.find_opt Sys.file_exists
      [ "../bin/pmtest_cli.exe"; "_build/default/bin/pmtest_cli.exe" ]
  in
  let corpus_dir = if Sys.file_exists "../fuzz/corpus" then "../fuzz/corpus" else "fuzz/corpus" in
  let case = Filename.concat corpus_dir "x86-exclusion-hole-shadow-staleness.pmt" in
  match cli with
  | None -> Alcotest.skip ()
  | Some cli ->
    let out = Filename.temp_file "pmtest_stat" ".tsv" in
    Fun.protect
      ~finally:(fun () -> Sys.remove out)
      (fun () ->
        let cmd =
          Printf.sprintf "%s stat %s --machine > %s 2>/dev/null" (Filename.quote cli)
            (Filename.quote case) (Filename.quote out)
        in
        Alcotest.(check int) "stat exits 0" 0 (Sys.command cmd);
        let ic = open_in out in
        let text =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        match Obs.of_tsv text with
        | Error e -> Alcotest.failf "stat --machine output does not parse: %s" e
        | Ok s ->
          Alcotest.(check int) "one section" 1 (count s "sections_sent");
          Alcotest.(check int) "five events traced" 5 (count s "events_traced");
          Alcotest.(check int) "five entries checked" 5 (count s "entries_checked"))

let () =
  Alcotest.run "obs"
    [
      ("transparency", [ QCheck_alcotest.to_alcotest prop_transparent ]);
      ( "invariants",
        [
          Alcotest.test_case "pipeline snapshot invariants" `Quick test_snapshot_invariants;
          Alcotest.test_case "disabled snapshot is empty" `Quick test_disabled_snapshot_is_empty;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "golden TSV" `Quick test_golden_tsv;
          Alcotest.test_case "golden JSON lines" `Quick test_golden_jsonl;
          Alcotest.test_case "TSV round-trips (synthetic)" `Quick test_tsv_round_trip_synthetic;
          Alcotest.test_case "TSV round-trips (real run)" `Quick test_tsv_round_trip_real;
          Alcotest.test_case "stat --machine parses back" `Quick test_stat_machine_parses;
          Alcotest.test_case "of_tsv rejects malformed input" `Quick test_of_tsv_rejects_malformed;
        ] );
      ( "registry",
        [
          Alcotest.test_case "fresh collector lists every declared counter" `Quick
            test_fresh_collector_lists_declared;
        ] );
    ]
