(* The auto-repair pass: one golden trace per edit kind, fixed-point
   convergence and idempotence, the engine-side proof obligations, the
   seeded PMFS performance bugs, and agreement with the fuzz contract
   on random programs. *)

open Pmtest_model
open Pmtest_trace
module Repair = Pmtest_repair.Repair
module Lint = Pmtest_lint.Lint
module Rule = Pmtest_lint.Rule
module Fixit = Pmtest_lint.Fixit
module Obs = Pmtest_obs.Obs
module Fs = Pmtest_pmfs.Fs
module Gen = Pmtest_fuzz.Gen
module Cross = Pmtest_fuzz.Cross
module Campaign = Pmtest_fuzz.Campaign
module Case = Pmtest_bugdb.Case
module Catalog = Pmtest_bugdb.Catalog
module Engine = Pmtest_core.Engine

let e kind = Event.make kind
let w addr size = e (Event.Op (Model.Write { addr; size }))
let clwb addr size = e (Event.Op (Model.Clwb { addr; size }))
let sfence = e (Event.Op Model.Sfence)
let tx k = e (Event.Tx k)
let tx_add addr size = e (Event.Tx (Event.Tx_add { addr; size }))

let fix ?model ?rules entries = Repair.fixpoint ?model ?rules (Array.of_list entries)

let prove ?model ?rules entries (o : Repair.outcome) =
  Alcotest.(check (list string))
    "verify_static proves the repair" []
    (Repair.verify_static ?model ?rules ~original:(Array.of_list entries) o)

let lint_clean ?model (o : Repair.outcome) =
  Alcotest.(check int)
    "repaired trace lints clean" 0
    (List.length (Lint.run ?model o.Repair.repaired).Lint.findings)

let kinds (o : Repair.outcome) = Array.map (fun (ev : Event.t) -> ev.Event.kind) o.Repair.repaired

(* --- One golden trace per edit kind ---------------------------------------- *)

let test_clean_trace_untouched () =
  let trace = [ w 0x100 8; clwb 0x100 8; sfence ] in
  let o = fix trace in
  Alcotest.(check int) "no edits" 0 (Repair.edits_applied o);
  Alcotest.(check int) "one clean lint pass" 1 o.Repair.iterations;
  Alcotest.(check bool) "converged" true o.Repair.converged;
  prove trace o

let test_redundant_fence_deleted () =
  let trace = [ w 0x100 8; clwb 0x100 8; sfence; sfence ] in
  let o = fix trace in
  Alcotest.(check int) "one fence deleted" 1 o.Repair.deleted_fences;
  Alcotest.(check int) "three events remain" 3 (Array.length o.Repair.repaired);
  lint_clean o;
  prove trace o

let test_duplicate_flush_deleted () =
  let trace = [ w 0x100 8; clwb 0x100 8; clwb 0x100 8; sfence ] in
  let o = fix trace in
  Alcotest.(check int) "one writeback deleted" 1 o.Repair.deleted_flushes;
  lint_clean o;
  prove trace o

let test_unnecessary_flush_cascades () =
  (* Deleting the pointless writeback strands the fence; the next round
     deletes that too — the whole trace repairs away. *)
  let trace = [ clwb 0x100 8; sfence ] in
  let o = fix trace in
  Alcotest.(check int) "nothing left" 0 (Array.length o.Repair.repaired);
  Alcotest.(check int) "writeback then fence" 2 (Repair.edits_applied o);
  Alcotest.(check bool) "took two rounds" true (o.Repair.iterations >= 3);
  prove trace o

let test_overwide_flush_narrowed () =
  let trace = [ w 0x100 8; clwb 0x100 16; sfence ] in
  let o = fix trace in
  Alcotest.(check int) "one writeback narrowed" 1 o.Repair.narrowed_flushes;
  (match kinds o with
  | [| _; Event.Op (Model.Clwb { addr = 0x100; size = 8 }); _ |] -> ()
  | _ -> Alcotest.fail "expected the writeback narrowed to [0x100,+8)");
  lint_clean o;
  prove trace o

let test_never_flushed_gets_flush_and_fence () =
  let trace = [ w 0x100 8 ] in
  let o = fix trace in
  Alcotest.(check int) "writeback inserted" 1 o.Repair.inserted_flushes;
  Alcotest.(check int) "fence inserted" 1 o.Repair.inserted_fences;
  (match kinds o with
  | [| _; Event.Op (Model.Clwb { addr = 0x100; size = 8 }); Event.Op Model.Sfence |] -> ()
  | _ -> Alcotest.fail "expected an appended writeback and drain fence");
  lint_clean o;
  prove trace o

let test_flush_without_fence_gets_fence () =
  let trace = [ w 0x100 8; clwb 0x100 8 ] in
  let o = fix trace in
  Alcotest.(check int) "no writeback inserted" 0 o.Repair.inserted_flushes;
  Alcotest.(check int) "fence inserted" 1 o.Repair.inserted_fences;
  lint_clean o;
  prove trace o

let test_hops_gets_dfence () =
  let trace = [ w 0x100 8 ] in
  let o = fix ~model:Model.Hops trace in
  Alcotest.(check int) "fence inserted" 1 o.Repair.inserted_fences;
  (match kinds o with
  | [| _; Event.Op Model.Dfence |] -> ()
  | _ -> Alcotest.fail "expected an appended dfence under HOPS");
  lint_clean ~model:Model.Hops o;
  prove ~model:Model.Hops trace o

let test_eadr_deletes_legacy_flush () =
  let trace = [ w 0x100 8; clwb 0x100 8; sfence ] in
  let o = fix ~model:Model.Eadr trace in
  Alcotest.(check int) "legacy writeback deleted" 1 o.Repair.deleted_flushes;
  Alcotest.(check int) "nothing inserted" 0
    (o.Repair.inserted_flushes + o.Repair.inserted_fences);
  lint_clean ~model:Model.Eadr o;
  prove ~model:Model.Eadr trace o

let test_unlogged_tx_write_gets_log () =
  let trace =
    [ tx Event.Tx_begin; w 0x100 8; tx Event.Tx_commit; clwb 0x100 8; sfence ]
  in
  let o = fix trace in
  Alcotest.(check int) "one log entry inserted" 1 o.Repair.inserted_logs;
  (match (kinds o).(1) with
  | Event.Tx (Event.Tx_add { addr = 0x100; size = 8 }) -> ()
  | _ -> Alcotest.fail "expected TX_ADD inserted before the store");
  lint_clean o;
  prove trace o

let test_logged_tx_write_untouched () =
  let trace =
    [
      tx Event.Tx_begin; tx_add 0x100 8; w 0x100 8; tx Event.Tx_commit; clwb 0x100 8; sfence;
    ]
  in
  let o = fix trace in
  Alcotest.(check int) "no edits" 0 (Repair.edits_applied o);
  prove trace o

(* --- Fixed point ------------------------------------------------------------ *)

let test_idempotent () =
  let trace = [ w 0x100 8; clwb 0x100 16; sfence; sfence; w 0x180 8 ] in
  let o = fix trace in
  Alcotest.(check bool) "converged" true o.Repair.converged;
  let o2 = Repair.fixpoint o.Repair.repaired in
  Alcotest.(check int) "repairing a repair is a no-op" 0 (Repair.edits_applied o2);
  prove trace o

let test_machine_lines () =
  let o = fix [ w 0x100 8; clwb 0x100 8; sfence; sfence ] in
  Alcotest.(check (list string))
    "round, index, rule, fixit"
    [ "1\t3\tredundant-fence\tdelete" ]
    (Repair.machine_lines o)

let test_obs_counters () =
  let obs = Obs.create () in
  let o = Repair.fixpoint ~obs (Array.of_list [ w 0x100 8; clwb 0x100 8; sfence; sfence ]) in
  Alcotest.(check int) "one edit" 1 (Repair.edits_applied o);
  let s = Obs.snapshot obs in
  Alcotest.(check (option int)) "one trace repaired" (Some 1) (Obs.find s "repair_traces");
  Alcotest.(check (option int)) "edit counted" (Some 1) (Obs.find s "repair_edits");
  Alcotest.(check bool) "rounds counted" true (Obs.find s "repair_rounds" >= Some 2)

(* --- The seeded PMFS performance bugs --------------------------------------- *)

let count_fences_at line (events : Event.t array) =
  Array.fold_left
    (fun n (ev : Event.t) ->
      match ev.Event.kind with
      | Event.Op Model.Sfence when ev.Event.loc.Pmtest_util.Loc.line = line -> n + 1
      | _ -> n)
    0 events

let record_fs fault ops =
  let sink, recorded = Serial.recording_sink () in
  let fs = Fs.mkfs ~inodes:16 ~blocks:64 ~sink () in
  Fs.set_fault fs (Some fault);
  (match ops fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "pmfs driver failed: %s" e);
  (match Fs.check_consistent fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "pmfs store inconsistent: %s" e);
  recorded ()

let test_pmfs_fsync_bug () =
  (* fsync.c:260 without the deliberate-drain annotation: both fsync
     fences drain nothing and must be deleted — the repairer reproduces
     the PMFS fix mechanically. *)
  let entries =
    record_fs Fs.Fsync_redundant_fence (fun fs ->
        Result.bind (Fs.create fs "wal") (fun ino ->
            Result.bind
              (Fs.write fs ~ino ~off:0 (String.make 192 'a'))
              (fun () ->
                Fs.fsync fs ~ino;
                Fs.fsync fs ~ino;
                Ok ())))
  in
  Alcotest.(check int) "two surplus fsync fences" 2 (count_fences_at 260 entries);
  let o = Repair.fixpoint entries in
  Alcotest.(check int) "both deleted" 2 o.Repair.deleted_fences;
  Alcotest.(check int) "nothing else edited" 2 (Repair.edits_applied o);
  Alcotest.(check int) "no fsync fence survives" 0 (count_fences_at 260 o.Repair.repaired);
  Alcotest.(check (list string))
    "repair proven" []
    (Repair.verify_static ~original:entries o)

let test_pmfs_empty_tx_bug () =
  (* journal.c:633 without the empty-commit guard: the in-place
     overwrite's commit fences right after the data drain at
     xips.c:208. Exactly that one fence goes; the two legitimate commit
     fences (create, first write) stay. *)
  let entries =
    record_fs Fs.Empty_tx_fence (fun fs ->
        Result.bind (Fs.create fs "table") (fun ino ->
            Result.bind
              (Fs.write fs ~ino ~off:0 (String.make 128 'a'))
              (fun () -> Result.map ignore (Fs.write fs ~ino ~off:0 (String.make 128 'b')))))
  in
  let before = count_fences_at 633 entries in
  Alcotest.(check bool) "legitimate commit fences recorded too" true (before >= 2);
  let o = Repair.fixpoint entries in
  Alcotest.(check int) "exactly the surplus one deleted" 1 o.Repair.deleted_fences;
  Alcotest.(check int) "legitimate commit fences survive" (before - 1)
    (count_fences_at 633 o.Repair.repaired);
  Alcotest.(check (list string))
    "repair proven" []
    (Repair.verify_static ~original:entries o)

(* --- Random programs: the cross contract in miniature ----------------------- *)

let test_random_programs () =
  List.iter
    (fun model ->
      for seed = 0 to 99 do
        let p = Gen.generate (Gen.default_cfg model) (Pmtest_util.Rng.create seed) in
        match Cross.compare_pair Cross.Engine_vs_repair p with
        | Cross.Agree | Cross.Skip _ -> ()
        | Cross.Disagree d ->
          Alcotest.failf "%s seed %d: %s" (Model.kind_name model) seed d
      done)
    [ Model.X86; Model.Hops; Model.Eadr ]

(* --- Inputs the caller already has -------------------------------------------- *)

(* A caller that hands [fixpoint] its round-1 lint, or [verify_static]
   the original trace's engine report, gets exactly what it would get
   without them. *)
let same_with_supplied_inputs what model events =
  let lint = Lint.run ~model events in
  let o = Repair.fixpoint ~model events in
  if Repair.fixpoint ~model ~lint events <> o then
    Alcotest.failf "%s: fixpoint ~lint differs from fixpoint" what;
  let plain = Repair.verify_static ~model ~original:events o in
  let original_report = Engine.check ~model events in
  Alcotest.(check (list string))
    (what ^ ": verify_static ~original_report")
    plain
    (Repair.verify_static ~model ~original:events ~original_report o)

let test_supplied_inputs_catalog () =
  List.iter
    (fun case ->
      let id = case.Case.id in
      same_with_supplied_inputs id Model.X86 (Case.trace case);
      same_with_supplied_inputs (id ^ " clean") Model.X86 (Case.trace_clean case))
    Catalog.all

let test_supplied_inputs_random () =
  List.iter
    (fun model ->
      let cfg = Campaign.default_cfg model in
      for seed = 0 to 199 do
        let p = Campaign.program_for_seed cfg seed in
        same_with_supplied_inputs
          (Printf.sprintf "%s seed %d" (Model.kind_name model) seed)
          model p.Gen.events
      done)
    [ Model.X86; Model.Hops; Model.Cxl; Model.Eadr ]

let () =
  Alcotest.run "repair"
    [
      ( "edits",
        [
          Alcotest.test_case "clean trace untouched" `Quick test_clean_trace_untouched;
          Alcotest.test_case "redundant fence deleted" `Quick test_redundant_fence_deleted;
          Alcotest.test_case "duplicate flush deleted" `Quick test_duplicate_flush_deleted;
          Alcotest.test_case "unnecessary flush cascades" `Quick test_unnecessary_flush_cascades;
          Alcotest.test_case "overwide flush narrowed" `Quick test_overwide_flush_narrowed;
          Alcotest.test_case "missing flush+fence inserted" `Quick
            test_never_flushed_gets_flush_and_fence;
          Alcotest.test_case "missing fence inserted" `Quick test_flush_without_fence_gets_fence;
          Alcotest.test_case "HOPS drain is a dfence" `Quick test_hops_gets_dfence;
          Alcotest.test_case "eADR legacy flush deleted" `Quick test_eadr_deletes_legacy_flush;
          Alcotest.test_case "missing TX_ADD inserted" `Quick test_unlogged_tx_write_gets_log;
          Alcotest.test_case "logged tx write untouched" `Quick test_logged_tx_write_untouched;
        ] );
      ( "fixpoint",
        [
          Alcotest.test_case "idempotent" `Quick test_idempotent;
          Alcotest.test_case "machine lines" `Quick test_machine_lines;
          Alcotest.test_case "obs counters" `Quick test_obs_counters;
        ] );
      ( "pmfs",
        [
          Alcotest.test_case "fsync drain fence removed" `Quick test_pmfs_fsync_bug;
          Alcotest.test_case "empty-commit fence removed" `Quick test_pmfs_empty_tx_bug;
        ] );
      ( "contract",
        [ Alcotest.test_case "random programs repair and prove" `Quick test_random_programs ] );
      ( "supplied",
        [
          Alcotest.test_case "bug catalog: identical results" `Quick test_supplied_inputs_catalog;
          Alcotest.test_case "200 programs/model: identical results" `Quick
            test_supplied_inputs_random;
        ] );
    ]
