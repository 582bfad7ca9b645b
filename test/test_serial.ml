(* Trace serialization: textual round trips, error reporting, and the
   record-then-check-offline workflow. *)

open Pmtest_model
open Pmtest_trace
open Pmtest_pmdk
module Engine = Pmtest_core.Engine
module Report = Pmtest_core.Report
module Sink = Pmtest_trace.Sink

let sample_entries =
  [|
    Event.make ~thread:2
      ~loc:(Pmtest_util.Loc.make ~file:"dir/my file.c" ~line:42)
      (Event.Op (Model.Write { addr = 0x100; size = 64 }));
    Event.make (Event.Op (Model.Clwb { addr = 0x100; size = 64 }));
    Event.make (Event.Op Model.Sfence);
    Event.make (Event.Op Model.Ofence);
    Event.make (Event.Op Model.Dfence);
    Event.make (Event.Op Model.Gpf);
    Event.make (Event.Checker (Event.Is_persist { addr = 0x40; size = 8 }));
    Event.make
      (Event.Checker (Event.Is_ordered_before { a_addr = 1; a_size = 2; b_addr = 3; b_size = 4 }));
    Event.make (Event.Tx Event.Tx_begin);
    Event.make (Event.Tx (Event.Tx_add { addr = 7; size = 9 }));
    Event.make (Event.Tx Event.Tx_commit);
    Event.make (Event.Tx Event.Tx_abort);
    Event.make (Event.Tx Event.Tx_checker_start);
    Event.make (Event.Tx Event.Tx_checker_end);
    Event.make (Event.Control (Event.Exclude { addr = 0; size = 128 }));
    Event.make (Event.Control (Event.Include { addr = 0; size = 64 }));
    Event.make (Event.Control (Event.Lint_off { rule = "flush-without-fence" }));
    Event.make (Event.Control (Event.Lint_on { rule = "flush-without-fence" }));
  |]

(* Every wire tag the format defines; [sample_entries] must exercise all
   of them so the round-trip test cannot silently lose a constructor. *)
let all_tags =
  [
    "w"; "f"; "s"; "o"; "d"; "g"; "cp"; "co"; "tb"; "tc"; "ta"; "tA"; "ts"; "te"; "xe"; "xi";
    "lo"; "li";
  ]

let test_sample_covers_every_tag () =
  let tag (e : Event.t) =
    match String.split_on_char '\t' (Serial.entry_to_line e) with
    | t :: _ -> t
    | [] -> Alcotest.fail "empty serialized line"
  in
  let seen = Array.to_list (Array.map tag sample_entries) in
  List.iter
    (fun t ->
      Alcotest.(check bool) (Printf.sprintf "tag %S exercised" t) true (List.mem t seen))
    all_tags;
  List.iter
    (fun t ->
      Alcotest.(check bool) (Printf.sprintf "tag %S is defined" t) true (List.mem t all_tags))
    seen

let entries_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Event.t) (y : Event.t) ->
         x.Event.kind = y.Event.kind && x.Event.thread = y.Event.thread
         && Pmtest_util.Loc.equal x.Event.loc y.Event.loc)
       a b

let test_round_trip_all_kinds () =
  let tmp = Filename.temp_file "pmtest" ".trace" in
  Serial.save_file tmp sample_entries;
  (match Serial.load_file tmp with
  | Ok got -> Alcotest.(check bool) "identical after round trip" true (entries_equal sample_entries got)
  | Error e -> Alcotest.fail e);
  Sys.remove tmp

let test_malformed_line_reported () =
  List.iter
    (fun line ->
      match Serial.entry_of_line line with
      | Error msg -> Alcotest.(check bool) ("names the line: " ^ msg) true (String.length msg > 0)
      | Ok _ -> Alcotest.failf "accepted garbage %S" line)
    [
      "zz\t0\t-\t0";
      (* Empty or negative ranges have no meaning to any checker. *)
      "w\t0\t-\t0\t256\t0";
      "f\t0\t-\t0\t256\t-64";
      "cp\t0\t-\t0\t256\t0";
      "co\t0\t-\t0\t0\t0\t8\t8";
      "co\t0\t-\t0\t0\t8\t8\t0";
      "tA\t0\t-\t0\t256\t0";
      "xe\t0\t-\t0\t256\t0";
      "xi\t0\t-\t0\t256\t-1";
    ]

let test_offline_check_equals_online () =
  (* Record a buggy workload, write the trace out, read it back and check
     offline: the verdict must match checking the live trace. *)
  let sink, recorded = Serial.recording_sink () in
  let pool = Pool.create ~size:(1 lsl 21) ~sink () in
  let m = Ctree_map.create pool in
  for i = 0 to 7 do
    Pool.tx_checker_start pool;
    Ctree_map.insert ~bug:Ctree_map.Skip_log_root m ~key:(Int64.of_int i)
      ~value:(Bytes.of_string "x");
    Pool.tx_checker_end pool
  done;
  let live = recorded () in
  let tmp = Filename.temp_file "pmtest" ".trace" in
  Serial.save_file tmp live;
  let offline =
    match Serial.load_file tmp with Ok t -> t | Error e -> Alcotest.fail e
  in
  Sys.remove tmp;
  let k report =
    List.sort compare
      (List.map (fun d -> Report.kind_string d.Report.kind) report.Report.diagnostics)
  in
  Alcotest.(check (list string))
    "same diagnostics offline" (k (Engine.check live)) (k (Engine.check offline));
  Alcotest.(check bool) "bug detected" true
    (Report.count Report.Missing_log (Engine.check offline) > 0)

let gen_entry =
  QCheck2.Gen.(
    let addr = int_range 0 4096 and size = int_range 1 128 in
    let loc =
      oneof
        [
          return Pmtest_util.Loc.none;
          map2 (fun f l -> Pmtest_util.Loc.make ~file:("f" ^ string_of_int f) ~line:l) (int_range 0 5)
            (int_range 0 999);
        ]
    in
    let kind =
      oneof
        [
          map2 (fun addr size -> Event.Op (Model.Write { addr; size })) addr size;
          map2 (fun addr size -> Event.Op (Model.Clwb { addr; size })) addr size;
          oneofl
            [
              Event.Op Model.Sfence;
              Event.Op Model.Ofence;
              Event.Op Model.Dfence;
              Event.Op Model.Gpf;
            ];
          map2 (fun addr size -> Event.Checker (Event.Is_persist { addr; size })) addr size;
          map2
            (fun a b ->
              Event.Checker (Event.Is_ordered_before { a_addr = a; a_size = 8; b_addr = b; b_size = 8 }))
            addr addr;
          map2 (fun addr size -> Event.Tx (Event.Tx_add { addr; size })) addr size;
          oneofl
            [
              Event.Tx Event.Tx_begin;
              Event.Tx Event.Tx_commit;
              Event.Tx Event.Tx_abort;
              Event.Tx Event.Tx_checker_start;
              Event.Tx Event.Tx_checker_end;
            ];
          map2 (fun addr size -> Event.Control (Event.Exclude { addr; size })) addr size;
          map2 (fun addr size -> Event.Control (Event.Include { addr; size })) addr size;
          (oneofl [ "flush-without-fence"; "unflushed-write"; "*" ] >|= fun rule ->
           Event.Control (Event.Lint_off { rule }));
          (oneofl [ "redundant-fence"; "*" ] >|= fun rule ->
           Event.Control (Event.Lint_on { rule }));
        ]
    in
    map3 (fun kind loc thread -> Event.make ~thread ~loc kind) kind loc (int_range 0 7))

let prop_line_round_trip =
  QCheck2.Test.make ~name:"entry/line round trip" ~count:500 gen_entry (fun e ->
      match Serial.entry_of_line (Serial.entry_to_line e) with
      | Ok e' ->
        e'.Event.kind = e.Event.kind && e'.Event.thread = e.Event.thread
        && Pmtest_util.Loc.equal e'.Event.loc e.Event.loc
      | Error _ -> false)

(* --- The checked-in corpus ------------------------------------------------------- *)

module Files = Pmtest_util.Files
module Repro = Pmtest_fuzz.Repro
module Crashfs = Pmtest_crashfs.Crashfs

(* dune runs tests from _build/default/test; the corpus is a sibling. *)
let checked_in dir =
  let built = Filename.concat ".." dir in
  if Sys.file_exists built then built else dir

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let file_text path = In_channel.with_open_bin path In_channel.input_all

(* Every checked-in .pmt loads through the one reader, and writing the
   loaded value back gives the file's bytes. *)
let test_corpus_writes_back () =
  let same path text = Alcotest.(check string) path (file_text path) text in
  let fuzz = checked_in "fuzz/corpus" and crashfs = checked_in "fuzz/corpus/crashfs" in
  let files dir =
    let fs = Files.corpus_files dir in
    Alcotest.(check bool) (dir ^ " has files") true (fs <> []);
    fs
  in
  List.iter2 (fun path c -> same path (Repro.case_text c)) (files fuzz) (ok (Repro.load_dir fuzz));
  List.iter2
    (fun path c -> same path (Crashfs.Repro.to_text c))
    (files crashfs) (ok (Crashfs.Repro.load_dir crashfs));
  List.iter
    (fun path ->
      let header = (ok (Files.read_text path)).Files.header in
      let tmp = Filename.temp_file "pmtest" ".pmt" in
      Serial.save_file ~header tmp (ok (Serial.load_file path));
      let text = file_text tmp in
      Sys.remove tmp;
      same path text)
    (files (checked_in "traces"))

(* Blank and comment lines still count, so an error names the file's own
   line number. *)
let test_errors_name_the_file_line () =
  let body = (Files.parse_text "# model: x86\n\ns\t0\t-\t0\n# note\nzz\t0\t-\t0\n").Files.body in
  match Serial.entries_of_body body with
  | Ok _ -> Alcotest.fail "accepted an unknown entry kind"
  | Error e -> Alcotest.(check string) "line number" "line 5" (String.sub e 0 6)

let () =
  Alcotest.run "serial"
    [
      ( "serialization",
        [
          Alcotest.test_case "round trip of every entry kind" `Quick test_round_trip_all_kinds;
          Alcotest.test_case "sample covers every wire tag" `Quick test_sample_covers_every_tag;
          Alcotest.test_case "malformed lines reported" `Quick test_malformed_line_reported;
          Alcotest.test_case "offline check equals online" `Quick test_offline_check_equals_online;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_line_round_trip ]);
      ( "corpus",
        [
          Alcotest.test_case "every checked-in .pmt writes back" `Quick test_corpus_writes_back;
          Alcotest.test_case "errors name the file's line" `Quick test_errors_name_the_file_line;
        ] );
    ]
