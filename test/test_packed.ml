(* The packed trace codec and the flat checking path: round trips across
   all wire tags, decode identity on the regression corpus, report
   equality between Engine.check and Engine.check_packed, arena freelist
   behavior, and the packed session end to end. *)

open Pmtest_model
open Pmtest_trace
module Engine = Pmtest_core.Engine
module Report = Pmtest_core.Report
module Pmtest = Pmtest_core.Pmtest
module Repro = Pmtest_fuzz.Repro
module Gen = Pmtest_fuzz.Gen
module Obs = Pmtest_obs.Obs
module Loc = Pmtest_util.Loc

(* One event per wire tag (18), mirroring test_serial's sample. *)
let sample_entries =
  [|
    Event.make ~thread:2
      ~loc:(Loc.make ~file:"dir/my file.c" ~line:42)
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

let entries_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Event.t) (y : Event.t) ->
         x.Event.kind = y.Event.kind && x.Event.thread = y.Event.thread
         && Loc.equal x.Event.loc y.Event.loc)
       a b

let test_round_trip_all_tags () =
  let p = Packed.of_events sample_entries in
  Alcotest.(check int) "count" (Array.length sample_entries) (Packed.count p);
  Alcotest.(check bool) "decode identity" true (entries_equal sample_entries (Packed.to_events p));
  (* A second decode must see the same events — the cursor resets. *)
  Alcotest.(check bool) "decode is repeatable" true
    (entries_equal sample_entries (Packed.to_events p))

let test_tag_coverage () =
  (* Every tag constructor must be reachable from sample_entries, so the
     round-trip test cannot silently lose a wire shape. *)
  let seen = Hashtbl.create 18 in
  let p = Packed.of_events sample_entries in
  Packed.iter p (fun v -> Hashtbl.replace seen v.Packed.tag ());
  Alcotest.(check int) "all 18 tags exercised" 18 (Hashtbl.length seen)

let test_serial_packed_agree () =
  (* packed -> boxed -> Serial -> boxed -> packed: both codecs preserve
     the same entries. *)
  let boxed = Packed.to_events (Packed.of_events sample_entries) in
  let tmp = Filename.temp_file "pmtest_packed" ".trace" in
  Serial.save_file tmp boxed;
  let reloaded =
    match Serial.load_file tmp with Ok t -> t | Error e -> Alcotest.fail e
  in
  Sys.remove tmp;
  Alcotest.(check bool) "serial round trip of decoded packed" true
    (entries_equal sample_entries reloaded);
  Alcotest.(check bool) "re-pack of serial reload" true
    (entries_equal sample_entries (Packed.to_events (Packed.of_events reloaded)))

(* Random events exercising varint widths, interning and rule strings. *)
let gen_entry =
  QCheck2.Gen.(
    let addr = int_range 0 (1 lsl 20) and size = int_range 1 4096 in
    let loc =
      oneof
        [
          return Loc.none;
          map2
            (fun f l -> Loc.make ~file:("f" ^ string_of_int f) ~line:l)
            (int_range 0 5) (int_range 0 999);
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
              Event.Checker
                (Event.Is_ordered_before { a_addr = a; a_size = 8; b_addr = b; b_size = 8 }))
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
          (oneofl [ "flush-without-fence"; "unflushed-write"; "*"; "" ] >|= fun rule ->
           Event.Control (Event.Lint_off { rule }));
          (oneofl [ "redundant-fence"; "*" ] >|= fun rule ->
           Event.Control (Event.Lint_on { rule }));
        ]
    in
    map3 (fun kind loc thread -> Event.make ~thread ~loc kind) kind loc (int_range 0 7))

let prop_packed_round_trip =
  QCheck2.Test.make ~name:"packed round trip" ~count:500
    QCheck2.Gen.(array_size (int_range 0 64) gen_entry)
    (fun evs -> entries_equal evs (Packed.to_events (Packed.of_events evs)))

let prop_check_packed_equals_boxed =
  QCheck2.Test.make ~name:"check_packed equals check" ~count:300
    QCheck2.Gen.(
      pair
        (array_size (int_range 0 48) gen_entry)
        (oneofl Model.all_kinds))
    (fun (evs, model) ->
      let key (r : Report.t) =
        ( List.map
            (fun (d : Report.diagnostic) -> (d.Report.kind, d.Report.loc, d.Report.message))
            r.Report.diagnostics,
          r.Report.entries,
          r.Report.ops,
          r.Report.checkers )
      in
      key (Engine.check ~model evs) = key (Engine.check_packed ~model (Packed.of_events evs)))

let corpus_dir = "../fuzz/corpus"

let corpus_cases () =
  match Repro.load_dir corpus_dir with
  | Ok cases ->
    if cases = [] then Alcotest.fail "empty corpus";
    cases
  | Error e -> Alcotest.fail e

let test_corpus_decode_identity () =
  List.iter
    (fun (c : Repro.case) ->
      let evs = c.Repro.program.Gen.events in
      Alcotest.(check bool)
        (c.Repro.name ^ " decodes identically")
        true
        (entries_equal evs (Packed.to_events (Packed.of_events evs))))
    (corpus_cases ())

let test_corpus_reports_identical () =
  List.iter
    (fun (c : Repro.case) ->
      let p = c.Repro.program in
      let key (r : Report.t) =
        List.map
          (fun (d : Report.diagnostic) -> (d.Report.kind, d.Report.loc, d.Report.message))
          r.Report.diagnostics
      in
      Alcotest.(check bool)
        (c.Repro.name ^ " same report through both paths")
        true
        (key (Engine.check ~model:p.Gen.model p.Gen.events)
        = key (Engine.check_packed ~model:p.Gen.model (Packed.of_events p.Gen.events))))
    (corpus_cases ())

let test_freelist_recycles () =
  let obs = Obs.create () in
  let a = Packed.alloc ~obs () in
  Packed.push_write a ~thread:0 ~addr:0 ~size:8 Loc.none;
  Packed.free a;
  let b = Packed.alloc ~obs () in
  Alcotest.(check bool) "recycled arena is empty" true (Packed.is_empty b);
  Packed.free b;
  let snap = Obs.snapshot obs in
  Alcotest.(check (option int)) "two allocs accounted" (Some 2)
    (Obs.find snap "arenas_allocated");
  Alcotest.(check bool) "at least one reuse" true (Obs.find snap "arenas_reused" >= Some 1)

(* --- Wire codec and typed decode errors ------------------------------------ *)

let test_wire_round_trip () =
  let p = Packed.of_events sample_entries in
  let s = Packed.encode_wire p in
  match Packed.decode_wire s with
  | Error e -> Alcotest.fail (Packed.decode_error_to_string e)
  | Ok q ->
    Alcotest.(check bool) "wire round trip preserves entries" true
      (entries_equal sample_entries (Packed.to_events q))

let expect_decode_error name s =
  match Packed.decode_wire s with
  | Ok _ -> Alcotest.failf "%s: decoded successfully" name
  | Error e ->
    (* The error must carry a usable position and reason, not just fail. *)
    Alcotest.(check bool) (name ^ " offset in range") true (e.Packed.offset >= 0);
    Alcotest.(check bool) (name ^ " has a reason") true (String.length e.Packed.reason > 0)

let test_wire_truncated () =
  let s = Packed.encode_wire (Packed.of_events sample_entries) in
  (* Every proper prefix must fail with a typed error, never raise. *)
  for len = 0 to min 64 (String.length s - 1) do
    expect_decode_error (Printf.sprintf "prefix of %d bytes" len) (String.sub s 0 len)
  done;
  expect_decode_error "one byte short" (String.sub s 0 (String.length s - 1))

let test_wire_garbage () =
  (* Well-formed arenas whose ranges are empty or negative: the decoder
     must refuse them, or they reach a checking worker's shadow memory. *)
  List.iter
    (fun (name, kind) ->
      expect_decode_error name (Packed.encode_wire (Packed.of_events [| Event.make kind |])))
    [
      ("zero-size write", Event.Op (Model.Write { addr = 0x100; size = 0 }));
      ("negative clwb", Event.Op (Model.Clwb { addr = 0x100; size = -8 }));
      ("zero-size isPersist", Event.Checker (Event.Is_persist { addr = 0x100; size = 0 }));
      ( "zero-size isOrderedBefore b",
        Event.Checker (Event.Is_ordered_before { a_addr = 0; a_size = 8; b_addr = 8; b_size = 0 })
      );
      ("zero-size TX_ADD", Event.Tx (Event.Tx_add { addr = 0; size = 0 }));
      ("zero-size exclude", Event.Control (Event.Exclude { addr = 0; size = 0 }));
      ("negative include", Event.Control (Event.Include { addr = 0; size = -1 }));
    ];
  let rng = Pmtest_util.Rng.create 7 in
  for i = 0 to 99 do
    let len = Pmtest_util.Rng.int rng 200 in
    let s = String.init len (fun _ -> Char.chr (Pmtest_util.Rng.int rng 256)) in
    match Packed.decode_wire s with
    | Error _ -> ()
    | Ok q ->
      (* Random bytes may parse by luck, but then the arena must be
         fully valid — [to_events] must not raise. *)
      (try ignore (Packed.to_events q)
       with e ->
         Alcotest.failf "garbage %d decoded but to_events raised %s" i (Printexc.to_string e))
  done

let test_wire_corrupted_tag () =
  let s = Packed.encode_wire (Packed.of_events sample_entries) in
  let b = Bytes.of_string s in
  (* Smash bytes one at a time; decode must return a typed error or a
     still-valid arena — never throw. *)
  for pos = 0 to min 63 (Bytes.length b - 1) do
    let orig = Bytes.get b pos in
    Bytes.set b pos (Char.chr (Char.code orig lxor 0xff));
    (match Packed.decode_wire (Bytes.to_string b) with
    | Error _ -> ()
    | Ok q -> ignore (Packed.to_events q));
    Bytes.set b pos orig
  done

let check_session ~packed ~workers () =
  let t = Pmtest.init ~model:Model.X86 ~workers ~packed () in
  (* Two sections with an exclusion scope crossing the boundary, checkers
     on both sides — exercises the preamble fallback and the fast path. *)
  Pmtest.emit t (Event.Op (Model.Write { addr = 0x00; size = 8 }));
  Pmtest.emit t (Event.Op (Model.Clwb { addr = 0x00; size = 8 }));
  Pmtest.emit t (Event.Op Model.Sfence);
  Pmtest.is_persist t ~addr:0x00 ~size:8;
  Pmtest.exclude t ~addr:0x100 ~size:0x10;
  Pmtest.emit t (Event.Op (Model.Write { addr = 0x100; size = 8 }));
  Pmtest.send_trace t;
  Pmtest.emit t (Event.Op (Model.Write { addr = 0x40; size = 8 }));
  Pmtest.is_persist t ~addr:0x40 ~size:8;
  Pmtest.emit t (Event.Op (Model.Write { addr = 0x104; size = 4 }));
  Pmtest.include_ t ~addr:0x100 ~size:0x10;
  Pmtest.send_trace t;
  Pmtest.emit t (Event.Op (Model.Write { addr = 0x200; size = 8 }));
  Pmtest.finish t

let report_key (r : Report.t) =
  ( List.sort compare
      (List.map
         (fun (d : Report.diagnostic) -> (Report.kind_string d.Report.kind, d.Report.message))
         r.Report.diagnostics),
    r.Report.ops,
    r.Report.checkers )

let test_packed_session_equals_boxed () =
  let boxed = check_session ~packed:false ~workers:0 () in
  List.iter
    (fun workers ->
      let packed = check_session ~packed:true ~workers () in
      Alcotest.(check bool)
        (Printf.sprintf "same verdict, packed session, %d worker(s)" workers)
        true
        (report_key packed = report_key boxed))
    [ 0; 1; 2 ]

let test_packed_session_observers_see_sections () =
  (* Observers force the boxed fallback; the decoded sections must carry
     exactly what was traced. *)
  let t = Pmtest.init ~model:Model.X86 ~workers:0 ~packed:true () in
  let seen = ref 0 in
  Pmtest.on_section t (fun section -> seen := !seen + Array.length section);
  Pmtest.emit t (Event.Op (Model.Write { addr = 0; size = 8 }));
  Pmtest.emit t (Event.Op (Model.Clwb { addr = 0; size = 8 }));
  Pmtest.emit t (Event.Op Model.Sfence);
  Pmtest.send_trace t;
  ignore (Pmtest.finish t);
  Alcotest.(check int) "observer saw every entry" 3 !seen

(* The preamble travels beside a section, never copied into it; only
   observers see it at the section's head.  What they see must check to
   the session's own report, boxed or packed. *)
let test_session_preamble_beside_section () =
  List.iter
    (fun packed ->
      let t = Pmtest.init ~model:Model.X86 ~workers:0 ~packed () in
      let seen = ref [] in
      Pmtest.on_section t (fun section -> seen := section :: !seen);
      Pmtest.exclude t ~addr:0x100 ~size:0x10;
      Pmtest.send_trace t;
      Pmtest.emit t (Event.Op (Model.Write { addr = 0x100; size = 8 }));
      Pmtest.is_persist t ~addr:0x100 ~size:8;
      Pmtest.emit t (Event.Op (Model.Write { addr = 0x200; size = 8 }));
      Pmtest.is_persist t ~addr:0x200 ~size:8;
      Pmtest.send_trace t;
      let r = Pmtest.finish t in
      let sections = List.rev !seen in
      let name = if packed then "packed" else "boxed" in
      (match sections with
      | [ _; second ] ->
        Alcotest.(check bool)
          (name ^ ": preamble heads the observed section")
          true
          (second.(0).Event.kind = Event.Control (Event.Exclude { addr = 0x100; size = 0x10 }))
      | l -> Alcotest.failf "%s: observed %d sections, expected 2" name (List.length l));
      let replayed =
        List.fold_left (fun acc a -> Report.merge acc (Engine.check a)) Report.empty sections
      in
      Alcotest.(check string)
        (name ^ ": report of the observed sections")
        (Report.to_string replayed) (Report.to_string r);
      Alcotest.(check int) (name ^ ": only the write outside the hole fails") 1
        (List.length (Report.fails r)))
    [ false; true ]

let () =
  Alcotest.run "packed"
    [
      ( "codec",
        [
          Alcotest.test_case "round trip of every wire tag" `Quick test_round_trip_all_tags;
          Alcotest.test_case "all 18 tags reachable" `Quick test_tag_coverage;
          Alcotest.test_case "agrees with the serial codec" `Quick test_serial_packed_agree;
          Alcotest.test_case "freelist recycles arenas" `Quick test_freelist_recycles;
        ] );
      ( "wire",
        [
          Alcotest.test_case "encode/decode round trip" `Quick test_wire_round_trip;
          Alcotest.test_case "typed errors on truncation" `Quick test_wire_truncated;
          Alcotest.test_case "typed errors on garbage" `Quick test_wire_garbage;
          Alcotest.test_case "byte corruption never raises" `Quick test_wire_corrupted_tag;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "decode identity on every case" `Quick test_corpus_decode_identity;
          Alcotest.test_case "reports identical on every case" `Quick test_corpus_reports_identical;
        ] );
      ( "session",
        [
          Alcotest.test_case "packed session equals boxed" `Quick test_packed_session_equals_boxed;
          Alcotest.test_case "observers see decoded sections" `Quick
            test_packed_session_observers_see_sections;
          Alcotest.test_case "preamble travels beside the section" `Quick
            test_session_preamble_beside_section;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_packed_round_trip; prop_check_packed_equals_boxed ] );
    ]
