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
module Wire = Pmtest_wire.Wire
module Case = Pmtest_bugdb.Case
module Catalog = Pmtest_bugdb.Catalog

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
    (entries_equal sample_entries (Packed.to_events p));
  (* [kind_of_view] inverts [set_view], the map every encoder and the
     engine's boxed entry share. *)
  let v = Packed.make_view () in
  Array.iter
    (fun (e : Event.t) ->
      Packed.set_view v ~lid:0 e.Event.kind;
      Alcotest.(check bool)
        (Format.asprintf "set_view round trip: %a" Event.pp_kind e.Event.kind)
        true
        (Packed.kind_of_view v = e.Event.kind))
    sample_entries

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

(* Random events exercising varint widths, interning and rule strings.
   Thread ids take one varint byte up to 63, so some are wider, and some
   are negative. *)
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
    let thread = oneof [ int_range 0 7; int_range 64 100_000; int_range (-100_000) (-1) ] in
    map3 (fun kind loc thread -> Event.make ~thread ~loc kind) kind loc thread)

let prop_packed_round_trip =
  QCheck2.Test.make ~name:"packed round trip" ~count:500 ~long_factor:100
    QCheck2.Gen.(array_size (int_range 0 64) gen_entry)
    (fun evs -> entries_equal evs (Packed.to_events (Packed.of_events evs)))

(* Any int, weighted toward both ends of the range and the powers of
   two where a varint gains a byte. *)
let gen_any_int =
  QCheck2.Gen.(
    oneof
      [
        oneofl [ min_int; max_int; 0; -1 ];
        map2 (fun k d -> (1 lsl k) + d) (int_range 0 62) (int_range (-1) 1);
        map2 (fun k d -> d - (1 lsl k)) (int_range 0 62) (int_range (-1) 1);
        int;
      ])

(* One event of each of the 18 tags, every int field drawn from the whole
   range. Range sizes stay positive, as [decode_wire] requires. *)
let gen_wide_entry =
  QCheck2.Gen.(
    let size = map (fun n -> if n = min_int then max_int else max 1 (abs n)) gen_any_int in
    let* tag = int_range 0 17
    and* a = gen_any_int
    and* b = size
    and* c = gen_any_int
    and* d = size
    and* thread = gen_any_int
    and* line = oneof [ int_range 0 999; map (fun n -> n land max_int) gen_any_int ]
    and* rule = string_size ~gen:printable (int_range 0 6) in
    let kind =
      match tag with
      | 0 -> Event.Op (Model.Write { addr = a; size = b })
      | 1 -> Event.Op (Model.Clwb { addr = a; size = b })
      | 2 -> Event.Op Model.Sfence
      | 3 -> Event.Op Model.Ofence
      | 4 -> Event.Op Model.Dfence
      | 5 -> Event.Op Model.Gpf
      | 6 -> Event.Checker (Event.Is_persist { addr = a; size = b })
      | 7 -> Event.Checker (Event.Is_ordered_before { a_addr = a; a_size = b; b_addr = c; b_size = d })
      | 8 -> Event.Tx Event.Tx_begin
      | 9 -> Event.Tx (Event.Tx_add { addr = a; size = b })
      | 10 -> Event.Tx Event.Tx_commit
      | 11 -> Event.Tx Event.Tx_abort
      | 12 -> Event.Tx Event.Tx_checker_start
      | 13 -> Event.Tx Event.Tx_checker_end
      | 14 -> Event.Control (Event.Exclude { addr = a; size = b })
      | 15 -> Event.Control (Event.Include { addr = a; size = b })
      | 16 -> Event.Control (Event.Lint_off { rule })
      | _ -> Event.Control (Event.Lint_on { rule })
    in
    return (Event.make ~thread ~loc:(Loc.make ~file:"wide.c" ~line) kind))

let prop_codec_total_over_int =
  QCheck2.Test.make ~name:"codec total over int" ~count:1000 ~long_factor:100
    QCheck2.Gen.(array_size (int_range 1 8) gen_wide_entry)
    (fun evs ->
      let p = Packed.of_events evs in
      entries_equal evs (Packed.to_events p)
      &&
      match Packed.decode_wire (Packed.encode_wire p) with
      | Ok q -> entries_equal evs (Packed.to_events q)
      | Error e -> QCheck2.Test.fail_report (Packed.decode_error_to_string e))

(* With a prelude, as a session's exclusion preamble arrives: replayed
   boxed before the arena, its entries' location ids are negative. *)
let prop_check_packed_equals_boxed =
  QCheck2.Test.make ~name:"check_packed equals check" ~count:300 ~long_factor:100
    QCheck2.Gen.(
      triple
        (array_size (int_range 1 6) gen_entry)
        (array_size (int_range 0 48) gen_entry)
        (oneofl Model.all_kinds))
    (fun (prelude, evs, model) ->
      let key (r : Report.t) =
        ( List.map
            (fun (d : Report.diagnostic) -> (d.Report.kind, d.Report.loc, d.Report.message))
            r.Report.diagnostics,
          r.Report.entries,
          r.Report.ops,
          r.Report.checkers )
      in
      key (Engine.check ~model ~prelude evs)
      = key (Engine.check_packed ~model ~prelude (Packed.of_events evs)))

(* Location ids take one varint byte up to 63 and two up to 8191: a
   section with more distinct call sites than that decodes ids of
   every width, and every diagnostic still names its own site. *)
let test_many_locations () =
  let n = 9000 in
  let evs =
    Array.init (2 * n) (fun i ->
        let site = i / 2 in
        let loc = Loc.make ~file:"sites.c" ~line:site in
        let addr = 64 * site in
        Event.make ~thread:(site - 4500) ~loc
          (if i mod 2 = 0 then Event.Op (Model.Write { addr; size = 8 })
           else Event.Checker (Event.Is_persist { addr; size = 8 })))
  in
  let p = Packed.of_events evs in
  Alcotest.(check bool) "decode identity" true (entries_equal evs (Packed.to_events p));
  (match Packed.decode_wire (Packed.encode_wire p) with
  | Error e -> Alcotest.fail (Packed.decode_error_to_string e)
  | Ok q -> Alcotest.(check bool) "wire round trip" true (entries_equal evs (Packed.to_events q)));
  let boxed = Engine.check evs and packed = Engine.check_packed p in
  Alcotest.(check string) "same report" (Report.to_string boxed) (Report.to_string packed);
  Alcotest.(check (list int))
    "each failure at its own site"
    (List.init n (fun i -> i))
    (List.map (fun (d : Report.diagnostic) -> d.Report.loc.Loc.line) packed.Report.diagnostics)

(* dune runs tests from _build/default/test; [dune exec] from the root. *)
let corpus_dir = if Sys.file_exists "../fuzz/corpus" then "../fuzz/corpus" else "fuzz/corpus"

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
  Packed.push a ~thread:0 (Event.Op (Model.Write { addr = 0; size = 8 })) Loc.none;
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

(* --- Deterministic decoder fuzz ---------------------------------------------

   Every section the fuzz corpus and the bug catalog send, cut at every
   byte and flipped at every bit, both as a [decode_wire] payload and as
   a whole [Wire] frame. Tier-1 takes the first section of each catalog
   case; the long run (QCHECK_LONG=1) takes every distinct one. *)

let fuzz_sections =
  lazy
    (let long = match Sys.getenv_opt "QCHECK_LONG" with Some ("1" | "true") -> true | _ -> false in
     let seen = Hashtbl.create 64 and out = ref [] in
     let add name evs =
       let s = Packed.encode_wire (Packed.of_events evs) in
       if not (Hashtbl.mem seen s) then begin
         Hashtbl.add seen s ();
         out := (name, s) :: !out
       end
     in
     add "all tags" sample_entries;
     List.iter
       (fun (c : Repro.case) -> add c.Repro.name c.Repro.program.Gen.events)
       (corpus_cases ());
     List.iter
       (fun (c : Case.t) ->
         let n = ref 0 in
         ignore
           (c.Case.run
              ~observer:(fun evs ->
                if long || !n = 0 then add (Printf.sprintf "%s section %d" c.Case.id !n) evs;
                incr n)
              ()))
       Catalog.all;
     List.rev !out)

(* Call [f] on every proper prefix of [s] and on [s] with each bit
   flipped in turn. A flipped mutant is valid only during its call. *)
let iter_mutants s f =
  for n = 0 to String.length s - 1 do
    f (`Cut n) (String.sub s 0 n)
  done;
  let b = Bytes.of_string s in
  for i = 0 to (8 * Bytes.length b) - 1 do
    let orig = Bytes.get b (i / 8) in
    Bytes.set b (i / 8) (Char.chr (Char.code orig lxor (1 lsl (i mod 8))));
    f (`Flip i) (Bytes.unsafe_to_string b);
    Bytes.set b (i / 8) orig
  done

let mutant_name = function
  | `Cut n -> Printf.sprintf "cut at byte %d" n
  | `Flip i -> Printf.sprintf "bit %d flipped" i

(* A mutant that decodes must re-encode to a frame that decodes to the
   same events; a canonical encoding is its own re-encoding. *)
let test_decode_wire_mutants () =
  List.iter
    (fun (name, s) ->
      iter_mutants s (fun mutant m ->
          match Packed.decode_wire m with
          | Error _ -> ()
          | Ok q -> (
            let e = Packed.encode_wire q in
            if not (String.equal e m) then
              match Packed.decode_wire e with
              | Ok q' when entries_equal (Packed.to_events q) (Packed.to_events q') -> ()
              | _ -> Alcotest.failf "%s, %s: decodes but does not round-trip" name (mutant_name mutant))
          | exception e ->
            Alcotest.failf "%s, %s: decode_wire raised %s" name (mutant_name mutant)
              (Printexc.to_string e)))
    (Lazy.force fuzz_sections)

let with_socketpair f =
  let a, b = Unix.socketpair ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) (fun () -> f a b)

(* The bytes [Wire.write_frame] puts on the socket. *)
let raw_frame payload =
  with_socketpair (fun a b ->
      (match Wire.write_frame a Wire.Section payload with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Wire.error_to_string e));
      let len = Wire.header_len + String.length payload in
      let buf = Bytes.create len in
      let rec fill off = if off < len then fill (off + Unix.read b buf off (len - off)) in
      fill 0;
      Bytes.to_string buf)

(* A cut frame, or one whose length field changed, is refused only at
   end of stream, so it travels alone on a socket that is then shut.
   Every other mutant is a whole frame the reader must refuse from its
   own bytes: those share one socket, with a fresh reader each, and a
   reader that waits for more is a failure. *)
let test_wire_refuses_mutants () =
  with_socketpair (fun sa sb ->
      Unix.setsockopt_float sb Unix.SO_RCVTIMEO 5.0;
      List.iter
        (fun (name, s) ->
          iter_mutants (raw_frame s) (fun mutant m ->
              let refused fd =
                match Wire.read_one (Wire.reader ~buffer:(String.length m + 1) fd) with
                | Error Wire.Timeout ->
                  Alcotest.failf "%s, %s: Wire waited on a whole frame" name (mutant_name mutant)
                | Error _ -> ()
                | Ok (kind, _) ->
                  Alcotest.failf "%s, %s: Wire accepted the frame as %s" name
                    (mutant_name mutant) (Wire.kind_name kind)
              in
              let send fd = ignore (Unix.write_substring fd m 0 (String.length m)) in
              match mutant with
              | `Flip i when i < 16 || i >= 48 ->
                send sa;
                refused sb
              | _ ->
                with_socketpair (fun a b ->
                    send a;
                    Unix.shutdown a Unix.SHUTDOWN_SEND;
                    refused b)))
        (Lazy.force fuzz_sections))

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
          Alcotest.test_case "ids past one and two bytes" `Quick test_many_locations;
        ] );
      ( "wire",
        [
          Alcotest.test_case "encode/decode round trip" `Quick test_wire_round_trip;
          Alcotest.test_case "typed errors on truncation" `Quick test_wire_truncated;
          Alcotest.test_case "typed errors on garbage" `Quick test_wire_garbage;
          Alcotest.test_case "byte corruption never raises" `Quick test_wire_corrupted_tag;
        ] );
      ( "decoder-fuzz",
        [
          Alcotest.test_case "decode_wire total on every mutant" `Quick test_decode_wire_mutants;
          Alcotest.test_case "Wire refuses every mutant" `Quick test_wire_refuses_mutants;
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
          [ prop_packed_round_trip; prop_codec_total_over_int; prop_check_packed_equals_boxed ] );
    ]
