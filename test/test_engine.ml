(* The checking engine against the paper's worked examples (Fig. 3, 4, 7)
   and each update/checking rule of §4.4, §5.1 and §5.2. *)

open Pmtest_model
open Pmtest_trace
module Engine = Pmtest_core.Engine
module Report = Pmtest_core.Report
module Pmtest = Pmtest_core.Pmtest

let e kind = Event.make kind
let w addr size = e (Event.Op (Model.Write { addr; size }))
let clwb addr size = e (Event.Op (Model.Clwb { addr; size }))
let sfence = e (Event.Op Model.Sfence)
let ofence = e (Event.Op Model.Ofence)
let dfence = e (Event.Op Model.Dfence)
let is_persist addr size = e (Event.Checker (Event.Is_persist { addr; size }))

let obefore a_addr a_size b_addr b_size =
  e (Event.Checker (Event.Is_ordered_before { a_addr; a_size; b_addr; b_size }))

let tx k = e (Event.Tx k)
let tx_add addr size = e (Event.Tx (Event.Tx_add { addr; size }))

let check ?model entries = Engine.check ?model (Array.of_list entries)

let kinds report = List.map (fun d -> d.Report.kind) report.Report.diagnostics

let check_kinds ?model entries expected =
  Alcotest.(check (list string))
    "diagnostic kinds"
    (List.map Report.kind_string expected)
    (List.map Report.kind_string (kinds (check ?model entries)))

(* --- Fig. 7: the paper's worked example --------------------------------- *)

let test_fig7 () =
  (* write(0x10,64); clwb(0x10,64); sfence; write(0x50,64);
     isPersist(0x50,64)          -> FAIL (persist interval (1,inf))
     isOrderedBefore(0x10,0x50)  -> pass ((0,1) vs (1,inf) do not overlap) *)
  let trace =
    [
      w 0x10 64; clwb 0x10 64; sfence; w 0x50 64;
      is_persist 0x50 64;
      obefore 0x10 64 0x50 64;
    ]
  in
  check_kinds trace [ Report.Not_persisted ];
  (* And the shadow state matches the figure's interval table. *)
  let _, snap = Engine.check_with_snapshot (Array.of_list trace) in
  Alcotest.(check int) "timestamp after one sfence" 1 snap.Engine.timestamp;
  List.iter
    (fun r ->
      let open Engine in
      if r.lo = 0x10 then
        Alcotest.(check string) "0x10 interval" "(0,1)" (Format.asprintf "%a" Interval.pp r.persist)
      else if r.lo = 0x50 then
        Alcotest.(check string) "0x50 interval" "(1,inf)" (Format.asprintf "%a" Interval.pp r.persist))
    snap.Engine.ranges

(* --- Fig. 4: overlap means unordered ------------------------------------ *)

let test_fig4 () =
  (* sfence; write A; clwb A; write B; sfence;
     isOrderedBefore A B -> FAIL (A=(1,2), B=(1,inf) overlap)
     isPersist B         -> FAIL *)
  let trace =
    [
      sfence; w 0x100 8; clwb 0x100 8; w 0x200 8; sfence;
      obefore 0x100 8 0x200 8;
      is_persist 0x200 8;
    ]
  in
  check_kinds trace [ Report.Not_ordered; Report.Not_persisted ]

let test_fig3_x86_correct () =
  (* write A; clwb A; sfence; write B; clwb B; sfence; both checkers pass. *)
  let trace =
    [
      w 0x100 8; clwb 0x100 8; sfence;
      w 0x200 8; clwb 0x200 8; sfence;
      obefore 0x100 8 0x200 8;
      is_persist 0x100 8;
      is_persist 0x200 8;
    ]
  in
  check_kinds trace []

let test_fig3_hops_correct () =
  (* write A; ofence; write B; dfence: ordering from ofence, durability
     from dfence (paper Fig. 3b). *)
  let trace =
    [
      w 0x100 8; ofence; w 0x200 8; dfence;
      obefore 0x100 8 0x200 8;
      is_persist 0x100 8;
      is_persist 0x200 8;
    ]
  in
  check_kinds ~model:Model.Hops trace []

let test_hops_ofence_orders_without_durability () =
  let trace =
    [
      w 0x100 8; ofence; w 0x200 8;
      obefore 0x100 8 0x200 8; (* pass: ofence separates the epochs *)
      is_persist 0x100 8; (* FAIL: no dfence yet *)
    ]
  in
  check_kinds ~model:Model.Hops trace [ Report.Not_persisted ]

let test_hops_same_epoch_unordered () =
  let trace = [ w 0x100 8; w 0x200 8; dfence; obefore 0x100 8 0x200 8 ] in
  check_kinds ~model:Model.Hops trace [ Report.Not_ordered ]

(* --- x86 rule details ---------------------------------------------------- *)

let test_write_clears_flush () =
  (* write; clwb; write again; sfence: the second write is NOT covered by
     the earlier clwb, so isPersist must fail. *)
  let trace = [ w 0x100 8; clwb 0x100 8; w 0x100 8; sfence; is_persist 0x100 8 ] in
  check_kinds trace [ Report.Not_persisted ]

let test_clwb_without_fence_not_durable () =
  let trace = [ w 0x100 8; clwb 0x100 8; is_persist 0x100 8 ] in
  check_kinds trace [ Report.Not_persisted ]

let test_partial_flush_fails () =
  (* Only half the range is written back. *)
  let trace = [ w 0x100 16; clwb 0x100 8; sfence; is_persist 0x100 16 ] in
  check_kinds trace [ Report.Not_persisted ]

let test_page_straddling_write_golden () =
  (* The shadow memory is indexed by 4 KiB page: a write across 0x1000 is
     stored as two segments and stitched back into one logical range.
     Only the first half is written back, so the unflushed piece starts
     exactly at the page boundary. *)
  let r = check [ w 0xff8 16; clwb 0xff8 8; sfence; is_persist 0xff8 16 ] in
  Alcotest.(check string) "report text"
    "1 diagnostic(s) over 4 entries:\n\
    \  FAIL [not-persisted] isPersist(0xff8,16): write at <unknown> to [0x1000,+8) has \
     persist interval (0,inf) at timestamp 1 @ <unknown>"
    (Format.asprintf "%a" Report.pp r)

(* Report text and shadow table after [trace], identical on the packed
   path: the splits a partial clwb or an exclusion hole makes are
   observable as shadow fragmentation. *)
let check_golden trace ~report ~ranges =
  let entries = Array.of_list trace in
  let r, snap = Engine.check_with_snapshot entries in
  let text r = Format.asprintf "%a" Report.pp r in
  Alcotest.(check string) "report text" report (text r);
  Alcotest.(check string) "packed report text" report
    (text (Engine.check_packed (Packed.of_events entries)));
  let range (x : Engine.range_status) =
    Format.asprintf "[0x%x,0x%x) %a %s" x.lo x.hi Interval.pp x.persist
      (match x.flush with None -> "-" | Some i -> Format.asprintf "%a" Interval.pp i)
  in
  Alcotest.(check (list string)) "shadow ranges" ranges (List.map range snap.Engine.ranges)

let test_partial_clwb_of_straddling_write_golden () =
  (* The first clwb starts on the page edge inside the write: the map
     splits there and severs the join, so the write's two halves carry
     different flush epochs from then on. *)
  check_golden
    [ w 0xff8 16; clwb 0x1000 8; sfence; clwb 0xff8 16; is_persist 0xff8 16 ]
    ~report:
      "2 diagnostic(s) over 5 entries:\n\
      \  WARN [duplicate-writeback] persistent object [0xff8,+16) written back more than \
       once @ <unknown>\n\
      \  FAIL [not-persisted] isPersist(0xff8,16): write at <unknown> to [0xff8,+8) has \
       persist interval (0,inf) at timestamp 1 @ <unknown>"
    ~ranges:[ "[0xff8,0x1000) (0,inf) (1,inf)"; "[0x1000,0x1008) (0,1) (0,1)" ]

let test_write_over_exclusion_hole_golden () =
  (* A transactional write across the hole [0x100,0x110): only its two
     outer pieces are checked — the logged left one passes, the right one
     misses its log, its writeback and its persist — while the shadow
     records the whole store. *)
  check_golden
    [
      e (Event.Control (Event.Exclude { addr = 0x100; size = 0x10 }));
      tx Event.Tx_checker_start; tx Event.Tx_begin; tx_add 0xf8 8;
      w 0xf8 0x20; tx Event.Tx_commit; clwb 0xf8 0x10; sfence; is_persist 0xf8 0x20;
      tx Event.Tx_checker_end;
    ]
    ~report:
      "3 diagnostic(s) over 10 entries:\n\
      \  FAIL [missing-log] persistent object [0x110,+8) modified inside a transaction \
       without a backup log entry @ <unknown>\n\
      \  FAIL [not-persisted] isPersist(0xf8,32): write at <unknown> to [0x110,+8) has \
       persist interval (0,inf) at timestamp 1 @ <unknown>\n\
      \  FAIL [incomplete-transaction] transaction update at <unknown> to [0x110,+8) not \
       persisted when the transaction checker scope ends (persist interval (0,inf), \
       timestamp 1) @ <unknown>"
    ~ranges:[ "[0xf8,0x100) (0,1) (0,1)"; "[0x100,0x118) (0,inf) -" ]

let test_unwritten_range_passes () =
  check_kinds [ is_persist 0x500 8 ] [];
  check_kinds [ obefore 0x500 8 0x600 8 ] []

let test_later_clwb_closes_at_its_fence () =
  (* write in epoch 0; fence; clwb in epoch 1; fence -> interval (0,2). *)
  let trace = [ w 0x100 8; sfence; clwb 0x100 8; sfence; is_persist 0x100 8 ] in
  check_kinds trace [];
  let _, snap =
    Engine.check_with_snapshot (Array.of_list [ w 0x100 8; sfence; clwb 0x100 8; sfence ])
  in
  match snap.Engine.ranges with
  | [ r ] -> Alcotest.(check string) "interval" "(0,2)" (Format.asprintf "%a" Interval.pp r.Engine.persist)
  | _ -> Alcotest.fail "expected a single shadow range"

(* --- eADR rules (extension: persistent caches) --------------------------- *)

let test_eadr_stores_immediately_durable () =
  check_kinds ~model:Model.Eadr [ w 0x100 8; is_persist 0x100 8 ] []

let test_eadr_program_order_is_persist_order () =
  check_kinds ~model:Model.Eadr [ w 0x100 8; w 0x200 8; obefore 0x100 8 0x200 8 ] [];
  check_kinds ~model:Model.Eadr [ w 0x200 8; w 0x100 8; obefore 0x100 8 0x200 8 ]
    [ Report.Not_ordered ]

let test_eadr_flags_redundant_writebacks () =
  (* Legacy clwb/sfence code running on an eADR platform: every clwb is
     wasted work. *)
  check_kinds ~model:Model.Eadr
    [ w 0x100 8; clwb 0x100 8; sfence ]
    [ Report.Unnecessary_writeback ]

let test_eadr_tx_scope_passes_without_flushes () =
  let trace =
    [
      tx Event.Tx_checker_start;
      tx Event.Tx_begin;
      tx_add 0x100 8;
      w 0x100 8;
      tx Event.Tx_commit;
      tx Event.Tx_checker_end;
    ]
  in
  check_kinds ~model:Model.Eadr trace []

(* --- Performance checkers (§5.1.2) -------------------------------------- *)

let test_unnecessary_writeback () =
  check_kinds [ clwb 0x100 8; sfence ] [ Report.Unnecessary_writeback ]

let test_duplicate_writeback () =
  check_kinds
    [ w 0x100 8; clwb 0x100 8; clwb 0x100 8; sfence ]
    [ Report.Duplicate_writeback ]

let test_duplicate_writeback_after_fence () =
  (* Flushing again after the data already persisted is still redundant. *)
  check_kinds
    [ w 0x100 8; clwb 0x100 8; sfence; clwb 0x100 8; sfence ]
    [ Report.Duplicate_writeback ]

let test_flush_then_write_then_flush_ok () =
  (* A new write invalidates the old flush: the second clwb is needed. *)
  check_kinds [ w 0x100 8; clwb 0x100 8; sfence; w 0x100 8; clwb 0x100 8; sfence ] []

(* --- Transaction checkers (§5.1.1) --------------------------------------- *)

let test_tx_clean () =
  let trace =
    [
      tx Event.Tx_checker_start;
      tx Event.Tx_begin;
      tx_add 0x100 8;
      w 0x100 8;
      tx Event.Tx_commit;
      clwb 0x100 8; sfence;
      tx Event.Tx_checker_end;
    ]
  in
  check_kinds trace []

let test_tx_missing_log () =
  let trace =
    [
      tx Event.Tx_checker_start;
      tx Event.Tx_begin;
      w 0x100 8; (* no tx_add *)
      tx Event.Tx_commit;
      clwb 0x100 8; sfence;
      tx Event.Tx_checker_end;
    ]
  in
  check_kinds trace [ Report.Missing_log ]

let test_tx_incomplete_not_persisted () =
  let trace =
    [
      tx Event.Tx_checker_start;
      tx Event.Tx_begin;
      tx_add 0x100 8;
      w 0x100 8;
      tx Event.Tx_commit;
      (* no writeback at commit *)
      tx Event.Tx_checker_end;
    ]
  in
  check_kinds trace [ Report.Incomplete_tx ]

let test_tx_never_terminated () =
  let trace =
    [
      tx Event.Tx_checker_start;
      tx Event.Tx_begin;
      tx_add 0x100 8;
      w 0x100 8;
      clwb 0x100 8; sfence;
      tx Event.Tx_checker_end;
    ]
  in
  check_kinds trace [ Report.Incomplete_tx ]

let test_tx_duplicate_log () =
  let trace =
    [
      tx Event.Tx_begin;
      tx_add 0x100 8;
      tx_add 0x100 8;
      w 0x100 8;
      tx Event.Tx_commit;
    ]
  in
  check_kinds trace [ Report.Duplicate_log ]

let test_tx_partial_log_is_missing () =
  let trace =
    [
      tx Event.Tx_checker_start;
      tx Event.Tx_begin;
      tx_add 0x100 8;
      w 0x100 16; (* only half backed up *)
      tx Event.Tx_commit;
      clwb 0x100 16; sfence;
      tx Event.Tx_checker_end;
    ]
  in
  check_kinds trace [ Report.Missing_log ]

let test_nested_tx_inner_end_not_durable () =
  (* §7.1: updates are only guaranteed durable at the OUTERMOST commit, so
     a checker scope around the inner transaction fails. *)
  let inner_scope =
    [
      tx Event.Tx_begin;
      tx Event.Tx_checker_start;
      tx Event.Tx_begin;
      tx_add 0x100 8;
      w 0x100 8;
      tx Event.Tx_commit; (* inner end: nothing flushed *)
      tx Event.Tx_checker_end;
      tx Event.Tx_commit;
      clwb 0x100 8; sfence;
    ]
  in
  Alcotest.(check bool) "inner scope reports" true (Report.has_fail (check inner_scope));
  let outer_scope =
    [
      tx Event.Tx_checker_start;
      tx Event.Tx_begin;
      tx Event.Tx_begin;
      tx_add 0x100 8;
      w 0x100 8;
      tx Event.Tx_commit;
      tx Event.Tx_commit;
      clwb 0x100 8; sfence;
      tx Event.Tx_checker_end;
    ]
  in
  check_kinds outer_scope []

(* --- Exclusion (Table 2) -------------------------------------------------- *)

let test_exclusion () =
  let excl addr size = e (Event.Control (Event.Exclude { addr; size })) in
  let incl addr size = e (Event.Control (Event.Include { addr; size })) in
  (* Excluded writes are invisible to checkers. *)
  check_kinds [ excl 0x100 8; w 0x100 8; is_persist 0x100 8 ] [];
  (* Include restores tracking. *)
  check_kinds [ excl 0x100 8; incl 0x100 8; w 0x100 8; is_persist 0x100 8 ]
    [ Report.Not_persisted ]

let test_exclusion_scopes_tx_checker () =
  let excl addr size = e (Event.Control (Event.Exclude { addr; size })) in
  let trace =
    [
      excl 0x200 8;
      tx Event.Tx_checker_start;
      tx Event.Tx_begin;
      tx_add 0x100 8;
      w 0x100 8;
      w 0x200 8; (* excluded: no missing-log, no persistence obligation *)
      tx Event.Tx_commit;
      clwb 0x100 8; sfence;
      tx Event.Tx_checker_end;
    ]
  in
  check_kinds trace []

(* --- Model mismatch -------------------------------------------------------- *)

let test_invalid_op () =
  check_kinds ~model:Model.Hops [ w 0x100 8; clwb 0x100 8; sfence ]
    [ Report.Invalid_op; Report.Invalid_op ];
  check_kinds ~model:Model.X86 [ w 0x100 8; ofence ] [ Report.Invalid_op ]

(* --- Report bookkeeping --------------------------------------------------- *)

let test_report_counts () =
  let r = check [ w 0x100 8; clwb 0x100 8; sfence; is_persist 0x100 8 ] in
  Alcotest.(check int) "entries" 4 r.Report.entries;
  Alcotest.(check int) "ops" 3 r.Report.ops;
  Alcotest.(check int) "checkers" 1 r.Report.checkers;
  Alcotest.(check bool) "clean" true (Report.is_clean r)

let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_report_summarize () =
  (* Repeated diagnostics at one site collapse into one summary row. *)
  let entries =
    Array.concat
      (List.init 50 (fun _ ->
           [| w 0x100 8; e (Event.Checker (Event.Is_persist { addr = 0x100; size = 8 })) |]))
  in
  let r = Engine.check entries in
  Alcotest.(check int) "50 diagnostics" 50 (List.length r.Report.diagnostics);
  (match Report.summarize r with
  | [ (Report.Not_persisted, _, _, 50) ] -> ()
  | other -> Alcotest.failf "unexpected summary with %d groups" (List.length other));
  let s = Format.asprintf "%a" Report.pp_summary r in
  Alcotest.(check bool) "count printed" true (string_contains s "(x50)")

let test_report_merge () =
  let a = check [ w 0x100 8; is_persist 0x100 8 ] in
  let b = check [ w 0x200 8; clwb 0x200 8; sfence ] in
  let m = Report.merge a b in
  Alcotest.(check int) "entries add" (a.Report.entries + b.Report.entries) m.Report.entries;
  Alcotest.(check int) "one fail" 1 (List.length (Report.fails m))

(* --- Allocation budget ------------------------------------------------------ *)

(* Every section a session hands its target, as its observers see it:
   with the exclusion preamble at its head. *)
let session_corpus drive =
  let s = Pmtest.init ~workers:0 () in
  let sections = ref [] in
  Pmtest.on_section s (fun section -> sections := section :: !sections);
  drive s;
  ignore (Pmtest.finish s);
  List.rev !sections

(* Fig. 11's Redis+LRU op mix, a section every 16 ops. *)
let redis_corpus () =
  let module Redis = Pmtest_workloads.Redis in
  session_corpus (fun s ->
      let r = Redis.create ~sink:(Pmtest.sink s) () in
      Array.iteri
        (fun i op ->
          Redis.apply r op;
          if (i + 1) mod 16 = 0 then Pmtest.send_trace s)
        (Pmtest_workloads.Clients.redis_lru ~ops:2000 ~keys:16384 (Pmtest_util.Rng.create 3)))

(* Fig. 10a's C-Tree cell: TX-checked 64 B inserts, one ~66-entry
   section each. *)
let ctree_corpus () =
  let module Pool = Pmtest_pmdk.Pool in
  let module Ctree_map = Pmtest_pmdk.Ctree_map in
  session_corpus (fun s ->
      let pool = Pool.create ~size:(8 * 1024 * 1024) ~sink:(Pmtest.sink s) () in
      let m = Ctree_map.create pool in
      let value = Bytes.make 64 'v' in
      for i = 1 to 400 do
        Pool.tx_checker_start pool;
        Ctree_map.insert m ~key:(Int64.of_int (i * 2654435761 land 0xffffff)) ~value;
        Pool.tx_checker_end pool;
        Pmtest.send_trace s
      done)

let entries_of sections = List.fold_left (fun n a -> n + Array.length a) 0 sections

(* Minor words per entry of [check] over [items], after one warm-up
   pass has grown this domain's engine state.  [Gc.minor_words] counts
   this domain exactly, so the bound needs no timing slack. *)
let words_per_entry check items ~entries =
  List.iter check items;
  let w0 = Gc.minor_words () in
  List.iter check items;
  (Gc.minor_words () -. w0) /. float_of_int entries

(* The packed engine over the Redis+LRU corpus.  It measured 110
   words/entry before its hot path stopped building lists, options and
   closures per entry, about 8 after, about 5.8 once scope ends stopped
   sorting page keys and an exact rewrite of a stored range reused its
   segment, and about 0.02 once the state was kept between sections and
   the shadow stored only ints. *)
let test_check_packed_allocation_budget () =
  let redis = redis_corpus () in
  let entries = entries_of redis in
  let per_entry =
    words_per_entry (fun p -> ignore (Engine.check_packed p)) (List.map Packed.of_events redis)
      ~entries
  in
  if per_entry > 2.0 then
    Alcotest.failf "check_packed allocated %.2f minor words/entry over %d entries (budget 2)"
      per_entry entries

(* The boxed engine over ~66-entry C-Tree sections, where per-section
   costs dominate: 11.5 words/entry when every section built a fresh
   state. *)
let test_check_allocation_budget () =
  let ctree = ctree_corpus () in
  let entries = entries_of ctree in
  let per_entry = words_per_entry (fun a -> ignore (Engine.check a)) ctree ~entries in
  if per_entry > 2.5 then
    Alcotest.failf "check allocated %.2f minor words/entry over %d entries (budget 2.5)"
      per_entry entries

(* A kept state must not point into the minor heap between passes: a
   young value stored in its old arrays is promoted at the next minor
   collection, on every section.  A minor collection after each pass
   promotes whatever the kept state still holds; the corpus itself is
   old by then. *)
let promoted_per_entry check items ~entries =
  List.iter check items;
  Gc.full_major ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  List.iter
    (fun x ->
      check x;
      Gc.minor ())
    items;
  ((Gc.quick_stat ()).Gc.promoted_words -. p0) /. float_of_int entries

let test_check_promotes_nothing () =
  let ctree = ctree_corpus () and redis = redis_corpus () in
  let arenas = List.map Packed.of_events redis in
  let boxed sections = promoted_per_entry (fun a -> ignore (Engine.check a)) sections in
  List.iter
    (fun (name, per_entry) ->
      if per_entry > 0.05 then
        Alcotest.failf "%s promoted %.3f words/entry (bound 0.05)" name per_entry)
    [
      ("check over C-Tree", boxed ctree ~entries:(entries_of ctree));
      ("check over Redis", boxed redis ~entries:(entries_of redis));
      ( "check_packed over Redis",
        promoted_per_entry (fun p -> ignore (Engine.check_packed p)) arenas
          ~entries:(entries_of redis) );
    ]

(* --- The kept state --------------------------------------------------------- *)

(* Each pass reuses its domain's engine state.  Whatever ran before — a
   concurrent pass, a pass that raised, a section too big to keep — the
   reports must be the ones a sequential run gives. *)

let digest_reports check sections =
  List.map (fun a -> Report.to_string (check a)) sections

let boxed_and_packed sections =
  digest_reports (fun a -> Engine.check a) sections
  @ digest_reports (fun a -> Engine.check_packed (Packed.of_events a)) sections

let test_systhreads_share_a_domain () =
  let ctree = ctree_corpus () and redis = redis_corpus () in
  let want_c = boxed_and_packed ctree and want_r = boxed_and_packed redis in
  (* Enough rounds that the tick preempts passes midway. *)
  let rounds = 8 in
  let run sections out () =
    for _ = 1 to rounds do
      out := boxed_and_packed sections :: !out;
      Thread.yield ()
    done
  in
  let got_c = ref [] and got_r = ref [] in
  let tc = Thread.create (run ctree got_c) () and tr = Thread.create (run redis got_r) () in
  Thread.join tc;
  Thread.join tr;
  List.iter (fun got -> Alcotest.(check (list string)) "C-Tree reports" want_c got) !got_c;
  List.iter (fun got -> Alcotest.(check (list string)) "Redis reports" want_r got) !got_r;
  Alcotest.(check int) "every round ran" (2 * rounds) (List.length !got_c + List.length !got_r)

let test_domains_check_at_once () =
  let ctree = ctree_corpus () and redis = redis_corpus () in
  let want_c = boxed_and_packed ctree and want_r = boxed_and_packed redis in
  let dc = Domain.spawn (fun () -> List.init 3 (fun _ -> boxed_and_packed ctree)) in
  let dr = Domain.spawn (fun () -> List.init 3 (fun _ -> boxed_and_packed redis)) in
  List.iter (Alcotest.(check (list string)) "C-Tree reports" want_c) (Domain.join dc);
  List.iter (Alcotest.(check (list string)) "Redis reports" want_r) (Domain.join dr)

let test_raise_leaves_next_check_correct () =
  let ctree = ctree_corpus () in
  let want = boxed_and_packed ctree in
  (* A pass that has filled its shadow, TX log, scope and exclusion
     holes, then dies on an empty-range write. *)
  let dirty = Array.concat [ List.nth ctree 1; List.nth ctree 2 ] in
  let bad = Array.append dirty [| w 0x2000 0 |] in
  Alcotest.check_raises "empty range write" (Invalid_argument "Page_map.set: empty range")
    (fun () -> ignore (Engine.check bad));
  Alcotest.(check (list string)) "reports after the raise" want (boxed_and_packed ctree)

let test_oversized_section_is_not_kept () =
  let ctree = ctree_corpus () in
  let want = boxed_and_packed ctree in
  (* Writes on far more pages, and far more statuses, than a kept state
     may hold, left unflushed and in scope. *)
  let huge =
    Array.concat
      [
        [| tx Event.Tx_checker_start |];
        Array.init 5000 (fun i -> w ((i * 4096) + (i mod 64)) 8);
        [| is_persist 0 (5000 * 4096); tx Event.Tx_checker_end |];
      ]
  in
  let r = Engine.check huge in
  Alcotest.(check int) "huge section checked" 5003 r.Report.entries;
  (* The huge state was dropped: the next pass grows a fresh one, the
     pass after that finds it kept. *)
  let small = [| w 0x100 8; clwb 0x100 8; sfence; is_persist 0x100 8 |] in
  let words () =
    let w0 = Gc.minor_words () in
    ignore (Engine.check small);
    Gc.minor_words () -. w0
  in
  let fresh = words () in
  let kept = words () in
  if not (fresh > 100. && kept < 40.) then
    Alcotest.failf "a pass after the huge one allocated %.0f words, the next %.0f" fresh kept;
  Alcotest.(check (list string)) "reports after it" want (boxed_and_packed ctree)

let () =
  Alcotest.run "engine"
    [
      ( "paper-figures",
        [
          Alcotest.test_case "Fig. 7 worked example" `Quick test_fig7;
          Alcotest.test_case "Fig. 4 overlap example" `Quick test_fig4;
          Alcotest.test_case "Fig. 3a x86 correct trace" `Quick test_fig3_x86_correct;
          Alcotest.test_case "Fig. 3b HOPS correct trace" `Quick test_fig3_hops_correct;
        ] );
      ( "x86-rules",
        [
          Alcotest.test_case "write invalidates pending flush" `Quick test_write_clears_flush;
          Alcotest.test_case "clwb without fence is not durable" `Quick
            test_clwb_without_fence_not_durable;
          Alcotest.test_case "partial flush fails isPersist" `Quick test_partial_flush_fails;
          Alcotest.test_case "page-straddling write golden" `Quick
            test_page_straddling_write_golden;
          Alcotest.test_case "partial clwb of a straddling write golden" `Quick
            test_partial_clwb_of_straddling_write_golden;
          Alcotest.test_case "write over an exclusion hole golden" `Quick
            test_write_over_exclusion_hole_golden;
          Alcotest.test_case "unwritten ranges pass vacuously" `Quick test_unwritten_range_passes;
          Alcotest.test_case "late clwb closes at its own fence" `Quick
            test_later_clwb_closes_at_its_fence;
        ] );
      ( "eadr-rules",
        [
          Alcotest.test_case "stores immediately durable" `Quick
            test_eadr_stores_immediately_durable;
          Alcotest.test_case "program order is persist order" `Quick
            test_eadr_program_order_is_persist_order;
          Alcotest.test_case "legacy writebacks flagged" `Quick
            test_eadr_flags_redundant_writebacks;
          Alcotest.test_case "transactions need no flushes" `Quick
            test_eadr_tx_scope_passes_without_flushes;
        ] );
      ( "hops-rules",
        [
          Alcotest.test_case "ofence orders without durability" `Quick
            test_hops_ofence_orders_without_durability;
          Alcotest.test_case "same epoch writes unordered" `Quick test_hops_same_epoch_unordered;
        ] );
      ( "performance-checkers",
        [
          Alcotest.test_case "unnecessary writeback" `Quick test_unnecessary_writeback;
          Alcotest.test_case "duplicate writeback" `Quick test_duplicate_writeback;
          Alcotest.test_case "duplicate writeback after fence" `Quick
            test_duplicate_writeback_after_fence;
          Alcotest.test_case "rewrite then flush is fine" `Quick test_flush_then_write_then_flush_ok;
        ] );
      ( "tx-checkers",
        [
          Alcotest.test_case "clean transaction" `Quick test_tx_clean;
          Alcotest.test_case "missing undo log" `Quick test_tx_missing_log;
          Alcotest.test_case "updates not persisted at end" `Quick test_tx_incomplete_not_persisted;
          Alcotest.test_case "transaction never terminated" `Quick test_tx_never_terminated;
          Alcotest.test_case "duplicate log entry" `Quick test_tx_duplicate_log;
          Alcotest.test_case "partially logged write is missing" `Quick
            test_tx_partial_log_is_missing;
          Alcotest.test_case "nested tx durable only at outermost end" `Quick
            test_nested_tx_inner_end_not_durable;
        ] );
      ( "controls",
        [
          Alcotest.test_case "exclude/include" `Quick test_exclusion;
          Alcotest.test_case "exclusion scopes the tx checker" `Quick
            test_exclusion_scopes_tx_checker;
        ] );
      ( "misc",
        [
          Alcotest.test_case "ops outside the model fail" `Quick test_invalid_op;
          Alcotest.test_case "report counters" `Quick test_report_counts;
          Alcotest.test_case "report merge" `Quick test_report_merge;
          Alcotest.test_case "report summary groups by site" `Quick test_report_summarize;
          Alcotest.test_case "check_packed allocation budget" `Quick
            test_check_packed_allocation_budget;
          Alcotest.test_case "check allocation budget" `Quick test_check_allocation_budget;
          Alcotest.test_case "kept state promotes nothing" `Quick test_check_promotes_nothing;
        ] );
      ( "kept-state",
        [
          Alcotest.test_case "two systhreads in one domain" `Quick test_systhreads_share_a_domain;
          Alcotest.test_case "two domains at once" `Quick test_domains_check_at_once;
          Alcotest.test_case "a raise leaves the next check correct" `Quick
            test_raise_leaves_next_check_correct;
          Alcotest.test_case "an oversized section is not kept" `Quick
            test_oversized_section_is_not_kept;
        ] );
    ]
