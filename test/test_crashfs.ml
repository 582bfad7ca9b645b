(* Crash-state exploration for the PM file systems: golden corrupted
   images for the fsck layer, proof that the enumerator actually catches
   the seeded crash-consistency faults (and that a deliberately broken
   enumerator misses them), determinism, and replay of the checked-in
   crashfs reproducer corpus. *)

module Crashfs = Pmtest_crashfs.Crashfs
module Workload = Pmtest_crashfs.Workload
module Fsck = Pmtest_crashfs.Fsck
module Fs = Pmtest_pmfs.Fs
module Nova = Pmtest_nova.Nova
module Machine = Pmtest_pmem.Machine
module Access = Pmtest_pmem.Access
module Sink = Pmtest_trace.Sink

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

let contains s frag =
  let n = String.length s and m = String.length frag in
  let rec go i = i + m <= n && (String.sub s i m = frag || go (i + 1)) in
  m = 0 || go 0

let expect_err frag = function
  | Ok () -> Alcotest.failf "expected an error mentioning %S, got Ok" frag
  | Error msg ->
    if not (contains msg frag) then
      Alcotest.failf "error %S does not mention %S" msg frag

let fault config name =
  match Crashfs.with_fault config name with
  | Ok c -> c
  | Error e -> Alcotest.fail e

(* --- Golden corrupted images -------------------------------------------------- *)

(* A healthy little PMFS instance the corruption tests hand-break.
   PMFS keeps no volatile index, so the checks read the corruption
   straight through the live machine. *)
let pmfs_victim () =
  let fs = Fs.mkfs ~inodes:8 ~blocks:32 ~sink:Sink.null () in
  let a = ok (Fs.create fs "a") in
  ok (Fs.write fs ~ino:a ~off:0 (String.make 700 'x'));
  let b = ok (Fs.create fs "b") in
  let m = Fs.machine fs in
  let itable_off = Access.get_int m 40 in
  (fs, m, a, b, fun ino -> itable_off + (ino * 128))

let test_golden_clean () =
  let fs, _, _, _, _ = pmfs_victim () in
  ok (Fsck.pmfs fs)

let test_golden_invalid_inode_type () =
  let fs, m, a, _, inode_off = pmfs_victim () in
  Access.set_int m (inode_off a) 7;
  expect_err "invalid type" (Fsck.pmfs fs)

let test_golden_stray_directory_inode () =
  let fs, m, _, _, inode_off = pmfs_victim () in
  (* A free slot turned into a directory inode: nothing references it,
     the base checker is happy, the fsck layer is not. *)
  Access.set_int m (inode_off 5) 2;
  expect_err "is a directory" (Fsck.pmfs fs)

let test_golden_orphan_inode () =
  let fs, m, _, _, inode_off = pmfs_victim () in
  Access.set_int m (inode_off 5) 1;
  expect_err "orphan inode 5" (Fsck.pmfs fs)

let test_golden_dangling_dirent () =
  let fs, m, _, b, inode_off = pmfs_victim () in
  (* Free the inode under a live dirent. *)
  Access.set_int m (inode_off b) 0;
  expect_err "references non-file inode" (Fsck.pmfs fs)

let test_golden_torn_journal () =
  let _, m, _, _, _ = pmfs_victim () in
  let journal_off = Access.get_int m 32 in
  (* A persisted count covering an all-zero entry: addr 0, size 0. *)
  Access.set_int m journal_off 1;
  Access.set_int m (journal_off + 64) 0;
  Access.set_int m (journal_off + 72) 0;
  expect_err "journal: torn entry 0" (Fsck.pmfs_journal m);
  (* A count past the journal's capacity. *)
  Access.set_int m journal_off 100_000;
  expect_err "outside" (Fsck.pmfs_journal m)

let test_golden_block_beyond_size () =
  let fs, m, a, _, inode_off = pmfs_victim () in
  (* "a" holds 700 bytes = blocks 0 and 1; shrink the size under the
     allocation without freeing slot 1. *)
  Access.set_int m (inode_off a + 8) 100;
  expect_err "beyond file size" (Fsck.pmfs fs)

let test_golden_nova_shared_page () =
  let fs = Nova.mkfs ~track_versions:true ~sink:Sink.null () in
  let a = ok (Nova.create fs "a") in
  let b = ok (Nova.create fs "b") in
  ok (Nova.write fs ~ino:a ~pgoff:0 "first");
  ok (Nova.write fs ~ino:b ~pgoff:0 "second");
  let block_of ino =
    match Nova.page_map fs ~ino with
    | [ (0, blk) ] -> blk
    | other -> Alcotest.failf "expected one page, got %d" (List.length other)
  in
  let m = Nova.machine fs in
  (* Patch b's committed write entry to claim a's data page. The write
     entry is the first (and only) entry in b's log. *)
  let log_off = Access.get_int m 24 in
  let entry = log_off + (b * 64 * 64) in
  Alcotest.(check int) "found b's write entry" 1 (Access.get_int m entry);
  Access.set_int m (entry + 16) (block_of a);
  Machine.persist_all m;
  let fs2 = Nova.mount ~machine:(Machine.of_image (Machine.media_image m)) ~sink:Sink.null in
  expect_err "shared by inodes" (Fsck.nova fs2)

(* --- The committed-state oracle ----------------------------------------------- *)

(* No seeded fault reaches most of the oracle's rejections, so these
   hand-edit a clean image: the edit runs on the live instance after the
   committed ops, and the clean-shutdown image is judged as a crash
   image with [pending] in flight. *)

let image_of machine =
  Machine.persist_all machine;
  Machine.media_image machine

let pmfs_committed =
  [ Workload.Create "a"; Workload.Write { name = "a"; off = 0; len = 700; fill = 'x' } ]

let pmfs_image edit =
  let fs = Fs.mkfs ~inodes:8 ~blocks:32 ~sink:Sink.null () in
  let a = ok (Fs.create fs "a") in
  ok (Fs.write fs ~ino:a ~off:0 (String.make 700 'x'));
  edit (fun ~off data -> ok (Fs.write fs ~ino:a ~off data));
  image_of (Fs.machine fs)

let pmfs_check ~pending edit =
  Crashfs.check_image (Crashfs.default_config Crashfs.Pmfs) ~committed:pmfs_committed ~pending
    (pmfs_image edit)

let pmfs_write ~off ~len fill = Some (Workload.Write { name = "a"; off; len; fill })

let test_oracle_pmfs_torn_write () =
  let pending = pmfs_write ~off:0 ~len:100 'y' in
  ok (pmfs_check ~pending:None ignore);
  ok (pmfs_check ~pending ignore);
  (* A byte inside the in-flight write may be old or new. *)
  ok (pmfs_check ~pending (fun write -> write ~off:5 "y"));
  (* One outside it must be the committed byte. *)
  let flipped write = write ~off:200 "z" in
  expect_err "file a: byte 200 is neither the old nor the in-flight value"
    (pmfs_check ~pending flipped);
  expect_err "file a: contents differ from committed state" (pmfs_check ~pending:None flipped)

let test_oracle_pmfs_size () =
  (* Size rolls back with the journal: old (700) or new (800), never
     in between. *)
  expect_err "file a: size 750, in-flight write allows only 700 or 800"
    (pmfs_check ~pending:(pmfs_write ~off:0 ~len:800 'y') (fun write ->
         write ~off:700 (String.make 50 'x')))

let nova_committed =
  [ Workload.Create "a"; Workload.Write { name = "a"; off = 0; len = 256; fill = 'x' } ]

let nova_check ~pending edit =
  let fs = Nova.mkfs ~track_versions:true ~sink:Sink.null () in
  let a = ok (Nova.create fs "a") in
  ok (Nova.write fs ~ino:a ~pgoff:0 (String.make 256 'x'));
  edit (fun ~pgoff data -> ok (Nova.write fs ~ino:a ~pgoff data));
  Crashfs.check_image (Crashfs.default_config Crashfs.Nova) ~committed:nova_committed ~pending
    (image_of (Nova.machine fs))

let nova_write ~pgoff ~len fill = Some (Workload.Write { name = "a"; off = pgoff; len; fill })

let test_oracle_nova_torn_page () =
  let pending = nova_write ~pgoff:0 ~len:256 'y' in
  ok (nova_check ~pending ignore);
  ok (nova_check ~pending (fun write -> write ~pgoff:0 (String.make 256 'y')));
  (* The log commit is atomic: a page half old and half new is torn. *)
  expect_err "file a: page 0 is neither the old nor the in-flight contents"
    (nova_check ~pending (fun write -> write ~pgoff:0 "yyyy"));
  (* A fresh page may appear with the in-flight write, but no more. *)
  let pending = nova_write ~pgoff:1 ~len:4 'y' in
  ok (nova_check ~pending (fun write -> write ~pgoff:1 "yyyy"));
  expect_err "file a: 3 committed pages on media, in-flight write allows 1 or 2"
    (nova_check ~pending (fun write ->
         write ~pgoff:1 "yyyy";
         write ~pgoff:2 "zzzz"))

(* --- The enumerator catches the seeded faults --------------------------------- *)

let pmfs_bug_ops = [| Workload.Create "b" |]
let nova_bug_ops = [| Workload.Create "a"; Workload.Create "b" |]

let test_enumerator_catches_pmfs_fault () =
  let config = fault (Crashfs.default_config Crashfs.Pmfs) "skip-journal-flush" in
  let st = Crashfs.run_ops config ~seed:1 pmfs_bug_ops in
  Alcotest.(check bool) "skip-journal-flush caught" true (st.Crashfs.failures <> [])

let test_enumerator_catches_nova_fault () =
  let config = fault (Crashfs.default_config Crashfs.Nova) "skip-tail-persist" in
  let st = Crashfs.run_ops config ~seed:1 nova_bug_ops in
  Alcotest.(check bool) "skip-tail-persist caught" true (st.Crashfs.failures <> [])

let test_enumerator_catches_valid_before_init () =
  let config = fault (Crashfs.default_config Crashfs.Nova) "valid-before-init" in
  let st = Crashfs.run_ops config ~seed:1 [| Workload.Create "b" |] in
  Alcotest.(check bool) "valid-before-init caught" true (st.Crashfs.failures <> []);
  (* The clean twin: the fixed store order survives the same workload. *)
  let clean = Crashfs.run_ops (Crashfs.default_config Crashfs.Nova) ~seed:1 [| Workload.Create "b" |] in
  Alcotest.(check (list Alcotest.reject)) "clean twin survives" [] clean.Crashfs.failures

let test_broken_enumerator_misses_the_bug () =
  (* Catch proof: skip the first failing boundary (and everything after
     it) and the known bug escapes — the boundary walk is load-bearing,
     not decorative. *)
  let config = fault (Crashfs.default_config Crashfs.Pmfs) "skip-journal-flush" in
  let st = Crashfs.run_ops config ~seed:1 pmfs_bug_ops in
  let k =
    match st.Crashfs.failures with
    | f :: _ -> f.Crashfs.boundary
    | [] -> Alcotest.fail "the fault was not caught in the first place"
  in
  let broken = { config with Crashfs.boundary_filter = Some (fun i -> i < k) } in
  let st' = Crashfs.run_ops broken ~seed:1 pmfs_bug_ops in
  Alcotest.(check (list Alcotest.reject))
    "the broken enumerator misses the bug" [] st'.Crashfs.failures

(* --- Clean campaigns, models, determinism ------------------------------------- *)

let test_clean_campaigns_survive () =
  List.iter
    (fun fs ->
      let config = Crashfs.default_config fs in
      let c = Crashfs.run_campaign config ~count:4 ~seed:100 () in
      if c.Crashfs.findings <> [] then
        Alcotest.failf "clean %s campaign found %d failure(s): %s" (Crashfs.fs_kind_name fs)
          (List.length c.Crashfs.findings)
          (match c.Crashfs.findings with
          | f :: _ -> f.Crashfs.f_failure.Crashfs.message
          | [] -> "");
      let s = c.Crashfs.total in
      Alcotest.(check bool) "states were pruned" true (s.Crashfs.avoided > 0.);
      Alcotest.(check bool)
        "pruned ratio is a proper fraction" true
        (Crashfs.pruned_ratio s > 0. && Crashfs.pruned_ratio s < 1.);
      Alcotest.(check bool) "recoveries happened" true (s.Crashfs.recoveries > 0))
    [ Crashfs.Pmfs; Crashfs.Nova ]

let test_eadr_model_runs_clean () =
  let config = { (Crashfs.default_config Crashfs.Pmfs) with Crashfs.model = Pmtest_model.Model.Eadr } in
  let ops = Crashfs.gen_ops config ~seed:7 in
  let st = Crashfs.run_ops config ~seed:7 ops in
  Alcotest.(check (list Alcotest.reject)) "eadr clean" [] st.Crashfs.failures;
  (* eADR's persistence domain includes the caches: one image per
     boundary, so exploration degenerates to the fence walk. *)
  Alcotest.(check int) "one image per explored boundary" st.Crashfs.explored st.Crashfs.images

let test_cxl_model_is_rejected () =
  let config = { (Crashfs.default_config Crashfs.Pmfs) with Crashfs.model = Pmtest_model.Model.Cxl } in
  match Crashfs.run_ops config ~seed:0 [| Workload.Readdir |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Cxl config must be rejected"

let determinism_prop =
  QCheck2.Test.make ~name:"same seed, same exploration (both file systems)" ~count:12
    QCheck2.Gen.(pair (int_bound 10_000) bool)
    (fun (seed, pick_nova) ->
      let fs = if pick_nova then Crashfs.Nova else Crashfs.Pmfs in
      let config = { (Crashfs.default_config fs) with Crashfs.max_ops = 6 } in
      let ops = Crashfs.gen_ops config ~seed in
      let ops' = Crashfs.gen_ops config ~seed in
      let st = Crashfs.run_ops config ~seed ops in
      let st' = Crashfs.run_ops config ~seed ops' in
      ops = ops' && st = st')

(* --- Reproducer corpus --------------------------------------------------------- *)

let corpus_dir () =
  (* dune runs tests from _build/default/test; the corpus is a sibling. *)
  if Sys.file_exists "../fuzz/corpus/crashfs" then "../fuzz/corpus/crashfs"
  else "fuzz/corpus/crashfs"

let test_corpus_replays () =
  match Crashfs.Repro.load_dir (corpus_dir ()) with
  | Error e -> Alcotest.fail e
  | Ok cases ->
    Alcotest.(check bool) "at least two reproducers" true (List.length cases >= 2);
    Alcotest.(check bool)
      "both outcomes are represented" true
      (List.exists (fun c -> c.Crashfs.Repro.expect_failure) cases
      && List.exists (fun c -> not c.Crashfs.Repro.expect_failure) cases);
    List.iter
      (fun c ->
        match Crashfs.Repro.replay c with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e)
      cases

let test_repro_round_trip () =
  let case =
    {
      Crashfs.Repro.name = "round-trip";
      fs = Crashfs.Pmfs;
      model = Pmtest_model.Model.Hops;
      seed = 1234;
      fault = Some "skip-commit-fence";
      expect_failure = true;
      ops =
        [|
          Workload.Create "a";
          Workload.Write { name = "a"; off = 3; len = 17; fill = 'q' };
          Workload.Fsync "a";
          Workload.Unlink "a";
          Workload.Readdir;
        |];
    }
  in
  match Crashfs.Repro.of_text ~name:"round-trip" (Crashfs.Repro.to_text case) with
  | Error e -> Alcotest.fail e
  | Ok case' -> Alcotest.(check bool) "case round-trips" true (case = case')

(* A stale [<name>.pmt.tmp] (here a directory, which nothing can open
   for writing) must not block saving [<name>.pmt]: each save writes its
   own uniquely named temp file. *)
let test_repro_save_beside_stale_tmp () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmtest-crashfs-save-%d" (Unix.getpid ()))
  in
  Pmtest_util.Files.mkdir_p dir;
  let stale = Filename.concat dir "stale.pmt.tmp" in
  Sys.mkdir stale 0o755;
  let case =
    {
      Crashfs.Repro.name = "stale";
      fs = Crashfs.Pmfs;
      model = Pmtest_model.Model.X86;
      seed = 7;
      fault = None;
      expect_failure = false;
      ops = [| Workload.Create "a"; Workload.Fsync "a" |];
    }
  in
  let path = Crashfs.Repro.save ~dir case in
  let entries = List.sort compare (Array.to_list (Sys.readdir dir)) in
  Sys.remove path;
  Sys.rmdir stale;
  Sys.rmdir dir;
  Alcotest.(check (list string)) "only the case and the stale dir" [ "stale.pmt"; "stale.pmt.tmp" ]
    entries

(* A corpus directory that does not exist yet is an empty corpus, and
   the first save creates it. *)
let test_repro_fresh_corpus_dir () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmtest-crashfs-fresh-%d" (Unix.getpid ()))
  in
  let dir = Filename.concat root "new" in
  Alcotest.(check int) "a missing directory is an empty corpus" 0
    (List.length (ok (Crashfs.Repro.load_dir dir)));
  let case =
    {
      Crashfs.Repro.name = "fresh";
      fs = Crashfs.Pmfs;
      model = Pmtest_model.Model.X86;
      seed = 1;
      fault = Some "skip-journal-flush";
      expect_failure = true;
      ops = pmfs_bug_ops;
    }
  in
  let path = Crashfs.Repro.save ~dir case in
  let loaded = ok (Crashfs.Repro.load_dir dir) in
  Sys.remove path;
  Sys.rmdir dir;
  Sys.rmdir root;
  Alcotest.(check string) "saved under its name" (Filename.concat dir "fresh.pmt") path;
  Alcotest.(check bool) "the saved case loads back" true (loaded = [ case ])

let test_repro_rejects_garbage () =
  (match Crashfs.Repro.of_text ~name:"x" "not a case\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing header must be rejected");
  match
    Crashfs.Repro.of_text ~name:"x"
      "# pmtest-crashfs-case v1\n# fs: pmfs\n# check: fails\n# fault: made-up\nc\ta\n"
  with
  | Error e -> Alcotest.(check bool) "names the bad fault" true (contains e "made-up")
  | Ok _ -> Alcotest.fail "unknown fault must be rejected"

let test_op_serialization_round_trips () =
  List.iter
    (fun op ->
      match Workload.op_of_string (Workload.op_to_string op) with
      | Ok op' -> Alcotest.(check bool) "op round-trips" true (op = op')
      | Error e -> Alcotest.fail e)
    [
      Workload.Create "f";
      Workload.Write { name = "g"; off = 511; len = 600; fill = 'z' };
      Workload.Unlink "h";
      Workload.Fsync "i";
      Workload.Readdir;
    ]

(* --- Shrinking ----------------------------------------------------------------- *)

let test_shrink_is_minimal_and_still_fails () =
  let config = fault (Crashfs.default_config Crashfs.Pmfs) "skip-journal-flush" in
  let noisy =
    Array.append
      [| Workload.Readdir; Workload.Create "a"; Workload.Fsync "a" |]
      (Array.append pmfs_bug_ops [| Workload.Readdir |])
  in
  let st = Crashfs.run_ops config ~seed:1 noisy in
  Alcotest.(check bool) "noisy sequence fails" true (st.Crashfs.failures <> []);
  let shrunk = Crashfs.shrink config ~seed:1 noisy in
  Alcotest.(check bool) "shrunk is shorter" true (Array.length shrunk < Array.length noisy);
  let st' = Crashfs.run_ops config ~seed:1 shrunk in
  Alcotest.(check bool) "shrunk still fails" true (st'.Crashfs.failures <> [])

let () =
  Alcotest.run "crashfs"
    [
      ( "golden-images",
        [
          Alcotest.test_case "healthy image passes" `Quick test_golden_clean;
          Alcotest.test_case "invalid inode type" `Quick test_golden_invalid_inode_type;
          Alcotest.test_case "stray directory inode" `Quick test_golden_stray_directory_inode;
          Alcotest.test_case "orphan inode" `Quick test_golden_orphan_inode;
          Alcotest.test_case "dangling dirent" `Quick test_golden_dangling_dirent;
          Alcotest.test_case "torn journal" `Quick test_golden_torn_journal;
          Alcotest.test_case "block beyond file size" `Quick test_golden_block_beyond_size;
          Alcotest.test_case "nova shared data page" `Quick test_golden_nova_shared_page;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "pmfs torn in-flight write" `Quick test_oracle_pmfs_torn_write;
          Alcotest.test_case "pmfs in-flight size" `Quick test_oracle_pmfs_size;
          Alcotest.test_case "nova torn page" `Quick test_oracle_nova_torn_page;
        ] );
      ( "enumerator",
        [
          Alcotest.test_case "catches skip-journal-flush (pmfs)" `Quick
            test_enumerator_catches_pmfs_fault;
          Alcotest.test_case "catches skip-tail-persist (nova)" `Quick
            test_enumerator_catches_nova_fault;
          Alcotest.test_case "catches valid-before-init (nova)" `Quick
            test_enumerator_catches_valid_before_init;
          Alcotest.test_case "broken enumerator misses the bug" `Quick
            test_broken_enumerator_misses_the_bug;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "clean campaigns survive" `Slow test_clean_campaigns_survive;
          Alcotest.test_case "eadr runs clean" `Quick test_eadr_model_runs_clean;
          Alcotest.test_case "cxl is rejected" `Quick test_cxl_model_is_rejected;
          QCheck_alcotest.to_alcotest determinism_prop;
        ] );
      ( "reproducers",
        [
          Alcotest.test_case "checked-in corpus replays" `Slow test_corpus_replays;
          Alcotest.test_case "case round-trips" `Quick test_repro_round_trip;
          Alcotest.test_case "garbage is rejected" `Quick test_repro_rejects_garbage;
          Alcotest.test_case "op serialization round-trips" `Quick
            test_op_serialization_round_trips;
          Alcotest.test_case "shrink keeps the failure" `Quick
            test_shrink_is_minimal_and_still_fails;
          Alcotest.test_case "save ignores a stale .tmp" `Quick test_repro_save_beside_stale_tmp;
          Alcotest.test_case "fresh corpus directory" `Quick test_repro_fresh_corpus_dir;
        ] );
    ]
