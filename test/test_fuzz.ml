(* The differential fuzzing subsystem: generator invariants, cross-checker
   campaigns, counterexample shrinking, mutation coverage over the bug
   catalog, and the checked-in regression corpus. *)

open Pmtest_model
open Pmtest_trace
module Rng = Pmtest_util.Rng
module Gen = Pmtest_fuzz.Gen
module Oracle = Pmtest_fuzz.Oracle
module Shrink = Pmtest_fuzz.Shrink
module Cross = Pmtest_fuzz.Cross
module Campaign = Pmtest_fuzz.Campaign
module Repro = Pmtest_fuzz.Repro
module Mutate = Pmtest_fuzz.Mutate
module Engine = Pmtest_core.Engine
module Machine = Pmtest_pmem.Machine
module Crashtest = Pmtest_crashtest.Crashtest

let models = [ Model.X86; Model.Hops; Model.Eadr ]

(* --- Generator ------------------------------------------------------------- *)

let test_gen_deterministic () =
  List.iter
    (fun model ->
      let gen () = Gen.generate (Gen.default_cfg model) (Rng.create 42) in
      Alcotest.(check string)
        (Model.kind_name model ^ " same seed, same program")
        (Repro.serial_text (gen ()))
        (Repro.serial_text (gen ()));
      let ps = Campaign.program_for_seed (Campaign.default_cfg model) 7 in
      Alcotest.(check string)
        (Model.kind_name model ^ " campaign seed is reproducible")
        (Repro.serial_text ps)
        (Repro.serial_text (Campaign.program_for_seed (Campaign.default_cfg model) 7)))
    models

let test_gen_valid_ops () =
  List.iter
    (fun model ->
      for seed = 0 to 199 do
        let p = Gen.generate (Gen.default_cfg model) (Rng.create seed) in
        Array.iter
          (fun (e : Event.t) ->
            match e.Event.kind with
            | Event.Op op ->
              if not (Model.valid_op model op) then
                Alcotest.failf "%s seed %d: invalid op in generated program"
                  (Model.kind_name model) seed
            | _ -> ())
          p.Gen.events
      done)
    models

let test_oracle_programs_eligible () =
  List.iter
    (fun model ->
      for seed = 0 to 199 do
        let p = Gen.oracle_program ~with_checkers:true (Gen.oracle_cfg model) (Rng.create seed) in
        if not (Gen.oracle_eligible p) then
          Alcotest.failf "%s seed %d: oracle-shaped program not oracle-eligible"
            (Model.kind_name model) seed
      done)
    models

(* --- Campaign -------------------------------------------------------------- *)

let test_campaign_no_disagreements () =
  List.iter
    (fun model ->
      let cfg = { (Campaign.default_cfg model) with Campaign.count = 150 } in
      let stats = Campaign.run cfg in
      List.iter
        (fun (f : Campaign.finding) ->
          Alcotest.failf "%s seed %d, %s: %s" (Model.kind_name model) f.Campaign.found_seed
            (Cross.pair_name f.Campaign.pair) f.Campaign.detail)
        stats.Campaign.findings;
      (* The contracts must actually apply, not skip their way to green. *)
      List.iter
        (fun (pair, n) ->
          match pair with
          | Cross.Engine_vs_naive | Cross.Engine_vs_lint | Cross.Engine_vs_packed
          | Cross.Engine_vs_serve | Cross.Engine_vs_repair ->
            Alcotest.(check bool)
              (Model.kind_name model ^ " " ^ Cross.pair_name pair ^ " applied everywhere")
              true (n = 150)
          | Cross.Engine_vs_oracle ->
            Alcotest.(check bool)
              (Model.kind_name model ^ " oracle applied to a real share")
              true (n > 20)
          | Cross.Engine_vs_pmemcheck | Cross.Engine_vs_crashtest -> ())
        stats.Campaign.applied)
    models

(* --- The crashtest contract against its every-step reference --------------- *)

(* The engine/crashtest contract as it ran before it explored only the
   final crash point: [Crashtest.run] crashes after every step, and the
   recovery checks the engine's end-of-trace claims at the last point
   only. Returns the outcome and whether that point was sampled rather
   than enumerated. *)
let every_step_crashtest (p : Gen.program) =
  let in_bounds =
    Array.for_all
      (fun (e : Event.t) ->
        match e.Event.kind with
        | Event.Op (Model.Write { addr; size } | Model.Clwb { addr; size })
        | Event.Tx (Event.Tx_add { addr; size }) ->
          addr >= 0 && size > 0 && addr + size <= p.Gen.pm_size
        | _ -> true)
      p.Gen.events
  in
  if p.Gen.model = Model.Eadr || not in_bounds then (Cross.Skip "", false)
  else if Event.op_count p.Gen.events = 0 then (Cross.Agree, false)
  else begin
    let apply m (e : Event.t) k =
      match e.Event.kind with
      | Event.Op (Model.Write { addr; size }) ->
        Machine.store m ~addr (Bytes.make size (Char.chr ((!k mod 250) + 1)));
        incr k
      | Event.Op (Model.Clwb { addr; size }) -> Machine.clwb m ~addr ~size
      | Event.Op Model.Sfence -> Machine.sfence m
      | Event.Op Model.Ofence -> Machine.ofence m
      | Event.Op (Model.Dfence | Model.Gpf) -> Machine.dfence m
      | _ -> ()
    in
    let probe = Machine.create ~size:p.Gen.pm_size () in
    let k = ref 0 in
    Array.iter (fun e -> apply probe e k) p.Gen.events;
    let final = Machine.volatile_image probe in
    let _, snap = Engine.check_with_snapshot ~model:p.Gen.model p.Gen.events in
    let claims =
      List.filter
        (fun (r : Engine.range_status) ->
          Interval.ends_by r.Engine.persist snap.Engine.timestamp)
        snap.Engine.ranges
    in
    let machine = Machine.create ~track_versions:true ~size:p.Gen.pm_size () in
    let steps = Array.length p.Gen.events and cur = ref (-1) and k = ref 0 in
    let step i =
      cur := i;
      apply machine p.Gen.events.(i) k
    in
    let recover img =
      if !cur <> steps - 1 then Ok ()
      else
        match
          List.find_opt
            (fun (r : Engine.range_status) ->
              let len = r.Engine.hi - r.Engine.lo in
              Bytes.sub_string img r.Engine.lo len <> Bytes.sub_string final r.Engine.lo len)
            claims
        with
        | None -> Ok ()
        | Some r ->
          Error
            (Printf.sprintf "engine claims [0x%x,+%d) persisted but a reachable image disagrees"
               r.Engine.lo (r.Engine.hi - r.Engine.lo))
    in
    let verdict = Crashtest.run ~machine ~recover ~steps ~step () in
    let sampled =
      Machine.crash_state_count machine
      > float_of_int Crashtest.default_config.Crashtest.exhaustive_limit
    in
    match verdict.Crashtest.failures with
    | [] -> (Cross.Agree, sampled)
    | f :: _ -> (Cross.Disagree f.Crashtest.message, sampled)
  end

let outcome_kind = function Cross.Agree -> "agree" | Cross.Disagree _ -> "disagree" | Cross.Skip _ -> "skip"

(* Exploring only the final point gives the reference's outcome on every
   program. Where that point is sampled, the two draw different images
   (the reference's generator has already drawn for earlier points), so
   those programs are counted and printed rather than left unseen. *)
let test_crashtest_matches_every_step () =
  List.iter
    (fun model ->
      let cfg = Campaign.default_cfg model in
      let applied = ref 0 and sampled = ref 0 in
      for seed = 0 to 399 do
        let p = Campaign.program_for_seed cfg seed in
        let ref_outcome, was_sampled = every_step_crashtest p in
        let outcome = Cross.compare_pair Cross.Engine_vs_crashtest p in
        if outcome_kind outcome <> outcome_kind ref_outcome then
          Alcotest.failf "%s seed %d: final-point contract says %s, every-step reference %s"
            (Model.kind_name model) seed (outcome_kind outcome) (outcome_kind ref_outcome);
        (match outcome with Cross.Skip _ -> () | _ -> incr applied);
        if was_sampled then incr sampled
      done;
      Printf.printf "%s: crashtest applied to %d of 400 programs, final point sampled in %d\n"
        (Model.kind_name model) !applied !sampled;
      Alcotest.(check bool) (Model.kind_name model ^ " contract applies") true (!applied > 200))
    [ Model.X86; Model.Hops; Model.Cxl ]

(* --- One shared analysis per program --------------------------------------- *)

let long_run = match Sys.getenv_opt "QCHECK_LONG" with Some ("1" | "true") -> true | _ -> false

let outcome_string = function
  | Cross.Agree -> "agree"
  | Cross.Disagree m -> "disagree: " ^ m
  | Cross.Skip m -> "skip: " ^ m

(* Every contract over one shared analysis says what it says over an
   analysis of its own. Walking the pairs forwards and then in reverse,
   each over a fresh shared analysis, changes which contract forces each
   field first, so a contract that depends on forcing order, or that
   mutates a value it shares, gives a different outcome. *)
let test_shared_analysis_matches_fresh () =
  let count = if long_run then 2000 else 400 in
  List.iter
    (fun model ->
      let cfg = Campaign.default_cfg model in
      for seed = 0 to count - 1 do
        let p = Campaign.program_for_seed cfg seed in
        let fresh = List.map (fun pair -> (pair, Cross.compare_pair pair p)) Cross.all_pairs in
        let walk order pairs =
          let a = Cross.analyse p in
          List.iter
            (fun pair ->
              let shared = Cross.compare_analysis pair a and alone = List.assoc pair fresh in
              if shared <> alone then
                Alcotest.failf "%s seed %d, %s walked %s: shared analysis says %S, fresh %S"
                  (Model.kind_name model) seed (Cross.pair_name pair) order
                  (outcome_string shared) (outcome_string alone))
            pairs
        in
        walk "forwards" Cross.all_pairs;
        walk "in reverse" (List.rev Cross.all_pairs)
      done)
    [ Model.X86; Model.Hops; Model.Cxl; Model.Eadr ]

(* --- Shrinking ------------------------------------------------------------- *)

let w addr size = Event.make (Event.Op (Model.Write { addr; size }))

let count_writes evs =
  Array.fold_left
    (fun n (e : Event.t) ->
      match e.Event.kind with Event.Op (Model.Write _) -> n + 1 | _ -> n)
    0 evs

let test_shrink_reaches_minimum () =
  (* A monotone predicate with a known minimal size: "at least 3 writes
     survive". ddmin must strip everything else. *)
  let events =
    Array.init 24 (fun i ->
        if i mod 2 = 0 then w (i * 8) 8 else Event.make (Event.Op Model.Sfence))
  in
  let pred evs = count_writes evs >= 3 in
  let shrunk = Shrink.minimize ~pred events in
  Alcotest.(check bool) "predicate preserved" true (pred shrunk);
  Alcotest.(check int) "exactly the 3 required events remain" 3 (Array.length shrunk)

let test_shrink_simplifies_operands () =
  (* Shrinking must also shrink addresses/sizes, not just drop events. *)
  let events = [| w 0x1f00 64 |] in
  let pred evs = count_writes evs >= 1 in
  let shrunk = Shrink.minimize ~pred events in
  Alcotest.(check int) "single event" 1 (Array.length shrunk);
  match shrunk.(0).Event.kind with
  | Event.Op (Model.Write { addr; size }) ->
    Alcotest.(check int) "address canonicalized" 0 addr;
    Alcotest.(check bool) "size shrunk below original" true (size < 64)
  | _ -> Alcotest.fail "not a write"

let test_shrink_rejects_failing_input () =
  Alcotest.check_raises "invalid_arg on a passing input"
    (Invalid_argument "Shrink.minimize: predicate does not hold on the input") (fun () ->
      ignore (Shrink.minimize ~pred:(fun _ -> false) [| w 0 8 |]))

(* --- Mutation mode ---------------------------------------------------------- *)

let test_mutation_all_operators_seed () =
  let seeded = Mutate.seed_catalog () in
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Mutate.kind_name kind ^ " seeds at least one mutant")
        true
        (List.exists (fun (s : Mutate.seeded) -> s.Mutate.mutation = kind) seeded))
    Mutate.all_kinds

let test_mutation_all_caught_and_shrunk () =
  let seeded = Mutate.seed_catalog () in
  (* One representative per operator keeps runtest fast; the nightly fuzz
     job checks the full catalog. *)
  List.iter
    (fun kind ->
      match List.find_opt (fun (s : Mutate.seeded) -> s.Mutate.mutation = kind) seeded with
      | None -> Alcotest.failf "no mutant for %s" (Mutate.kind_name kind)
      | Some s ->
        let o = Mutate.check s in
        List.iter
          (fun (c : Mutate.claim) ->
            Alcotest.failf "%s on %s: %s missed %s" (Mutate.kind_name kind) s.Mutate.case_id
              (Repro.tool_name c.Mutate.tool)
              (Pmtest_core.Report.kind_string c.Mutate.diag))
          o.Mutate.missed;
        Alcotest.(check bool)
          (Mutate.kind_name kind ^ " shrunk to at most 12 events")
          true
          (Array.length o.Mutate.shrunk <= 12))
    Mutate.all_kinds

(* --- Corpus ----------------------------------------------------------------- *)

let corpus_dir () =
  (* dune runs tests from _build/default/test; the corpus is a sibling. *)
  if Sys.file_exists "../fuzz/corpus" then "../fuzz/corpus" else "fuzz/corpus"

let test_corpus_replays () =
  match Repro.load_dir (corpus_dir ()) with
  | Error e -> Alcotest.fail e
  | Ok cases ->
    Alcotest.(check bool) "corpus is non-empty" true (List.length cases >= 5);
    List.iter
      (fun (c : Repro.case) ->
        match Repro.replay c with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: %s" c.Repro.name e)
      cases

let test_corpus_round_trip () =
  let p = Gen.generate (Gen.default_cfg Model.X86) (Rng.create 7) in
  let case =
    {
      Repro.name = "tmp-round-trip";
      program = p;
      checks = [ Repro.Agree Cross.Engine_vs_naive; Repro.Agree Cross.Engine_vs_lint ];
      notes = [];
    }
  in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "pmtest-fuzz-corpus-test" in
  let path = Repro.save ~dir case in
  (match Repro.load_file path with
  | Error e -> Alcotest.fail e
  | Ok c ->
    Alcotest.(check string) "name survives" case.Repro.name c.Repro.name;
    Alcotest.(check string) "trace survives" (Repro.serial_text p)
      (Repro.serial_text c.Repro.program);
    Alcotest.(check int) "pm_size survives" p.Gen.pm_size c.Repro.program.Gen.pm_size;
    Alcotest.(check bool) "checks survive" true (c.Repro.checks = case.Repro.checks);
    (match Repro.replay c with Ok () -> () | Error e -> Alcotest.fail e));
  Sys.remove path

let test_corpus_save_dedupes_by_digest () =
  (* Saving the same program twice — even under a different case name —
     must return the existing reproducer instead of minting a sibling:
     corpus identity is the (model, trace) digest, not the filename. *)
  let p = Gen.generate (Gen.default_cfg Model.X86) (Rng.create 11) in
  let case name =
    { Repro.name; program = p; checks = [ Repro.Agree Cross.Engine_vs_naive ]; notes = [] }
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmtest-fuzz-dedupe-test-%d" (Unix.getpid ()))
  in
  let path1 = Repro.save ~dir (case "tmp-dedupe-original") in
  let path2 = Repro.save ~dir (case "tmp-dedupe-duplicate") in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path1 with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      Alcotest.(check string) "duplicate save returns the existing case" path1 path2;
      let pmts = Array.to_list (Sys.readdir dir) in
      Alcotest.(check int) "one reproducer on disk" 1 (List.length pmts);
      (* A genuinely different program still gets its own file. *)
      let q = Gen.generate (Gen.default_cfg Model.X86) (Rng.create 12) in
      let path3 = Repro.save ~dir { (case "tmp-dedupe-fresh") with Repro.program = q } in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path3 with Sys_error _ -> ())
        (fun () ->
          Alcotest.(check bool) "fresh trace saved separately" true (path3 <> path1)))

let test_snippet_mentions_engine () =
  let p = Gen.oracle_program ~with_checkers:true (Gen.oracle_cfg Model.Hops) (Rng.create 3) in
  let s = Repro.ocaml_snippet p in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "snippet runs the engine" true (contains "Engine.check");
  Alcotest.(check bool) "snippet pins the model" true (contains "Model.Hops")

let () =
  Alcotest.run "fuzz"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic by seed" `Quick test_gen_deterministic;
          Alcotest.test_case "ops valid for the model" `Quick test_gen_valid_ops;
          Alcotest.test_case "oracle-shaped programs eligible" `Quick
            test_oracle_programs_eligible;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "150 programs/model, all pairs agree" `Quick
            test_campaign_no_disagreements;
          Alcotest.test_case "crashtest matches its every-step reference" `Quick
            test_crashtest_matches_every_step;
        ] );
      ( "shared",
        [
          Alcotest.test_case "shared analysis = fresh analyses" `Quick
            test_shared_analysis_matches_fresh;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "reaches the known minimum" `Quick test_shrink_reaches_minimum;
          Alcotest.test_case "simplifies addresses and sizes" `Quick
            test_shrink_simplifies_operands;
          Alcotest.test_case "rejects non-failing input" `Quick test_shrink_rejects_failing_input;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "every operator seeds a mutant" `Quick
            test_mutation_all_operators_seed;
          Alcotest.test_case "every claim caught, reproducers small" `Quick
            test_mutation_all_caught_and_shrunk;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "checked-in cases replay" `Quick test_corpus_replays;
          Alcotest.test_case "save/load round trip" `Quick test_corpus_round_trip;
          Alcotest.test_case "save dedupes by trace digest" `Quick
            test_corpus_save_dedupes_by_digest;
          Alcotest.test_case "OCaml snippet is self-contained" `Quick
            test_snippet_mentions_engine;
        ] );
    ]
