(* The litmus subsystem: every curated suite entry must pass all three
   legs (engine, oracle, crashtest), deliberately broken model
   simulations must be caught, and litmus programs must round-trip
   through the .pmt serial format with the verdict intact. *)

open Pmtest_model
module Litmus = Pmtest_litmus.Litmus
module Suite = Pmtest_litmus.Suite
module Oracle = Pmtest_fuzz.Oracle
module Gen = Pmtest_fuzz.Gen
module Serial = Pmtest_trace.Serial

let pp_failures fs =
  String.concat "; "
    (List.map (fun (f : Litmus.failure) -> Printf.sprintf "[%s] %s" f.Litmus.leg f.Litmus.message) fs)

(* --- Golden: the whole suite passes, entry by entry ------------------------ *)

let golden_case (t : Litmus.t) =
  Alcotest.test_case t.Litmus.name `Quick (fun () ->
      let o = Litmus.run_test t in
      if not (Litmus.passed o) then
        Alcotest.failf "%s: %s" t.Litmus.name (pp_failures o.Litmus.failures))

let test_suite_shape () =
  Alcotest.(check bool) "at least 25 tests" true (List.length Suite.all >= 25);
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Model.kind_name kind ^ " has at least 4 tests")
        true
        (List.length (Suite.for_model kind) >= 4))
    Model.all_kinds;
  List.iter
    (fun (t : Litmus.t) ->
      Alcotest.(check bool) (t.Litmus.name ^ " has state expectations") true (t.Litmus.states <> []);
      Alcotest.(check bool) (t.Litmus.name ^ " has checker expectations") true
        (t.Litmus.checkers <> []))
    Suite.all

(* --- Broken model variants are caught -------------------------------------- *)

(* A model simulation whose named barrier does nothing. The litmus
   harness must notice: forbidden states become reachable (or allowed
   ones unreachable) and the oracle leg reports it. *)
let sim_without op_broken (p : Gen.program) =
  let base = Oracle.sim_for ~limit:(1 lsl 16) p in
  { base with Oracle.op = (fun op -> if op = op_broken then () else base.Oracle.op op) }

let expect_caught name op_broken =
  match Suite.find name with
  | None -> Alcotest.failf "suite entry %s disappeared" name
  | Some t ->
    let o = Litmus.run_test ~sim:(sim_without op_broken) t in
    if Litmus.passed o then
      Alcotest.failf "%s: broken model (no-op %s) passed the litmus harness" name
        (Format.asprintf "%a" Model.pp_op op_broken);
    if not (List.exists (fun (f : Litmus.failure) -> f.Litmus.leg = "oracle") o.Litmus.failures)
    then
      Alcotest.failf "%s: broken model caught, but not by the oracle leg (%s)" name
        (pp_failures o.Litmus.failures)

let test_broken_cxl_gpf () = expect_caught "cxl-gpf-durable" Model.Gpf
let test_broken_x86_sfence () = expect_caught "x86-flush-fence-durable" Model.Sfence
let test_broken_hops_dfence () = expect_caught "hops-dfence-durable" Model.Dfence

(* A simulation that persists too eagerly (every write durable at once)
   must be caught the other way around: states the model allows become
   unreachable. *)
let test_broken_eager_persist () =
  match Suite.find "cxl-store-not-durable" with
  | None -> Alcotest.fail "suite entry cxl-store-not-durable disappeared"
  | Some t ->
    let eager (p : Gen.program) =
      let base = Oracle.sim_for ~limit:(1 lsl 16) p in
      {
        base with
        Oracle.write =
          (fun ~addr v ->
            base.Oracle.write ~addr v;
            base.Oracle.op Model.Gpf);
      }
    in
    let o = Litmus.run_test ~sim:eager t in
    if Litmus.passed o then
      Alcotest.fail "eagerly-persisting CXL simulation passed the litmus harness"

(* --- .pmt round-trip keeps the verdict ------------------------------------- *)

let roundtrip_verdict (t : Litmus.t) =
  let path = Filename.temp_file "litmus" ".pmt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Serial.save_file
        ~header:
          {
            Pmtest_util.Files.banner = Some "litmus round-trip";
            fields = [ ("model", Model.kind_name t.Litmus.model) ];
          }
        path t.Litmus.events;
      match Serial.load_file path with
      | Error e -> Alcotest.failf "%s: reload failed: %s" t.Litmus.name e
      | Ok events ->
        Alcotest.(check int)
          (t.Litmus.name ^ " event count survives")
          (Array.length t.Litmus.events) (Array.length events);
        let o = Litmus.run_test (Litmus.with_events t events) in
        if not (Litmus.passed o) then
          Alcotest.failf "%s: verdict changed after .pmt round-trip: %s" t.Litmus.name
            (pp_failures o.Litmus.failures))

let qcheck_roundtrip =
  let n = List.length Suite.all in
  QCheck2.Test.make ~name:"litmus programs round-trip through .pmt with the same verdict"
    ~count:n
    ~print:(fun i -> (List.nth Suite.all (abs i mod n)).Litmus.name)
    QCheck2.Gen.(int_range 0 (n - 1))
    (fun i ->
      roundtrip_verdict (List.nth Suite.all (abs i mod n));
      true)

let () =
  Alcotest.run "litmus"
    [
      ("suite", Alcotest.test_case "shape" `Quick test_suite_shape :: List.map golden_case Suite.all);
      ( "broken-models",
        [
          Alcotest.test_case "CXL without gpf is caught" `Quick test_broken_cxl_gpf;
          Alcotest.test_case "x86 without sfence is caught" `Quick test_broken_x86_sfence;
          Alcotest.test_case "HOPS without dfence is caught" `Quick test_broken_hops_dfence;
          Alcotest.test_case "eagerly-persisting CXL is caught" `Quick test_broken_eager_persist;
        ] );
      ("roundtrip", [ QCheck_alcotest.to_alcotest qcheck_roundtrip ]);
    ]
