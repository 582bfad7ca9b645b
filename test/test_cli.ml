(* The pmtest-cli binary end to end: which persistency model judges a
   SOURCE. *)

(* Paths from the test's build directory, else from the repository root. *)
let from_build_or_root path =
  let built = Filename.concat ".." path in
  if Sys.file_exists built then built else Filename.concat "_build/default" path

let cli = from_build_or_root "bin/pmtest_cli.exe"
let cxl_trace = from_build_or_root "fuzz/corpus/cxl-gpf-partial-drain.pmt"

(* Run the CLI; its exit code and stdout. *)
let run args =
  let out = Filename.temp_file "pmtest_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let cmd =
        String.concat " " (List.map Filename.quote (cli :: args))
        ^ " > " ^ Filename.quote out ^ " 2>/dev/null"
      in
      let rc = Sys.command cmd in
      (rc, In_channel.with_open_bin out In_channel.input_all))

let outcome = Alcotest.(pair int string)

(* With no --model, a file is judged under its own [model:] header; an
   explicit --model still wins. Under cxl the trace has one FAIL for the
   engine and none for the lint; under x86 both fail it. *)
let header_model_judges cmd ~rc () =
  let plain = run [ cmd; cxl_trace ] in
  Alcotest.check outcome "same as --model cxl" (run [ cmd; cxl_trace; "--model"; "cxl" ]) plain;
  Alcotest.(check int) "exit code under cxl" rc (fst plain);
  let x86 = run [ cmd; cxl_trace; "--model"; "x86" ] in
  Alcotest.(check int) "exit code under x86" 1 (fst x86);
  Alcotest.(check bool) "--model x86 overrides the header" true (snd x86 <> snd plain)

(* A SOURCE that cannot be judged exits 2, whichever command reads it. *)
let bad_source_exits_2 source () =
  List.iter
    (fun cmd -> Alcotest.(check int) (cmd ^ " " ^ source) 2 (fst (run [ cmd; source ])))
    [ "check-trace"; "lint"; "stat"; "repair" ]

(* A trace whose header names a model we do not have. *)
let unknown_model_trace () =
  let path = Filename.temp_file "pmtest_cli" ".pmt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc "# model: x68\ns\t0\t-\t0\n");
  path

let failed_save_exits_2 () =
  Alcotest.(check int) "record -o in a missing directory" 2
    (fst (run [ "record"; "redis-lru"; "--ops"; "10"; "-o"; "/nonexistent/x.pmt" ]))

(* A campaign the coordinator refuses exits 2 before it claims to be
   coordinating anything: no banner on stdout. *)
let refused_campaign_prints_no_banner () =
  let scratch = Filename.concat (Filename.get_temp_dir_name ()) "pmtest_cli_farm" in
  let got =
    run
      [
        "farm"; "serve"; "--campaign"; "crashfs"; "--model"; "cxl"; "--count"; "2"; "--chunk"; "1";
        "--socket"; scratch ^ ".sock"; "--dir"; scratch;
      ]
  in
  Alcotest.check outcome "exit 2, nothing on stdout" (2, "") got

let () =
  Alcotest.run "cli"
    [
      ( "model",
        [
          Alcotest.test_case "check-trace honours the header" `Quick
            (header_model_judges "check-trace" ~rc:1);
          Alcotest.test_case "lint honours the header" `Quick (header_model_judges "lint" ~rc:0);
        ] );
      ( "source",
        [
          Alcotest.test_case "a missing SOURCE exits 2" `Quick
            (bad_source_exits_2 "no-such-trace.pmt");
          Alcotest.test_case "an unknown model header exits 2" `Quick (fun () ->
              let path = unknown_model_trace () in
              Fun.protect ~finally:(fun () -> Sys.remove path) (bad_source_exits_2 path));
        ] );
      ("save", [ Alcotest.test_case "a failed save exits 2" `Quick failed_save_exits_2 ]);
      ( "farm",
        [
          Alcotest.test_case "a refused campaign prints no banner" `Quick
            refused_campaign_prints_no_banner;
        ] );
    ]
