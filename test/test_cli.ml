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

let missing_source_exits_2 () =
  List.iter
    (fun cmd ->
      Alcotest.(check int) (cmd ^ " on a missing file") 2 (fst (run [ cmd; "no-such-trace.pmt" ])))
    [ "check-trace"; "lint"; "stat"; "repair" ]

let () =
  Alcotest.run "cli"
    [
      ( "model",
        [
          Alcotest.test_case "check-trace honours the header" `Quick
            (header_model_judges "check-trace" ~rc:1);
          Alcotest.test_case "lint honours the header" `Quick (header_model_judges "lint" ~rc:0);
        ] );
      ("source", [ Alcotest.test_case "a missing SOURCE exits 2" `Quick missing_source_exits_2 ]);
    ]
