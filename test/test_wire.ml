(* The framed wire protocol: CRC-32 golden values, frame round trips
   over a real socketpair, torn/corrupt/alien-version frames, the
   payload codecs (hello, hello_ack, report, err), and the listening
   socket both daemons serve from. *)

open Pmtest_model
module Wire = Pmtest_wire.Wire
module Report = Pmtest_core.Report
module Loc = Pmtest_util.Loc

(* --- CRC-32 ----------------------------------------------------------------- *)

let test_crc32_golden () =
  (* The CRC-32/IEEE check value from the ROCKSOFT catalog. *)
  Alcotest.(check int) "check string" 0xcbf43926 (Wire.crc32 "123456789");
  Alcotest.(check int) "empty string" 0 (Wire.crc32 "");
  Alcotest.(check int) "single zero byte" 0xd202ef8d (Wire.crc32 "\x00")

(* --- Frames ----------------------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_round_trip () =
  with_socketpair (fun a b ->
      let payload = String.init 300 (fun i -> Char.chr (i mod 256)) in
      (match Wire.write_frame a Wire.Section payload with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Wire.error_to_string e));
      match Wire.read_one (Wire.reader b) with
      | Ok (kind, got) ->
        Alcotest.(check bool) "kind survives" true (kind = Wire.Section);
        Alcotest.(check string) "payload survives" payload got
      | Error e -> Alcotest.fail (Wire.error_to_string e))

let test_frame_empty_payload () =
  with_socketpair (fun a b ->
      (match Wire.write_frame a Wire.Bye "" with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Wire.error_to_string e));
      match Wire.read_one (Wire.reader b) with
      | Ok (kind, got) ->
        Alcotest.(check bool) "bye" true (kind = Wire.Bye);
        Alcotest.(check string) "empty" "" got
      | Error e -> Alcotest.fail (Wire.error_to_string e))

(* Capture a valid frame's raw bytes by writing into a socketpair. *)
let raw_frame kind payload =
  with_socketpair (fun a b ->
      (match Wire.write_frame a kind payload with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Wire.error_to_string e));
      let len = Wire.header_len + String.length payload in
      let buf = Bytes.create len in
      let rec fill off =
        if off < len then begin
          let n = Unix.read b buf off (len - off) in
          if n = 0 then Alcotest.fail "short read";
          fill (off + n)
        end
      in
      fill 0;
      Bytes.to_string buf)

let feed raw f =
  with_socketpair (fun a b ->
      let n = Unix.write_substring a raw 0 (String.length raw) in
      Alcotest.(check int) "fed everything" (String.length raw) n;
      Unix.close a;
      (* a closed: a truncated stream ends in EOF, not a hang *)
      f (Wire.read_one (Wire.reader b)))

let test_frame_send_timeout () =
  (* A peer that never reads: once the socket buffers fill, SO_SNDTIMEO
     expires and the write reports [Timeout] instead of raising. *)
  with_socketpair (fun a _b ->
      Unix.setsockopt_float a SO_SNDTIMEO 0.05;
      match Wire.write_frame a Wire.Section (String.make (8 * 1024 * 1024) 'x') with
      | Error Wire.Timeout -> ()
      | Ok () -> Alcotest.fail "8 MiB fit in an unread socket"
      | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e))

let test_frame_bad_crc () =
  let raw = raw_frame Wire.Section "hello, pmtestd" in
  let b = Bytes.of_string raw in
  (* Flip one payload byte: the length still matches, the CRC cannot. *)
  Bytes.set b (Wire.header_len + 3) 'X';
  feed (Bytes.to_string b) (function
    | Error (Wire.Corrupt _) -> ()
    | Ok _ -> Alcotest.fail "corrupt frame accepted"
    | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e))

let test_frame_torn_mid_payload () =
  let raw = raw_frame Wire.Section "a section that never fully arrives" in
  feed
    (String.sub raw 0 (Wire.header_len + 5))
    (function
      | Error (Wire.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "torn frame accepted"
      | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e))

let test_frame_torn_mid_header () =
  let raw = raw_frame Wire.Get_result "" in
  feed (String.sub raw 0 3) (function
    | Error (Wire.Corrupt _ | Wire.Closed) -> ()
    | Ok _ -> Alcotest.fail "torn header accepted"
    | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e))

let test_frame_eof_at_boundary () =
  (* A clean close between frames is Closed, not Corrupt: the client
     simply hung up. *)
  feed "" (function
    | Error Wire.Closed -> ()
    | Ok _ -> Alcotest.fail "read from closed peer succeeded"
    | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e))

let test_frame_alien_version () =
  (* One version on the wire: an older stamp is as alien as a newer one. *)
  let raw = raw_frame Wire.Hello "x" in
  List.iter
    (fun v ->
      let b = Bytes.of_string raw in
      Bytes.set b 0 (Char.chr v);
      feed (Bytes.to_string b) (function
        | Error (Wire.Version_mismatch got) -> Alcotest.(check int) "reported version" v got
        | Ok _ -> Alcotest.failf "version %d accepted" v
        | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)))
    [ 99; Wire.version - 1 ]

let test_frame_unknown_kind () =
  let raw = raw_frame Wire.Hello "x" in
  let b = Bytes.of_string raw in
  Bytes.set b 1 (Char.chr 250);
  feed (Bytes.to_string b) (function
    | Error (Wire.Corrupt _) -> ()
    | Ok _ -> Alcotest.fail "unknown kind accepted"
    | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e))

(* --- Buffered batch reader ---------------------------------------------------- *)

let test_batch_many_frames_one_read () =
  (* Five frames land in the socket buffer before the reader wakes: one
     read_batch must surface all five, in order, without further I/O. *)
  let payloads = List.init 5 (fun i -> Printf.sprintf "section-%d" i) in
  let raw = String.concat "" (List.map (raw_frame Wire.Section) payloads) in
  with_socketpair (fun a b ->
      let n = Unix.write_substring a raw 0 (String.length raw) in
      Alcotest.(check int) "fed everything" (String.length raw) n;
      Unix.close a;
      let r = Wire.reader b in
      (match Wire.read_batch r with
      | Error e -> Alcotest.fail (Wire.error_to_string e)
      | Ok frames ->
        Alcotest.(check int) "all five in one batch" 5 (List.length frames);
        List.iter2
          (fun want (kind, got) ->
            Alcotest.(check bool) "kind" true (kind = Wire.Section);
            Alcotest.(check string) "payload, in order" want got)
          payloads frames);
      match Wire.read_batch r with
      | Error Wire.Closed -> ()
      | Ok _ -> Alcotest.fail "read past EOF succeeded"
      | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e))

let test_batch_stops_at_partial_frame () =
  (* Two complete frames plus the first half of a third: the batch
     returns the two without blocking for the third's tail, and the
     third is delivered once its remainder arrives. *)
  let raw1 = raw_frame Wire.Section "first" in
  let raw2 = raw_frame Wire.Section "second" in
  let raw3 = raw_frame Wire.Get_result "" in
  let cut = String.length raw3 / 2 in
  with_socketpair (fun a b ->
      let head = raw1 ^ raw2 ^ String.sub raw3 0 cut in
      ignore (Unix.write_substring a head 0 (String.length head));
      let r = Wire.reader b in
      (match Wire.read_batch r with
      | Error e -> Alcotest.fail (Wire.error_to_string e)
      | Ok frames ->
        Alcotest.(check (list string))
          "only the complete frames" [ "first"; "second" ]
          (List.map snd frames));
      ignore (Unix.write_substring a raw3 cut (String.length raw3 - cut));
      match Wire.read_batch r with
      | Error e -> Alcotest.fail (Wire.error_to_string e)
      | Ok [ (kind, "") ] -> Alcotest.(check bool) "get_result" true (kind = Wire.Get_result)
      | Ok _ -> Alcotest.fail "wrong tail batch")

let test_read_some_half_frame () =
  (* One read(2) that ends mid-frame yields no frame and does not block
     for the rest (the receive timeout turns a blocking implementation
     into a failure, not a hang); the frame comes whole on the read
     after its tail arrives. *)
  let raw = raw_frame Wire.Job_claim (Wire.encode_job_claim ~job:3 ~attempt:2) in
  let cut = String.length raw / 2 in
  with_socketpair (fun a b ->
      Unix.setsockopt_float b SO_RCVTIMEO 1.0;
      let r = Wire.reader b in
      ignore (Unix.write_substring a raw 0 cut);
      (match Wire.read_some r with
      | Ok [] -> ()
      | Ok _ -> Alcotest.fail "half a frame came back as a frame"
      | Error e -> Alcotest.fail (Wire.error_to_string e));
      ignore (Unix.write_substring a raw cut (String.length raw - cut));
      match Wire.read_some r with
      | Ok [ (Wire.Job_claim, payload) ] ->
        Alcotest.(check (result (pair int int) reject))
          "the claim" (Ok (3, 2)) (Wire.decode_job_claim payload)
      | Ok _ -> Alcotest.fail "wrong frames once whole"
      | Error e -> Alcotest.fail (Wire.error_to_string e))

let test_batch_error_is_sticky () =
  (* A good frame followed by a corrupt one in the same read: the good
     frame is still delivered, and the framing error surfaces on the
     next call — and on every call after that (a framing error is
     unrecoverable; resynchronising inside the stream is hopeless). *)
  let good = raw_frame Wire.Section "survivor" in
  let bad = Bytes.of_string (raw_frame Wire.Section "about to be smashed") in
  Bytes.set bad (Wire.header_len + 2) 'X';
  let raw = good ^ Bytes.to_string bad in
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a raw 0 (String.length raw));
      Unix.close a;
      let r = Wire.reader b in
      (match Wire.read_batch r with
      | Error e -> Alcotest.fail (Wire.error_to_string e)
      | Ok frames ->
        Alcotest.(check (list string)) "good frame delivered" [ "survivor" ]
          (List.map snd frames));
      (match Wire.read_batch r with
      | Error (Wire.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "corrupt frame accepted"
      | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e));
      match Wire.read_one r with
      | Error (Wire.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "sticky error cleared"
      | Error e -> Alcotest.failf "sticky error changed: %s" (Wire.error_to_string e))

let test_read_one_interleaves_with_batch () =
  (* read_one drains the same buffer: frames already buffered by a batch
     refill come back one at a time in order. *)
  let payloads = [ "a"; "b"; "c" ] in
  let raw = String.concat "" (List.map (raw_frame Wire.Section) payloads) in
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a raw 0 (String.length raw));
      Unix.close a;
      let r = Wire.reader b in
      List.iter
        (fun want ->
          match Wire.read_one r with
          | Ok (_, got) -> Alcotest.(check string) "in order" want got
          | Error e -> Alcotest.fail (Wire.error_to_string e))
        payloads;
      match Wire.read_one r with
      | Error Wire.Closed -> ()
      | Ok _ -> Alcotest.fail "read past EOF succeeded"
      | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e))

let test_batch_eof_mid_payload_is_corrupt () =
  (* EOF with a frame's header buffered but its payload missing is a
     torn frame (Corrupt), as it is for read_one. *)
  let raw1 = raw_frame Wire.Section "complete" in
  let raw2 = raw_frame Wire.Section "never fully arrives" in
  let raw = raw1 ^ String.sub raw2 0 (Wire.header_len + 4) in
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a raw 0 (String.length raw));
      Unix.close a;
      let r = Wire.reader b in
      (match Wire.read_batch r with
      | Ok frames ->
        Alcotest.(check (list string)) "complete frame first" [ "complete" ]
          (List.map snd frames)
      | Error e -> Alcotest.fail (Wire.error_to_string e));
      match Wire.read_batch r with
      | Error (Wire.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "torn frame accepted"
      | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e))

(* --- Payload codecs ---------------------------------------------------------- *)

let test_hello_round_trip () =
  List.iter
    (fun model ->
      match Wire.decode_hello (Wire.encode_hello ~model) with
      | Ok m -> Alcotest.(check bool) (Model.kind_name model) true (m = model)
      | Error e -> Alcotest.fail (Wire.error_to_string e))
    Model.all_kinds

let test_hello_ack_round_trip () =
  List.iter
    (fun (session, max_inflight, policy) ->
      match
        Wire.decode_hello_ack (Wire.encode_hello_ack ~session ~max_inflight ~policy)
      with
      | Ok (s, m, p) ->
        Alcotest.(check int) "session" session s;
        Alcotest.(check int) "max_inflight" max_inflight m;
        Alcotest.(check bool) "policy" true (p = policy)
      | Error e -> Alcotest.fail (Wire.error_to_string e))
    [ (1, 64, Wire.Block); (70000, 0, Wire.Shed) ]

let test_report_round_trip () =
  let loc = Loc.make ~file:"pmdk/pool.c" ~line:620 in
  let report =
    {
      Report.diagnostics =
        [
          { Report.kind = Report.Not_persisted; loc; message = "write may not persist" };
          {
            Report.kind = Report.Unnecessary_writeback;
            loc = Loc.none;
            message = "redundant flush";
          };
        ];
      entries = 15;
      ops = 12;
      checkers = 3;
    }
  in
  match Wire.decode_report (Wire.encode_report report) with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok got ->
    Alcotest.(check string) "report renders identically"
      (Format.asprintf "%a" Report.pp report)
      (Format.asprintf "%a" Report.pp got)

let test_corrupt_cxl_hello_frame () =
  (* A CXL hello whose payload byte is smashed must surface as a typed
     Corrupt error at the frame layer, never as a silent model downgrade. *)
  let raw = raw_frame Wire.Hello (Wire.encode_hello ~model:Model.Cxl) in
  let b = Bytes.of_string raw in
  Bytes.set b Wire.header_len (Char.chr 0xff);
  feed (Bytes.to_string b) (function
    | Error (Wire.Corrupt _) -> ()
    | Ok _ -> Alcotest.fail "corrupt cxl hello accepted"
    | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e))

let test_hello_unknown_model_code () =
  (* One code past Cxl: the payload codec must reject it, so an older
     server cannot misread a future model as one of the known four. *)
  let good = Wire.encode_hello ~model:Model.Cxl in
  let bad = Bytes.of_string good in
  Bytes.set bad 0 (Char.chr (Char.code good.[0] + 1));
  match Wire.decode_hello (Bytes.to_string bad) with
  | Ok m -> Alcotest.failf "model code past cxl decoded as %s" (Model.kind_name m)
  | Error _ -> ()

let test_err_round_trip () =
  match Wire.decode_err (Wire.encode_err "session limit reached (32 active)") with
  | Ok m -> Alcotest.(check string) "message" "session limit reached (32 active)" m
  | Error e -> Alcotest.fail (Wire.error_to_string e)

(* --- Farm frames ------------------------------------------------------------ *)

let test_worker_hello_codec_round_trip () =
  match Wire.decode_worker_hello (Wire.encode_worker_hello ~name:"rig-7.worker-b") with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok name -> Alcotest.(check string) "name" "rig-7.worker-b" name

let test_job_offer_codec_round_trip () =
  let spec = "fuzz model=x86 seed=0 count=200 chunk=25" in
  match
    Wire.decode_job_offer (Wire.encode_job_offer ~job:6 ~attempt:2 ~lo:150 ~hi:175 ~spec)
  with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok (job, attempt, lo, hi, got) ->
    Alcotest.(check int) "job" 6 job;
    Alcotest.(check int) "attempt" 2 attempt;
    Alcotest.(check int) "lo" 150 lo;
    Alcotest.(check int) "hi" 175 hi;
    Alcotest.(check string) "spec travels verbatim" spec got

let test_job_claim_codec_round_trip () =
  match Wire.decode_job_claim (Wire.encode_job_claim ~job:0 ~attempt:1) with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok (job, attempt) ->
    Alcotest.(check int) "job" 0 job;
    Alcotest.(check int) "attempt" 1 attempt

let test_job_result_codec_round_trip () =
  (* Findings are full reproducer texts: newlines and '#' comment lines
     must survive untouched. *)
  let findings =
    [
      ("x86-seed3-store-skips-flush", "# pmtest reproducer v1\nstore 0 8\nflush 0\n");
      ("pmfs-alloc-seed9", "# crashfs reproducer\ncreate /a\nwrite /a 64\n");
    ]
  in
  match
    Wire.decode_job_result
      (Wire.encode_job_result ~job:3 ~attempt:1 ~digest:"2a97e25cffff0123" ~units:25
         ~elapsed_ms:412 ~findings)
  with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok (job, attempt, digest, units, elapsed_ms, got) ->
    Alcotest.(check int) "job" 3 job;
    Alcotest.(check int) "attempt" 1 attempt;
    Alcotest.(check string) "digest" "2a97e25cffff0123" digest;
    Alcotest.(check int) "units" 25 units;
    Alcotest.(check int) "elapsed" 412 elapsed_ms;
    Alcotest.(check (list (pair string string))) "findings verbatim" findings got

let test_checkpoint_codec_round_trip () =
  (match Wire.decode_checkpoint (Wire.encode_checkpoint ~running:(Some 7) ~jobs_done:12) with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok (running, jobs_done) ->
    Alcotest.(check (option int)) "running job" (Some 7) running;
    Alcotest.(check int) "jobs done" 12 jobs_done);
  match Wire.decode_checkpoint (Wire.encode_checkpoint ~running:None ~jobs_done:0) with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok (running, jobs_done) ->
    Alcotest.(check (option int)) "idle" None running;
    Alcotest.(check int) "fresh" 0 jobs_done

let test_job_refused_codec_round_trip () =
  match
    Wire.decode_job_refused
      (Wire.encode_job_refused ~job:4 ~attempt:2 ~reason:"unknown fault 'torn-journal'")
  with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok (job, attempt, reason) ->
    Alcotest.(check int) "job" 4 job;
    Alcotest.(check int) "attempt" 2 attempt;
    Alcotest.(check string) "reason" "unknown fault 'torn-journal'" reason

let test_job_offer_inverted_range_rejected () =
  (* The encoder is trusting; the decoder is not.  A frame whose seed
     range runs backwards is corrupt, not an empty job. *)
  match
    Wire.decode_job_offer
      (Wire.encode_job_offer ~job:1 ~attempt:1 ~lo:50 ~hi:25 ~spec:"fuzz model=x86")
  with
  | Ok _ -> Alcotest.fail "inverted seed range accepted"
  | Error (Wire.Corrupt _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)

let test_farm_codecs_reject_garbage () =
  (* Empty, random, and truncated payloads must all surface as typed
     errors — a worker answers these with [Err] and keeps its link. *)
  let offer =
    Wire.encode_job_offer ~job:2 ~attempt:1 ~lo:0 ~hi:25 ~spec:"fuzz model=x86 count=25"
  in
  let result =
    Wire.encode_job_result ~job:2 ~attempt:1 ~digest:"abcd" ~units:25 ~elapsed_ms:3
      ~findings:[ ("n", "text") ]
  in
  List.iter
    (fun (name, r) ->
      match r with
      | Ok _ -> Alcotest.failf "%s decoded garbage" name
      | Error (Wire.Corrupt _) -> ()
      | Error e -> Alcotest.failf "%s: wrong error: %s" name (Wire.error_to_string e))
    [
      ("worker_hello empty", Result.map ignore (Wire.decode_worker_hello ""));
      ( "worker_hello truncated name",
        Result.map ignore (Wire.decode_worker_hello "\x20abc") );
      ("job_offer empty", Result.map ignore (Wire.decode_job_offer ""));
      ( "job_offer truncated",
        Result.map ignore
          (Wire.decode_job_offer (String.sub offer 0 (String.length offer / 2))) );
      ( "job_offer trailing bytes",
        Result.map ignore (Wire.decode_job_offer (offer ^ "\x00")) );
      ("job_claim empty", Result.map ignore (Wire.decode_job_claim ""));
      ( "job_claim trailing bytes",
        Result.map ignore (Wire.decode_job_claim (Wire.encode_job_claim ~job:1 ~attempt:1 ^ "z"))
      );
      ("job_result empty", Result.map ignore (Wire.decode_job_result ""));
      ( "job_result truncated finding",
        Result.map ignore
          (Wire.decode_job_result (String.sub result 0 (String.length result - 2))) );
      ("job_refused empty", Result.map ignore (Wire.decode_job_refused ""));
      ( "job_refused truncated reason",
        Result.map ignore (Wire.decode_job_refused "\x01\x01\x20oops") );
      ( "job_refused trailing bytes",
        Result.map ignore
          (Wire.decode_job_refused
             (Wire.encode_job_refused ~job:1 ~attempt:1 ~reason:"r" ^ "\x00")) );
      ("checkpoint empty", Result.map ignore (Wire.decode_checkpoint ""));
      ( "checkpoint varint overflow",
        Result.map ignore
          (Wire.decode_checkpoint "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff") );
    ]

let test_codec_rejects_garbage () =
  List.iter
    (fun (name, r) ->
      match r with
      | Ok _ -> Alcotest.failf "%s decoded garbage" name
      | Error _ -> ())
    [
      ("hello", Result.map ignore (Wire.decode_hello "\xff\xff"));
      ("hello_ack", Result.map ignore (Wire.decode_hello_ack ""));
      ("report", Result.map ignore (Wire.decode_report "\x81"));
    ]

(* --- Listening --------------------------------------------------------------- *)

let test_listen_and_accept () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmtest-wire-listen-%d.sock" (Unix.getpid ()))
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc "stale");
  let l = Wire.listen path in
  Fun.protect
    ~finally:(fun () ->
      Unix.close l;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Alcotest.(check bool) "a non-blocking listener: nothing to accept" true
        (Wire.accept l = None);
      let c = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      Unix.connect c (ADDR_UNIX path);
      match Wire.accept l with
      | None -> Alcotest.fail "the pending connection was not accepted"
      | Some s ->
        (match Wire.write_frame c Wire.Bye "" with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Wire.error_to_string e));
        (match Wire.read_one (Wire.reader s) with
        | Ok (kind, _) -> Alcotest.(check bool) "a frame crosses" true (kind = Wire.Bye)
        | Error e -> Alcotest.fail (Wire.error_to_string e));
        List.iter Unix.close [ s; c ]);
  match Wire.listen (Filename.concat path "no-such-dir.sock") with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Unix.close fd;
    Alcotest.fail "listened under a path that is not a directory"

let () =
  Alcotest.run "wire"
    [
      ("crc", [ Alcotest.test_case "golden values" `Quick test_crc32_golden ]);
      ( "frames",
        [
          Alcotest.test_case "round trip over a socketpair" `Quick test_frame_round_trip;
          Alcotest.test_case "empty payload" `Quick test_frame_empty_payload;
          Alcotest.test_case "bad CRC rejected" `Quick test_frame_bad_crc;
          Alcotest.test_case "torn mid-payload" `Quick test_frame_torn_mid_payload;
          Alcotest.test_case "torn mid-header" `Quick test_frame_torn_mid_header;
          Alcotest.test_case "EOF at a frame boundary is Closed" `Quick
            test_frame_eof_at_boundary;
          Alcotest.test_case "alien protocol version" `Quick test_frame_alien_version;
          Alcotest.test_case "unknown frame kind" `Quick test_frame_unknown_kind;
          Alcotest.test_case "corrupt cxl hello frame" `Quick test_corrupt_cxl_hello_frame;
          Alcotest.test_case "send timeout is Timeout" `Quick test_frame_send_timeout;
        ] );
      ( "reader",
        [
          Alcotest.test_case "many frames in one batch" `Quick test_batch_many_frames_one_read;
          Alcotest.test_case "batch stops at a partial frame" `Quick
            test_batch_stops_at_partial_frame;
          Alcotest.test_case "framing errors are sticky" `Quick test_batch_error_is_sticky;
          Alcotest.test_case "read_one interleaves with batch" `Quick
            test_read_one_interleaves_with_batch;
          Alcotest.test_case "EOF mid-payload is Corrupt" `Quick
            test_batch_eof_mid_payload_is_corrupt;
          Alcotest.test_case "read_some waits out half a frame" `Quick test_read_some_half_frame;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "hello" `Quick test_hello_round_trip;
          Alcotest.test_case "model code past cxl rejected" `Quick
            test_hello_unknown_model_code;
          Alcotest.test_case "hello_ack" `Quick test_hello_ack_round_trip;
          Alcotest.test_case "report" `Quick test_report_round_trip;
          Alcotest.test_case "err" `Quick test_err_round_trip;
          Alcotest.test_case "garbage rejected" `Quick test_codec_rejects_garbage;
        ] );
      ( "listen",
        [
          Alcotest.test_case "stale file replaced, accept, bad path" `Quick
            test_listen_and_accept;
        ] );
      ( "farm",
        [
          Alcotest.test_case "worker_hello round trip" `Quick
            test_worker_hello_codec_round_trip;
          Alcotest.test_case "job_offer round trip" `Quick test_job_offer_codec_round_trip;
          Alcotest.test_case "job_claim round trip" `Quick test_job_claim_codec_round_trip;
          Alcotest.test_case "job_result round trip" `Quick test_job_result_codec_round_trip;
          Alcotest.test_case "job_refused round trip" `Quick test_job_refused_codec_round_trip;
          Alcotest.test_case "checkpoint round trip" `Quick test_checkpoint_codec_round_trip;
          Alcotest.test_case "inverted seed range rejected" `Quick
            test_job_offer_inverted_range_rejected;
          Alcotest.test_case "corrupt and truncated payloads rejected" `Quick
            test_farm_codecs_reject_garbage;
        ] );
    ]
