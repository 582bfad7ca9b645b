(* The replay half of the traced run.  A workload's recorded sections go
   through each layer's public function alone, one layer at a time, on
   one domain: [Gc.minor_words] counts only the calling domain's
   allocation in OCaml 5.1.  Only the runtime layer starts a checking
   domain, and its words are not reported.  Every workload runs the x86
   model. *)

open Pmtest_trace
module Engine = Pmtest_core.Engine
module Report = Pmtest_core.Report
module Runtime = Pmtest_core.Runtime
module Wire = Pmtest_wire.Wire
module Client = Pmtest_client.Client
module Model = Pmtest_model.Model
module Stats = Pmtest_util.Stats

type corpus = {
  sections : Event.t array array;  (** Each with its exclusion preamble. *)
  packed : bool;  (** Which builder the live sessions use. *)
}

let model = Model.X86

let entries c = Array.fold_left (fun n s -> n + Array.length s) 0 c.sections
let median l = Stats.median (Array.of_list l)

(* Repeat [pass] until [min_s] has gone by, at least once.  Returns the
   median seconds and minor words per pass. *)
let passes sp name ~min_s pass =
  let times = ref [] and words = ref [] in
  let start = Span.now () in
  let rec go k =
    Span.enter sp name;
    let w0 = Gc.minor_words () in
    let t0 = Span.now () in
    pass ();
    let dt = Span.seconds_since t0 in
    words := (Gc.minor_words () -. w0) :: !words;
    Span.leave sp;
    times := dt :: !times;
    if k < 500 && Span.seconds_since start < min_s then go (k + 1)
  in
  go 1;
  (median !times, median !words)

let threads_of section =
  Array.fold_left
    (fun acc (e : Event.t) -> if List.mem e.Event.thread acc then acc else acc @ [ e.Event.thread ])
    [] section

(* The per-layer metrics, as (name, unit, value).  [socket] is a live
   pmtestd for the client layer. *)
let run ~socket ~min_s sp c =
  let n_entries = float_of_int (entries c) in
  let n_sections = float_of_int (Array.length c.sections) in
  let per_entry prefix (t, w) =
    [
      (prefix ^ "ns_per_entry", "ns", t *. 1e9 /. n_entries);
      (prefix ^ "words_per_entry", "words", w /. n_entries);
    ]
  in
  let b = Builder.create ~packed:c.packed () in
  let builder =
    passes sp "builder.emit" ~min_s (fun () ->
        Array.iter
          (fun section ->
            Array.iter (fun (e : Event.t) -> Builder.emit b e.Event.kind e.Event.loc) section;
            if c.packed then Packed.free (Builder.take_packed b) else ignore (Builder.take b))
          c.sections)
  in
  let arenas = ref [||] in
  let encode =
    passes sp "packed.of_events" ~min_s (fun () -> arenas := Array.map Packed.of_events c.sections)
  in
  let reports = ref [||] in
  let check =
    passes sp "engine.check" ~min_s (fun () ->
        reports := Array.map (fun s -> Engine.check ~model:model s) c.sections)
  in
  let check_packed =
    passes sp "engine.check_packed" ~min_s (fun () ->
        Array.iter (fun p -> ignore (Engine.check_packed ~model:model p)) !arenas)
  in
  let merge_s, _ =
    passes sp "report.merge" ~min_s (fun () ->
        ignore (Array.fold_left Report.merge Report.empty !reports))
  in
  let aggregate = Array.fold_left Report.merge Report.empty !reports in
  let payloads = ref [||] in
  let frame_s, _ =
    passes sp "wire.frame" ~min_s (fun () ->
        payloads :=
          Array.map
            (fun p ->
              let s = Packed.encode_wire p in
              ignore (Wire.crc32 s);
              s)
            !arenas)
  in
  let payload_bytes = Array.fold_left (fun n s -> n + String.length s) 0 !payloads in
  let wire_bytes = payload_bytes + (Wire.header_len * Array.length !payloads) in
  (* Write and read back each frame on one thread: every section here is
     far below the socket buffer, so the write never blocks. *)
  let fd_a, fd_b = Unix.socketpair ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  let reader = Wire.reader fd_b in
  let socket_s, _ =
    Fun.protect
      ~finally:(fun () ->
        Unix.close fd_a;
        Unix.close fd_b)
      (fun () ->
        passes sp "wire.socket" ~min_s (fun () ->
            Array.iter
              (fun payload ->
                (match Wire.write_frame fd_a Wire.Section payload with
                | Ok () -> ()
                | Error e -> failwith ("write_frame: " ^ Wire.error_to_string e));
                match Wire.read_batch reader with
                | Ok [ (Wire.Section, _) ] -> ()
                | Ok _ -> failwith "read_batch: expected one section frame"
                | Error e -> failwith ("read_batch: " ^ Wire.error_to_string e))
              !payloads))
  in
  let pool = Packed.create_pool () in
  let decode =
    passes sp "packed.decode_wire" ~min_s (fun () ->
        Array.iter
          (fun s ->
            match Packed.decode_wire ~pool s with
            | Ok p -> Packed.free ~pool p
            | Error e -> failwith (Packed.decode_error_to_string e))
          !payloads)
  in
  let codec_s, _ =
    passes sp "wire.report_codec" ~min_s (fun () ->
        match Wire.decode_report (Wire.encode_report aggregate) with
        | Ok _ -> ()
        | Error e -> failwith ("report codec: " ^ Wire.error_to_string e))
  in
  (* Runtime, closed loop: one section in flight, as when the checker
     keeps up with the program; then a burst of every section, drained. *)
  let n = Array.length c.sections in
  let sends = Array.make n 0.0 and latency = Array.make n 0.0 in
  let rt = Runtime.create ~workers:1 ~model:model () in
  Span.enter sp "runtime.closed_loop";
  Array.iteri
    (fun i section ->
      let p = Packed.of_events section in
      let t0 = Span.now () in
      Runtime.send_packed_cb rt p (fun _ -> latency.(i) <- Span.seconds_since t0);
      sends.(i) <- Span.seconds_since t0;
      ignore (Runtime.get_result rt))
    c.sections;
  Span.leave sp;
  let burst = Array.map Packed.of_events c.sections in
  Span.enter sp "runtime.burst";
  Array.iter (fun p -> Runtime.send_packed_cb rt p ignore) burst;
  Span.enter sp "runtime.drain";
  let t0 = Span.now () in
  ignore (Runtime.get_result rt);
  let drain = Span.seconds_since t0 in
  Span.leave sp;
  Span.leave sp;
  ignore (Runtime.shutdown rt);
  let client_sends = Array.make n 0.0 in
  let client_finish =
    match Client.connect ~model:model ~socket () with
    | Error e -> failwith ("client connect: " ^ e)
    | Ok conn ->
      let cs = Client.Session.make conn in
      Array.iteri
        (fun i section ->
          Array.iter
            (fun (e : Event.t) ->
              Client.Session.emit ~thread:e.Event.thread ~loc:e.Event.loc cs e.Event.kind)
            section;
          Span.enter sp "client.send_trace";
          let t0 = Span.now () in
          List.iter (fun thread -> Client.Session.send_trace ~thread cs) (threads_of section);
          client_sends.(i) <- Span.seconds_since t0;
          Span.leave sp)
        c.sections;
      Span.enter sp "client.finish";
      let t0 = Span.now () in
      let r = Client.Session.finish cs in
      let dt = Span.seconds_since t0 in
      Span.leave sp;
      Client.close conn;
      (match r with Ok _ -> () | Error e -> failwith ("client finish: " ^ e));
      dt
  in
  let mean a = Stats.mean a in
  List.concat
    [
      per_entry "builder." builder;
      per_entry "packed.encode_" encode;
      per_entry "engine.check_" check;
      per_entry "engine.check_packed_" check_packed;
      [
        ("engine.entries_per_section", "count", n_entries /. n_sections);
        ("report.merge_ns_per_section", "ns", merge_s *. 1e9 /. n_sections);
        ("runtime.send_ns_per_section", "ns", mean sends *. 1e9);
        ("runtime.latency_us_p50", "us", Stats.percentile latency 50.0 *. 1e6);
        ("runtime.latency_us_p95", "us", Stats.percentile latency 95.0 *. 1e6);
        ("runtime.drain_ms", "ms", drain *. 1e3);
        ("wire.bytes_per_entry", "bytes", float_of_int wire_bytes /. n_entries);
        ("wire.frame_ns_per_byte", "ns", frame_s *. 1e9 /. float_of_int payload_bytes);
        ("wire.socket_us_per_section", "us", socket_s *. 1e6 /. n_sections);
      ];
      per_entry "packed.decode_" decode;
      [
        ("wire.report_codec_us", "us", codec_s *. 1e6);
        ("client.send_us_per_section", "us", mean client_sends *. 1e6);
        ("client.finish_ms", "ms", client_finish *. 1e3);
      ];
    ]
