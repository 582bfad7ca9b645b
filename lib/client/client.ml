open Pmtest_trace
module Model = Pmtest_model.Model
module Report = Pmtest_core.Report
module Pmtest = Pmtest_core.Pmtest
module Wire = Pmtest_wire.Wire

type t = {
  fd : Unix.file_descr;
  (* Buffered reply reader; replies are rare (hello-ack, reports) but
     the buffer also means a report arriving back-to-back with an [Err]
     is never half-lost to a short read. *)
  reader : Wire.reader;
  model : Model.kind;
  policy : Wire.policy;
  (* Last Prelude payload on the wire; re-sent only on change, so a
     section stream with a stable exclusion scope costs one extra frame
     total, not one per section. *)
  mutable sent_prelude : string;
  mutable closed : bool;
}

let err_of = Wire.error_to_string

let encode_prelude events =
  let p = Packed.of_events events in
  let s = Packed.encode_wire p in
  Packed.free p;
  s

let empty_prelude = lazy (encode_prelude [||])

let connect ?(model = Model.X86) ~socket () =
  Wire.dial ~socket
    ~hello:(Wire.Hello, Wire.encode_hello ~model)
    ~reply:(Wire.Hello_ack, Wire.decode_hello_ack)
    ~refused:"server refused session"
  |> Result.map (fun (fd, reader, (_session, _max_inflight, policy)) ->
         { fd; reader; model; policy; sent_prelude = Lazy.force empty_prelude; closed = false })

let connect_retry ?model ?(attempts = 8) ?(base_delay = 0.05) ?(max_delay = 2.0) ?on_retry
    ~socket () =
  if attempts < 1 then invalid_arg "Client.connect_retry: attempts < 1";
  Wire.retry ~attempts ~base_delay ~max_delay ?on_retry (connect ?model ~socket)

let policy t = t.policy

let check_open t = if t.closed then Error "client already closed" else Ok ()

let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

let write t kind payload =
  match Wire.write_frame t.fd kind payload with
  | Ok () -> Ok ()
  | Error e ->
    t.closed <- true;
    Error (err_of e)

let sync_prelude t prelude =
  let payload = encode_prelude prelude in
  if String.equal payload t.sent_prelude then Ok ()
  else
    let* () = write t Wire.Prelude payload in
    t.sent_prelude <- payload;
    Ok ()

let send_packed ?(prelude = [||]) t p =
  let payload =
    let* () = check_open t in
    let* () = sync_prelude t prelude in
    Ok (Packed.encode_wire p)
  in
  Packed.free p;
  let* payload = payload in
  write t Wire.Section payload

let send_events ?prelude t events =
  if Array.length events = 0 then Ok () else send_packed ?prelude t (Packed.of_events events)

let get_result t =
  let* () = check_open t in
  let* () = write t Wire.Get_result "" in
  match Wire.read_one t.reader with
  | Error e ->
    t.closed <- true;
    Error (err_of e)
  | Ok (Wire.Report_frame, payload) -> (
    match Wire.decode_report payload with Ok r -> Ok r | Error e -> Error (err_of e))
  | Ok (Wire.Err, payload) -> (
    t.closed <- true;
    match Wire.decode_err payload with
    | Ok m -> Error ("server error: " ^ m)
    | Error e -> Error (err_of e))
  | Ok (kind, _) ->
    t.closed <- true;
    Error (Printf.sprintf "unexpected %s frame" (Wire.kind_name kind))

let close t =
  if not t.closed then begin
    ignore (Wire.write_frame t.fd Wire.Bye "");
    t.closed <- true
  end;
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* --- Remote tracing session ---------------------------------------------- *)

(* A [Pmtest] session over the daemon: the exclusion preamble travels as
   a [Prelude] frame (deduplicated by {!sync_prelude}) instead of a boxed
   prefix, so an attached workload earns byte-for-byte the report an
   in-process session over the same events would. *)
module Session = struct
  type conn = t
  type t = Pmtest.t

  let target conn =
    {
      Pmtest.model = conn.model;
      send = (fun ~prelude p -> send_packed ~prelude conn p);
      send_boxed = (fun ~prelude section -> send_events ~prelude conn section);
      get_result = (fun () -> get_result conn);
      shutdown = (fun () -> get_result conn);
    }

  let make ?obs conn = Pmtest.over ?obs ~packed:true (target conn)
  let sink = Pmtest.sink
  let emit = Pmtest.emit
  let send_trace = Pmtest.send_trace
  let finish = Pmtest.finish_result
end
