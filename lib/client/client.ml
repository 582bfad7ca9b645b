open Pmtest_util
open Pmtest_trace
open Pmtest_itree
module Model = Pmtest_model.Model
module Report = Pmtest_core.Report
module Obs = Pmtest_obs.Obs
module Wire = Pmtest_wire.Wire

type t = {
  fd : Unix.file_descr;
  (* Buffered reply reader; replies are rare (hello-ack, reports) but
     the buffer also means a report arriving back-to-back with an [Err]
     is never half-lost to a short read. *)
  reader : Wire.reader;
  session : int;
  model : Model.kind;
  max_inflight : int;
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
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
    match Unix.connect fd (ADDR_UNIX socket) with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e))
    | () -> (
      let fail msg =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error msg
      in
      let reader = Wire.reader fd in
      match Wire.write_frame fd Wire.Hello (Wire.encode_hello ~model) with
      | Error e -> fail (err_of e)
      | Ok () -> (
        match Wire.read_one reader with
        | Error e -> fail (err_of e)
        | Ok (Wire.Err, payload) ->
          fail
            (match Wire.decode_err payload with
            | Ok m -> "server refused session: " ^ m
            | Error e -> err_of e)
        | Ok (Wire.Hello_ack, payload) -> (
          match Wire.decode_hello_ack payload with
          | Error e -> fail (err_of e)
          | Ok (session, max_inflight, policy) ->
            Ok
              {
                fd;
                reader;
                session;
                model;
                max_inflight;
                policy;
                sent_prelude = Lazy.force empty_prelude;
                closed = false;
              })
        | Ok (kind, _) -> fail (Printf.sprintf "unexpected %s frame" (Wire.kind_name kind)))))

(* Exponential backoff with full-range jitter (0.5x..1.5x of the
   nominal delay): workers of one farm that all lose the coordinator at
   once must not reconnect in lockstep. *)
let connect_retry ?model ?(attempts = 8) ?(base_delay = 0.05) ?(max_delay = 2.0) ?on_retry
    ~socket () =
  if attempts < 1 then invalid_arg "Client.connect_retry: attempts < 1";
  let rng = Random.State.make_self_init () in
  let rec go n delay =
    match connect ?model ~socket () with
    | Ok _ as ok -> ok
    | Error e ->
      if n + 1 >= attempts then
        Error (Printf.sprintf "%s (after %d attempt(s))" e attempts)
      else begin
        let jittered = delay *. (0.5 +. Random.State.float rng 1.0) in
        (match on_retry with Some f -> f ~attempt:(n + 1) ~delay:jittered e | None -> ());
        (try Unix.sleepf jittered with Unix.Unix_error _ -> ());
        go (n + 1) (Float.min max_delay (delay *. 2.0))
      end
  in
  go 0 base_delay

let session_id t = t.session
let model t = t.model
let max_inflight t = t.max_inflight
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
  let* () = check_open t in
  let* () = sync_prelude t prelude in
  let payload = Packed.encode_wire p in
  Packed.free p;
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

(* Mirrors [Pmtest]'s session logic — per-thread packed builders, a live
   exclusion scope whose preamble is announced ahead of each section —
   so a workload attached to a daemon earns byte-for-byte the report an
   in-process [Pmtest] session over the same events would.  The one
   difference is where the preamble travels: as a [Prelude] frame
   (deduplicated by {!sync_prelude}) instead of a boxed prefix. *)
module Session = struct
  type nonrec conn = t

  type t = {
    conn : conn;
    obs : Obs.t;
    builders : (int, Builder.t) Hashtbl.t;
    mutex : Mutex.t;
    mutable excluded : unit Interval_map.t;
    mutable error : string option;
  }

  let make ?(obs = Obs.disabled) conn =
    let s =
      {
        conn;
        obs;
        builders = Hashtbl.create 8;
        mutex = Mutex.create ();
        excluded = Interval_map.empty;
        error = None;
      }
    in
    Hashtbl.replace s.builders 0 (Builder.create ~thread:0 ~packed:true ~obs ());
    s

  let builder s thread =
    Mutex.protect s.mutex (fun () ->
        match Hashtbl.find_opt s.builders thread with
        | Some b -> b
        | None ->
          let b = Builder.create ~thread ~packed:true ~obs:s.obs () in
          Hashtbl.replace s.builders thread b;
          b)

  let sink ?(thread = 0) s = Sink.observed s.obs (Builder.sink (builder s thread))

  let emit ?(thread = 0) ?(loc = Loc.none) s kind =
    if Obs.enabled s.obs then Obs.add s.obs Obs.events_traced 1;
    Builder.emit (builder s thread) kind loc

  let note_error s = function
    | Ok () -> ()
    | Error msg -> Mutex.protect s.mutex (fun () -> if s.error = None then s.error <- Some msg)

  let send_trace ?(thread = 0) s =
    let b = builder s thread in
    let p = Builder.take_packed b in
    if Packed.count p = 0 then begin
      Packed.free p;
      if Obs.enabled s.obs then Obs.add s.obs Obs.sections_dropped 1
    end
    else begin
      (* Preamble reflects the scope {e before} this section's own
         controls — same order of operations as [Pmtest.send_trace]. *)
      let preamble =
        Mutex.protect s.mutex (fun () ->
            let preamble =
              List.rev
                (Interval_map.fold
                   (fun lo hi () acc ->
                     Event.make ~thread
                       (Event.Control (Event.Exclude { addr = lo; size = hi - lo }))
                     :: acc)
                   s.excluded [])
            in
            if Packed.has_scope_controls p then
              Packed.iter p (fun (v : Packed.view) ->
                  match v.Packed.tag with
                  | Packed.T_exclude ->
                    s.excluded <-
                      Interval_map.set s.excluded ~lo:v.Packed.a ~hi:(v.Packed.a + v.Packed.b) ()
                  | Packed.T_include ->
                    s.excluded <-
                      Interval_map.clear s.excluded ~lo:v.Packed.a ~hi:(v.Packed.a + v.Packed.b)
                  | _ -> ());
            preamble)
      in
      note_error s (send_packed ~prelude:(Array.of_list preamble) s.conn p)
    end

  let finish s =
    let threads =
      Mutex.protect s.mutex (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) s.builders [])
    in
    List.iter (fun thread -> send_trace ~thread s) threads;
    match Mutex.protect s.mutex (fun () -> s.error) with
    | Some msg -> Error msg
    | None -> get_result s.conn
end
