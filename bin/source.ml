(* What SOURCE means to check-trace, lint, repair, stat and attach, which
   model judges it, and the one table of workloads that those, workload
   and record run. *)

open Pmtest_util
module Model = Pmtest_model.Model
module Sink = Pmtest_trace.Sink
module Event = Pmtest_trace.Event
module Serial = Pmtest_trace.Serial
module Pmtest = Pmtest_core.Pmtest
module Fs = Pmtest_pmfs.Fs
open Pmtest_bugdb
open Pmtest_workloads

type params = { ops : int; threads : int; seed : int }

(* Where a run traces: thread [i]'s sink, and how to end thread [i]'s
   section. *)
type io = { sink_of : int -> Sink.t; send : int -> unit }

let untraced = { sink_of = (fun _ -> Sink.null); send = ignore }

(* --- Workloads ----------------------------------------------------------------- *)

let memcached client p io =
  let mc = Memcached.create ~shards:p.threads ~sink_of:io.sink_of () in
  let streams =
    Memcached.generate_streams ~client ~ops_per_client:(p.ops / p.threads) ~keys:4096
      ~seed:p.seed mc
  in
  Memcached.run mc ~on_section:io.send ~streams;
  Memcached.check_consistent mc

let redis p io =
  let r = Redis.create ~sink:(io.sink_of 0) () in
  Array.iteri
    (fun i op ->
      Redis.apply r op;
      if i mod 16 = 0 then io.send 0)
    (Clients.redis_lru ~ops:p.ops ~keys:16384 (Rng.create p.seed));
  io.send 0;
  Redis.check_consistent r

let pmfs client p io =
  let fs = Fs.mkfs ~inodes:128 ~blocks:1024 ~sink:(io.sink_of 0) () in
  Pmfs_app.run ~on_section:(fun () -> io.send 0) fs (client p (Rng.create p.seed));
  Fs.check_consistent fs

let vacation p io =
  let v = Vacation.create ~resources:64 ~sink:(io.sink_of 0) () in
  Vacation.run v
    ~on_section:(fun () -> io.send 0)
    (Vacation.client ~ops:p.ops ~customers:256 ~resources:64 (Rng.create p.seed));
  Vacation.check_consistent v

(* The two seeded PMFS performance bugs feed the auto-repair
   differentials (a surplus drain fence each). *)
let pmfs_bug fault run _ io =
  let fs = Fs.mkfs ~inodes:16 ~blocks:64 ~sink:(io.sink_of 0) () in
  Fs.set_fault fs (Some fault);
  Result.bind (run fs) (fun () -> Fs.check_consistent fs)

let ( let* ) = Result.bind

(* fsync.c:260 without the deliberate-drain annotation: everything is
   already durable after the write's commit, so both fsync fences drain
   nothing. *)
let fsync_bug fs =
  let* ino = Fs.create fs "wal" in
  let* () = Fs.write fs ~ino ~off:0 (String.make 192 'a') in
  Fs.fsync fs ~ino;
  Fs.fsync fs ~ino;
  Ok ()

(* journal.c:633 without the empty-commit guard: an in-place overwrite
   journals no metadata, yet commit still fences — right after the data
   path's own drain at xips.c:208. *)
let empty_tx_bug fs =
  let* ino = Fs.create fs "table" in
  let* () = Fs.write fs ~ino ~off:0 (String.make 128 'a') in
  Fs.write fs ~ino ~off:0 (String.make 128 'b')

let workloads =
  [
    ("memcached-memslap", memcached (fun ~ops ~keys rng -> Clients.memslap ~ops ~keys rng));
    ("memcached-ycsb", memcached (fun ~ops ~keys rng -> Clients.ycsb ~ops ~keys rng));
    ("redis-lru", redis);
    ("pmfs-filebench", pmfs (fun p rng -> Clients.filebench ~ops:p.ops ~files:32 rng));
    ( "pmfs-oltp",
      pmfs (fun p rng -> Clients.oltp ~ops:p.ops ~tables:4 ~rows_per_table:64 rng) );
    ("vacation", vacation);
    ("pmfs-fsync-bug", pmfs_bug Fs.Fsync_redundant_fence fsync_bug);
    ("pmfs-empty-tx-bug", pmfs_bug Fs.Empty_tx_fence empty_tx_bug);
  ]

(* [tap io] is [io] with every event its sinks see also kept, tagged with
   its thread (memcached shards trace from several domains); [take ()]
   returns what was kept. *)
let recorder () =
  let buf = Vec.create () and m = Mutex.create () in
  let tap io =
    let sink_of thread =
      let inner = io.sink_of thread in
      {
        Sink.emit =
          (fun kind loc ->
            Mutex.protect m (fun () -> Vec.push buf (Event.make ~thread ~loc kind));
            inner.Sink.emit kind loc);
      }
    in
    { io with sink_of }
  in
  (tap, fun () -> Mutex.protect m (fun () -> Vec.to_array buf))

let record run p =
  let tap, take = recorder () in
  Result.map take (run p (tap untraced))

(* --- SOURCE -------------------------------------------------------------------- *)

type input = Workload of (params -> io -> (unit, string) result) | Trace of Event.t array

type t = { input : input; model : Model.kind; file : bool }

(* A workload name, an existing trace file or a bug-catalog case id, in
   that order. The model is [model], else the file's [model:] header,
   else x86. *)
let resolve ?model name =
  let judge header = Option.value ~default:Model.X86 (if model = None then header else model) in
  match List.assoc_opt name workloads with
  | Some run -> Ok { input = Workload run; model = judge None; file = false }
  | None when Sys.file_exists name ->
    let header_model (h : Files.header) =
      match List.assoc_opt "model" h.Files.fields with
      | None -> Ok None
      | Some v -> (
        match Model.kind_of_string v with
        | Some m -> Ok (Some m)
        | None -> Error (Printf.sprintf "unknown model %S in its 'model:' header" v))
    in
    Result.map_error (Printf.sprintf "cannot load %s: %s" name)
      (let* t = Files.read_text name in
       let* header = header_model t.Files.header in
       let* entries = Serial.entries_of_body t.Files.body in
       Ok { input = Trace entries; model = judge header; file = true })
  | None -> (
    match List.find_opt (fun c -> c.Case.id = name) Catalog.all with
    | Some case -> Ok { input = Trace (Case.trace case); model = judge None; file = false }
    | None ->
      Error
        (Printf.sprintf
           "%S is neither a workload, an existing trace file nor a bug-catalog case id" name))

(* The source's trace entries: a workload is run and recorded. *)
let entries p = function Trace entries -> Ok entries | Workload run -> record run p

(* Replay entries through [io], ending the boundary entry's thread's
   section after every [section] entries — the same chunking for every
   session, so an [attach --verify] comparison is over identical
   section streams. *)
let replay ~section entries io =
  let sinks = Hashtbl.create 8 in
  let sink thread =
    match Hashtbl.find_opt sinks thread with
    | Some k -> k
    | None ->
      let k = io.sink_of thread in
      Hashtbl.replace sinks thread k;
      k
  in
  Array.iteri
    (fun i (e : Event.t) ->
      (sink e.Event.thread).Sink.emit e.Event.kind e.Event.loc;
      if (i + 1) mod section = 0 then io.send e.Event.thread)
    entries

(* Run [input] through session [s] — a workload live, a trace replayed in
   sections of [section] entries — with [tap] around the session's sinks,
   then finish [s] and return its report. *)
let check_in ?(tap = Fun.id) ~section p input s =
  let io =
    tap
      {
        sink_of = (fun thread -> Pmtest.sink ~thread s);
        send = (fun thread -> Pmtest.send_trace ~thread s);
      }
  in
  let* () =
    match input with
    | Workload run -> run p io
    | Trace entries ->
      replay ~section:(max 1 section) entries io;
      Ok ()
  in
  Result.map_error (( ^ ) "session failed: ") (Pmtest.finish_result s)
