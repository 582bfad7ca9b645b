(* The programs under test and the ways PMTest is attached to them.
   Everything here goes through PMTest's public entry points: [Pmtest],
   [Client.Session] and the pmfarm [Coordinator]/[Worker]. *)

open Pmtest_util
module Pmtest = Pmtest_core.Pmtest
module Report = Pmtest_core.Report
module Event = Pmtest_trace.Event
module Sink = Pmtest_trace.Sink
module Pool = Pmtest_pmdk.Pool
module Ctree_map = Pmtest_pmdk.Ctree_map
module Redis = Pmtest_workloads.Redis
module Clients = Pmtest_workloads.Clients
module Client = Pmtest_client.Client
module Model = Pmtest_model.Model
module Farm = Pmtest_farm.Farm
module Campaign = Pmtest_fuzz.Campaign
module Gen = Pmtest_fuzz.Gen

(* --- Tracing workloads ----------------------------------------------------- *)

(* A program under test.  [prepare] builds it over the given sink — pool
   creation, untimed — and returns the timed loop, which runs every op
   and calls [send] at each section boundary. *)
type program = {
  ops : int;
  prepare : instrumented:bool -> Sink.t -> Span.t -> send:(unit -> unit) -> unit;
}

(* Fig. 10a's C-Tree cell: TX-checked 64 B inserts, one section each. *)
let ctree ~seed ~inserts =
  (* The same key set in a seeded order: the tree every session builds,
     and so the work it does, hardly depends on the seed. *)
  let keys = Array.init inserts (fun i -> Int64.of_int (i * 2654435761 land 0xffffff)) in
  Rng.shuffle (Rng.create seed) keys;
  let value = Bytes.init 64 (fun i -> Char.chr (97 + ((seed + i) mod 26))) in
  let pool_size = max (8 * 1024 * 1024) ((inserts * 2 * (64 + 1024)) + (2 * 1024 * 1024)) in
  {
    ops = inserts;
    prepare =
      (fun ~instrumented:_ sink ->
        let pool = Pool.create ~size:pool_size ~sink () in
        let m = Ctree_map.create pool in
        fun sp ~send ->
          Array.iter
            (fun key ->
              Span.enter sp "ctree.insert";
              Pool.tx_checker_start pool;
              Ctree_map.insert m ~key ~value;
              Pool.tx_checker_end pool;
              Span.leave sp;
              send ())
            keys);
  }

(* Fig. 11's Redis+LRU: the redis-cli LRU mix, a section every [every]
   ops.  The uninstrumented run drops the checker annotations, as the
   paper's baseline does. *)
let redis ~seed ~ops ~every =
  let cmds = Clients.redis_lru ~ops ~keys:16384 (Rng.create seed) in
  {
    ops;
    prepare =
      (fun ~instrumented sink ->
        let r = Redis.create ~annotate:instrumented ~sink () in
        fun sp ~send ->
          Array.iteri
            (fun i op ->
              Span.enter sp "redis.apply";
              Redis.apply r op;
              Span.leave sp;
              if (i + 1) mod every = 0 then send ())
            cmds);
  }

type deployment = In_process of { workers : int; packed : bool } | Attach of { socket : string }

(* A prepared session: [run] is the timed part, from the first op to the
   report [finish] returns; [close] releases what preparation took. *)
type session = { run : unit -> (Report.t, string) result; close : unit -> unit }

let base program sp =
  let drive = program.prepare ~instrumented:false Sink.null in
  fun () -> drive sp ~send:ignore

let session ?record program deployment sp =
  match deployment with
  | In_process { workers; packed } ->
    let s = Pmtest.init ~workers ~packed () in
    Option.iter (Pmtest.on_section s) record;
    let drive = program.prepare ~instrumented:true (Pmtest.sink s) in
    {
      run =
        (fun () ->
          drive sp ~send:(fun () ->
              Span.wrap sp "pmtest.send_trace" (fun () -> Pmtest.send_trace s));
          Ok (Span.wrap sp "pmtest.finish" (fun () -> Pmtest.finish s)));
      close = ignore;
    }
  | Attach { socket } -> (
    match Client.connect ~socket () with
    | Error e -> { run = (fun () -> Error ("connect: " ^ e)); close = ignore }
    | Ok conn ->
      let cs = Client.Session.make conn in
      let drive = program.prepare ~instrumented:true (Client.Session.sink cs) in
      {
        run =
          (fun () ->
            drive sp ~send:(fun () ->
                Span.wrap sp "client.send_trace" (fun () -> Client.Session.send_trace cs));
            Span.wrap sp "client.finish" (fun () -> Client.Session.finish cs));
        close = (fun () -> Client.close conn);
      })

(* The verdict every measured session must reproduce: a synchronous
   boxed in-process session over the same inputs.  [record] sees every
   section with its exclusion preamble — the traced run's replay corpus. *)
let reference ?record program =
  let s = session ?record program (In_process { workers = 0; packed = false }) Span.off in
  match s.run () with Ok r -> r | Error e -> failwith e

let verdict r = Digest.to_hex (Digest.string (Report.to_string r))

(* --- farm-fuzz ----------------------------------------------------------- *)

let fuzz_spec ~seed ~count =
  (* Seeds [seed * 100_000, +count): distinct benchmark seeds fuzz
     disjoint program sets. *)
  Farm.Spec.fuzz ~max_ops:16 ~model:Model.X86 ~seed:(seed * 100_000) ~count ~chunk:24 ()

(* The campaign configuration [Farm.run_units] derives from a fuzz spec,
   so the benchmark can regenerate exactly the programs a job runs. *)
let campaign_cfg (spec : Farm.Spec.t) =
  let base = Campaign.default_cfg spec.Farm.Spec.model in
  match spec.Farm.Spec.max_ops with
  | None -> base
  | Some m -> { base with Campaign.gen = { base.Campaign.gen with Gen.max_ops = m } }

let programs spec ~lo ~hi =
  let cfg = campaign_cfg spec in
  Array.init (hi - lo) (fun i -> Campaign.program_for_seed cfg (lo + i))

(* Every job run directly, in order, on this thread: the campaign's work
   with no coordinator, sockets or checkpoints. *)
let direct spec sp =
  List.map
    (fun (id, lo, hi) ->
      match Span.wrap sp "farm.run_units" (fun () -> Farm.run_units spec ~lo ~hi) with
      | Ok r -> (id, r.Farm.digest)
      | Error e -> failwith (Printf.sprintf "run_units job %d: %s" id e))
    (Farm.Spec.jobs spec)

type campaign = {
  wall : float;  (** Coordinator start until its worker is released. *)
  tail : float;  (** Worker released until [Coordinator.run] returns. *)
  summary : (Farm.Coordinator.summary, string) result;
  worker : (int, string) result;
}

(* One campaign: the coordinator on its own thread, one worker on this
   one.  The clock stops when the worker is released: [Coordinator.run]
   returns only after joining a reaper that sleeps in 0.25 s ticks, and
   that idle tail is reported apart.  The worker heartbeats every 50 ms
   so that [Worker.run] returns promptly once it is released. *)
let campaign ~dir ~name spec sp =
  let socket = Filename.concat dir (name ^ ".sock") in
  let cdir = Filename.concat dir name in
  let cfg = Farm.Coordinator.default_cfg ~spec ~socket ~dir:cdir in
  let m = Mutex.create () and c = Condition.create () in
  let ready = ref false and result = ref None in
  let signal f =
    Mutex.lock m;
    f ();
    Condition.broadcast c;
    Mutex.unlock m
  in
  let t0 = Span.now () in
  let coord =
    Thread.create
      (fun () ->
        let r = Farm.Coordinator.run ~ready:(fun () -> signal (fun () -> ready := true)) cfg in
        let t = Span.now () in
        signal (fun () -> result := Some (r, t)))
      ()
  in
  Mutex.lock m;
  while (not !ready) && !result = None do
    Condition.wait c m
  done;
  let failed_early = !result <> None in
  Mutex.unlock m;
  let t_ready = Span.now () in
  let worker =
    if failed_early then Error "coordinator exited before listening"
    else
      Farm.Worker.run { (Farm.Worker.default_cfg ~socket ~name:"pipeline") with hb_interval = 0.05 }
  in
  let t_released = Span.now () in
  Thread.join coord;
  Proc.rm_rf cdir;
  let summary, t_end =
    match !result with Some (r, t) -> (r, t) | None -> (Error "no coordinator result", t_released)
  in
  Span.record sp "farm.coordinator.run" ~t0 ~t1:t_end;
  Span.record sp "farm.worker.run" ~t0:t_ready ~t1:t_released;
  let secs a b = Int64.to_float (Int64.sub b a) /. 1e9 in
  { wall = secs t0 t_released; tail = secs t_released t_end; summary; worker }

(* A campaign is correct when every job finished once, no attempt
   disagreed with another, and each [(job, digest)] of [expect] is one of
   its job digests. *)
let campaign_ok c ~expect =
  match (c.summary, c.worker) with
  | Ok s, Ok _ ->
    s.Farm.Coordinator.jobs_done = s.Farm.Coordinator.jobs
    && s.Farm.Coordinator.nondet = []
    && List.for_all (fun (id, d) -> List.assoc_opt id s.Farm.Coordinator.digests = Some d) expect
  | _ -> false
