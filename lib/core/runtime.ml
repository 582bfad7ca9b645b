open Pmtest_model
open Pmtest_trace
module Obs = Pmtest_obs.Obs

(* A section travels either boxed (the historical Event.t array) or as a
   packed arena that the worker checks with the cursor engine and then
   recycles to the freelist.  Either may carry a small boxed prelude —
   the session's exclusion preamble — replayed before the section, so an
   active scope neither forces the decode-to-boxed fallback nor a copy
   of the boxed section. *)
type section =
  | Boxed of { entries : Event.t array; prelude : Event.t array }
  | Packed of { p : Packed.t; prelude : Event.t array }

(* [model] overrides the runtime's default for this section (the daemon
   serves sessions with different persistency models off one pool);
   [k], when present, receives the section's report — in dispatch order,
   from inside the merge loop — instead of the report entering the
   global aggregate.  Per-session aggregation is built on it. *)
type task = { payload : section; model : Model.kind; k : (Report.t -> unit) option }

type msg = Task of int * task | Stop

(* MPSC lock-free inbox: producers CAS-push onto a Treiber stack, the
   worker batch-steals the whole stack with one [exchange] and reverses
   it back into FIFO order.  The mutex/condvar pair exists only for
   parking an idle worker: a producer takes it solely when its push was
   the empty→non-empty transition, so a loaded pipeline posts sections
   with a couple of atomic ops and no lock at all. *)
type worker = {
  inbox : msg list Atomic.t;
  (* Tasks posted but not yet stolen; read racily by the dispatcher's
     load sample (a stale value only costs a slightly worse pick). *)
  queued : int Atomic.t;
  park : Mutex.t;
  nonempty : Condition.t;
}

type t = {
  model : Model.kind;
  obs : Obs.t;
  (* Tags this runtime's obs records when several runtimes (the daemon's
     shards) share one collector; [None] (in-process) behaves as shard 0
     and records no per-shard counters. *)
  shard : int;
  shard_tagged : bool;
  arena_pool : Packed.pool option;
  workers : worker array;
  mutable domains : unit Domain.t array;
  (* The send path touches only atomics — no lock shared with the
     aggregation side. *)
  dispatched : int Atomic.t;
  stopped : bool Atomic.t;
  (* [completed] is written under [agg_mutex] (the merge loop) but read
     lock-free by [pending] and the queue-depth sample. *)
  completed : int Atomic.t;
  (* All fields below are guarded by [agg_mutex]. *)
  agg_mutex : Mutex.t;
  drained : Condition.t;
  mutable aggregate : Report.t;
  (* Sections finish out of order across workers; reports wait here until
     every earlier section has been merged, so the aggregate is always the
     one a synchronous run would have produced. *)
  parked : (int, Report.t * (Report.t -> unit) option) Hashtbl.t;
  mutable next_merge : int;
}

let post w msg =
  (match msg with Task _ -> Atomic.incr w.queued | Stop -> ());
  let rec push () =
    let old = Atomic.get w.inbox in
    if Atomic.compare_and_set w.inbox old (msg :: old) then old == []
    else push ()
  in
  if push () then begin
    (* Empty→non-empty: the worker may be parked (or about to park).
       Taking [park] here orders this signal against the worker's final
       inbox re-check under the same mutex, so the wakeup is never
       lost. *)
    Mutex.protect w.park (fun () -> Condition.signal w.nonempty)
  end

(* Steal the whole stack in one exchange — the batch hand-off: a worker
   that fell behind catches up without touching any shared state per
   section.  Blocks while the inbox is empty. *)
let drain_batch w =
  let stolen =
    match Atomic.exchange w.inbox [] with
    | _ :: _ as batch -> batch
    | [] ->
      let rec wait () =
        match Atomic.exchange w.inbox [] with
        | [] ->
          Condition.wait w.nonempty w.park;
          wait ()
        | batch -> batch
      in
      Mutex.protect w.park wait
  in
  let ntasks =
    List.fold_left (fun n m -> match m with Task _ -> n + 1 | Stop -> n) 0 stolen
  in
  if ntasks > 0 then ignore (Atomic.fetch_and_add w.queued (-ntasks));
  (* The stack is newest-first; dispatch order is oldest-first. *)
  List.rev stolen

let drain_rest w =
  match Atomic.exchange w.inbox [] with
  | [] -> []
  | stolen ->
    let ntasks =
      List.fold_left (fun n m -> match m with Task _ -> n + 1 | Stop -> n) 0 stolen
    in
    if ntasks > 0 then ignore (Atomic.fetch_and_add w.queued (-ntasks));
    List.rev stolen

(* Obs spans are keyed by sequence number; when several shard runtimes
   share one collector, tagging the high bits keeps their spans from
   colliding (shard 0 — every in-process runtime — is unchanged). *)
let okey t seq = (t.shard lsl 48) lor seq

(* Reorder-buffer occupancy (reports parked waiting for an earlier
   section) and worker queue drains (batch hand-offs), per collector. *)
let reorder_hwm = Obs.gauge "reorder_hwm"
let batches = Obs.counter "batches"
let batch_sections_max = Obs.gauge "batch_sections_max"

let complete t seq report k =
  Mutex.protect t.agg_mutex (fun () ->
      Hashtbl.replace t.parked seq (report, k);
      if Obs.enabled t.obs then Obs.max t.obs reorder_hwm (Hashtbl.length t.parked);
      let continue = ref true in
      while !continue do
        match Hashtbl.find_opt t.parked t.next_merge with
        | None -> continue := false
        | Some (r, k) ->
          Hashtbl.remove t.parked t.next_merge;
          (* A callback section's report belongs to its own consumer (one
             daemon session), not the global aggregate; callbacks still fire
             here, in dispatch order, so per-consumer aggregation is as
             deterministic as the global one.  They run under [agg_mutex] and
             must be brief and must not re-enter the runtime. *)
          (match k with None -> t.aggregate <- Report.merge t.aggregate r | Some k -> k r);
          if Obs.enabled t.obs then Obs.section_merged t.obs ~seq:(okey t t.next_merge);
          t.next_merge <- t.next_merge + 1;
          Atomic.incr t.completed
      done;
      Condition.broadcast t.drained)

let check_payload t (task : task) =
  match task.payload with
  | Boxed { entries; prelude } -> Engine.check ~obs:t.obs ~model:task.model ~prelude entries
  | Packed { p; prelude } ->
    let r = Engine.check_packed ~obs:t.obs ~model:task.model ~prelude p in
    (match t.arena_pool with
    | None -> Packed.free p
    | Some pool -> Packed.free ~pool p);
    r

let check_section t ~seq ~worker task =
  if Obs.enabled t.obs then begin
    Obs.check_started t.obs ~seq:(okey t seq) ~worker;
    let r = check_payload t task in
    Obs.check_finished t.obs ~seq:(okey t seq);
    r
  end
  else check_payload t task

(* Run every task in the batch; Stop only takes effect once the inbox is
   exhausted, so a task that raced past the shutdown gate is still
   checked rather than stranded (get_result waits on its seq). *)
let rec worker_loop t idx w =
  let batch = drain_batch w in
  let stopping = ref false in
  let tasks = ref 0 in
  List.iter
    (fun msg ->
      match msg with
      | Stop -> stopping := true
      | Task (seq, task) ->
        incr tasks;
        complete t seq (check_section t ~seq ~worker:idx task) task.k)
    batch;
  if !tasks > 0 && Obs.enabled t.obs then begin
    Obs.add t.obs batches 1;
    Obs.max t.obs batch_sections_max !tasks
  end;
  if not !stopping then worker_loop t idx w
  else
    List.iter
      (fun msg ->
        match msg with
        | Stop -> ()
        | Task (seq, task) -> complete t seq (check_section t ~seq ~worker:idx task) task.k)
      (drain_rest w)

let create ?(workers = 1) ?(model = Model.X86) ?(obs = Obs.disabled) ?shard ?arena_pool () =
  if workers < 0 then invalid_arg "Runtime.create: negative worker count";
  let shard_tagged = shard <> None in
  let shard = Option.value shard ~default:0 in
  if shard < 0 then invalid_arg "Runtime.create: negative shard index";
  let mk_worker () =
    {
      inbox = Atomic.make [];
      queued = Atomic.make 0;
      park = Mutex.create ();
      nonempty = Condition.create ();
    }
  in
  let pool = Array.init workers (fun _ -> mk_worker ()) in
  let t =
    {
      model;
      obs;
      shard;
      shard_tagged;
      arena_pool;
      workers = pool;
      domains = [||];
      dispatched = Atomic.make 0;
      stopped = Atomic.make false;
      completed = Atomic.make 0;
      agg_mutex = Mutex.create ();
      drained = Condition.create ();
      aggregate = Report.empty;
      parked = Hashtbl.create 16;
      next_merge = 0;
    }
  in
  t.domains <- Array.mapi (fun idx w -> Domain.spawn (fun () -> worker_loop t idx w)) pool;
  t

let model t = t.model
let obs t = t.obs

let section_entries = function
  | Boxed { entries; prelude } -> Array.length entries + Array.length prelude
  | Packed { p; prelude } -> Packed.count p + Array.length prelude

let send_section t task =
  if Atomic.get t.stopped then invalid_arg "Runtime.send_trace: runtime already shut down";
  let seq = Atomic.fetch_and_add t.dispatched 1 in
  if Obs.enabled t.obs then begin
    Obs.section_sent t.obs ~seq:(okey t seq) ~entries:(section_entries task.payload);
    if t.shard_tagged then Obs.shard_section t.obs ~shard:t.shard;
    (* [completed] is a racy sample: the queue-depth high-water mark is
       a metric, an occasionally stale value is fine. *)
    Obs.max t.obs Obs.queue_hwm (seq + 1 - Atomic.get t.completed)
  end;
  let n = Array.length t.workers in
  if n = 0 then complete t seq (check_section t ~seq ~worker:0 task) task.k
  else begin
    (* Two-choice sampling with a rotating start: O(1) per send instead
       of a full pool scan, and the [seq]-driven rotation still
       interleaves an idle pool round-robin the way the paper's master
       thread does.  [queued] is read racily — a stale load only costs
       a slightly worse pick, never correctness. *)
    let i = seq mod n in
    let w =
      if n = 1 then t.workers.(i)
      else begin
        let j = if i = n - 1 then 0 else i + 1 in
        if Atomic.get t.workers.(j).queued < Atomic.get t.workers.(i).queued then t.workers.(j)
        else t.workers.(i)
      end
    in
    post w (Task (seq, task))
  end

let send_trace ?(prelude = [||]) t entries =
  send_section t { payload = Boxed { entries; prelude }; model = t.model; k = None }

let send_packed ?(prelude = [||]) t p =
  send_section t { payload = Packed { p; prelude }; model = t.model; k = None }

let send_packed_cb ?model ?(prelude = [||]) t p k =
  let model = Option.value model ~default:t.model in
  send_section t { payload = Packed { p; prelude }; model; k = Some k }

let get_result t =
  Mutex.protect t.agg_mutex (fun () ->
      while Atomic.get t.completed < Atomic.get t.dispatched do
        Condition.wait t.drained t.agg_mutex
      done;
      t.aggregate)

(* Lock-free: both counters are atomics, so a monitoring thread can poll
   without contending the merge loop.  [completed] is read first so the
   difference never goes negative; sends racing between the two reads
   can only make the sample momentarily high. *)
let pending t =
  let c = Atomic.get t.completed in
  Atomic.get t.dispatched - c

let shutdown t =
  let already_stopped = Atomic.exchange t.stopped true in
  let r = get_result t in
  if not already_stopped then begin
    Array.iter (fun w -> post w Stop) t.workers;
    Array.iter Domain.join t.domains
  end;
  r
