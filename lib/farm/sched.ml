(* The coordinator's scheduling state: job and worker records, the
   pending queue, attempts, holders, refusals, finding dedup and
   nondeterminism flags.  Nothing here touches a socket, a file or a
   clock: each transition takes the time as [~now] and returns the
   actions its caller must carry out, in order. *)

module Obs = Pmtest_obs.Obs

module Count = struct
  let workers_joined = Obs.counter "farm_workers"
  let workers_lost = Obs.counter "farm_workers_lost"
  let jobs_total = Obs.counter "farm_jobs"
  let jobs_done = Obs.counter "farm_jobs_done"
  let offers = Obs.counter "farm_offers"
  let retries = Obs.counter "farm_retries"
  let steals = Obs.counter "farm_steals"
  let reassignments = Obs.counter "farm_reassignments"
  let findings = Obs.counter "farm_findings"
  let dup_findings = Obs.counter "farm_dup_findings"
  let nondet_flags = Obs.counter "farm_nondet"
  let heartbeats = Obs.counter "farm_heartbeats"
  let checkpoints = Obs.counter "farm_checkpoints"
end

type action =
  | Offer of { wid : int; job : int; attempt : int; lo : int; hi : int }
  | Drop of int
  | Store of { name : string; text : string }
  | Save

type jstate = Pending | Offered | Jdone of { digest : string; units : int; attempt : int }

type jrec = {
  id : int;
  lo : int;
  hi : int;
  mutable attempt : int;  (* highest attempt offered so far *)
  mutable state : jstate;
  mutable offered_at : float;
  mutable holders : int list;  (* wids holding a live attempt *)
  mutable refusals : int;  (* Job_refused frames seen for this job *)
  mutable losses : int;  (* times requeued because its only holder was lost *)
}

(* A job refused this many times (across workers and attempts) is
   treated as deterministically broken: the campaign aborts with the
   worker's reason instead of bouncing the job forever. *)
let max_refusals = 3

(* Likewise a job requeued this many times because every worker holding
   it was lost: most likely one of its units outlasts
   [heartbeat_timeout], since a worker heartbeats only between units, and
   each new attempt would be dropped the same way. *)
let max_losses = 3

type wrec = {
  wid : int;
  mutable last_seen : float;
  mutable running : int option;  (* one job at a time *)
  mutable lost : bool;
}

type t = {
  spec : Spec.t;
  heartbeat_timeout : float;
  steal_after : float;
  stop_after_results : int option;
  obs : Obs.t;
  jobs : jrec array;
  mutable pending : int list;  (* [assign] skips entries finished since *)
  workers : (int, wrec) Hashtbl.t;
  mutable next_wid : int;
  mutable done_count : int;
  mutable results_seen : int;
  mutable reassigned : int;
  mutable steals : int;
  mutable nondet : int list;
  findings : (string, string) Hashtbl.t;  (* content digest -> name *)
  mutable stopping : bool;  (* [stop_after_results] fired or the campaign aborted *)
  mutable failed : string option;  (* a job exhausted [max_refusals] or [max_losses] *)
  mutable out : action list;  (* this transition's actions, newest first *)
}

let create ?stop_after_results ~heartbeat_timeout ~steal_after ~obs spec
    (resume : Checkpoint.t option) =
  let jobs =
    Spec.jobs spec
    |> List.map (fun (id, lo, hi) ->
           let state = Pending in
           {
             id; lo; hi; attempt = 0; state; offered_at = 0.; holders = []; refusals = 0;
             losses = 0;
           })
    |> Array.of_list
  in
  let findings = Hashtbl.create 16 in
  let nondet =
    match resume with
    | None -> []
    | Some ck ->
      List.iter
        (fun (d : Checkpoint.done_job) ->
          if d.job >= 0 && d.job < Array.length jobs then begin
            let j = jobs.(d.job) in
            j.state <- Jdone { digest = d.digest; units = d.units; attempt = d.attempt };
            j.attempt <- d.attempt
          end)
        ck.done_jobs;
      List.iter (fun (dg, name) -> Hashtbl.replace findings dg name) ck.findings;
      ck.nondet
  in
  let pending =
    List.filter (fun id -> jobs.(id).state = Pending) (List.init (Array.length jobs) Fun.id)
  in
  Obs.add obs Count.jobs_total (Array.length jobs);
  {
    spec;
    heartbeat_timeout;
    steal_after;
    stop_after_results;
    obs;
    jobs;
    pending;
    workers = Hashtbl.create 8;
    next_wid = 0;
    done_count = Array.length jobs - List.length pending;
    results_seen = 0;
    reassigned = 0;
    steals = 0;
    nondet;
    findings;
    stopping = false;
    failed = None;
    out = [];
  }

let jobs s = Array.length s.jobs
let finished s = s.done_count = Array.length s.jobs
let over s = s.stopping || finished s
let failed s = s.failed

(* The [stop_after_results] hook fired: the caller tears down as a
   SIGKILL would, with no goodbye.  An aborted campaign ([failed]) is
   not a crash: it still says Bye so its workers exit. *)
let crashed s = s.stopping && (not (finished s)) && s.failed = None

let emit s a = s.out <- a :: s.out

let flush s =
  let acts = List.rev s.out in
  s.out <- [];
  acts

let live s wid =
  match Hashtbl.find_opt s.workers wid with Some w when not w.lost -> Some w | _ -> None

let has_room w = (not w.lost) && w.running = None

let offer s w j ~now ~steal =
  j.attempt <- j.attempt + 1;
  j.state <- Offered;
  j.offered_at <- now;
  j.holders <- w.wid :: j.holders;
  w.running <- Some j.id;
  Obs.add s.obs Count.offers 1;
  if steal then begin
    Obs.add s.obs Count.steals 1;
    s.steals <- s.steals + 1
  end
  else if j.attempt > 1 then Obs.add s.obs Count.retries 1;
  emit s (Offer { wid = w.wid; job = j.id; attempt = j.attempt; lo = j.lo; hi = j.hi })

let idle s =
  Hashtbl.fold (fun _ w acc -> if has_room w then w :: acc else acc) s.workers []
  |> List.sort (fun a b -> compare a.wid b.wid)

(* One pending job to each idle worker, the older worker first. *)
let assign s ~now =
  if not (over s) then
    List.iter
      (fun w ->
        let rec next () =
          match s.pending with
          | jid :: rest -> (
            s.pending <- rest;
            match s.jobs.(jid).state with
            | Jdone _ -> next ()
            | Pending | Offered -> offer s w s.jobs.(jid) ~now ~steal:false)
          | [] -> ()
        in
        next ())
      (idle s)

let release w j =
  if w.running = Some j.id then w.running <- None;
  j.holders <- List.filter (fun h -> h <> w.wid) j.holders

let lose s w =
  w.lost <- true;
  Obs.add s.obs Count.workers_lost 1;
  let held = Option.to_list w.running in
  let requeued =
    List.filter
      (fun jid ->
        let j = s.jobs.(jid) in
        release w j;
        match j.state with
        | Offered when j.holders = [] ->
          j.state <- Pending;
          j.losses <- j.losses + 1;
          if j.losses >= max_losses && s.failed = None then begin
            s.failed <-
              Some
                (Printf.sprintf
                   "job %d lost with its worker %d time(s); does one unit outlast \
                    heartbeat_timeout (%g s)?"
                   jid j.losses s.heartbeat_timeout);
            s.stopping <- true
          end;
          true
        | Offered | Pending | Jdone _ -> false)
      held
  in
  s.reassigned <- s.reassigned + List.length requeued;
  Obs.add s.obs Count.reassignments (List.length requeued);
  s.pending <- requeued @ s.pending

let store_finding s (name, text) =
  let dg = Digest.to_hex (Digest.string text) in
  if Hashtbl.mem s.findings dg then Obs.add s.obs Count.dup_findings 1
  else begin
    let name = String.map (fun c -> if String.contains " \t\n/" c then '-' else c) name in
    (* Seed-derived names are unique in practice; suffix defensively
       if two distinct reproducers ever share one. *)
    let name =
      if Hashtbl.fold (fun _ n acc -> acc || n = name) s.findings false then
        name ^ "-" ^ String.sub dg 0 8
      else name
    in
    Hashtbl.replace s.findings dg name;
    Obs.add s.obs Count.findings 1;
    emit s (Store { name; text })
  end

let save s =
  Obs.add s.obs Count.checkpoints 1;
  emit s Save

(* --- Transitions ---------------------------------------------------------- *)

let start s =
  save s;
  flush s

let join s ~now =
  let wid = s.next_wid in
  s.next_wid <- wid + 1;
  Hashtbl.replace s.workers wid { wid; last_seen = now; running = None; lost = false };
  Obs.add s.obs Count.workers_joined 1;
  assign s ~now;
  (wid, flush s)

let seen s wid ~now ~heartbeat =
  match live s wid with
  | Some w ->
    w.last_seen <- now;
    if heartbeat then Obs.add s.obs Count.heartbeats 1
  | None -> ()

(* A transition on behalf of a live worker: frames from lost or unknown
   workers, or after the campaign is over, change nothing. *)
let on_live s wid ~now f =
  (match live s wid with
  | Some w when not (over s) ->
    f w;
    assign s ~now
  | _ -> ());
  flush s

let result s wid ~now ~job ~attempt ~digest ~units ~findings =
  on_live s wid ~now (fun w ->
      s.results_seen <- s.results_seen + 1;
      let j = s.jobs.(job) in
      release w j;
      (match j.state with
      | Jdone d ->
        (* A second attempt of a finished job: replay verification. *)
        if d.digest <> digest then begin
          if not (List.mem job s.nondet) then s.nondet <- job :: s.nondet;
          Obs.add s.obs Count.nondet_flags 1;
          save s
        end
      | Pending | Offered ->
        j.state <- Jdone { digest; units; attempt };
        s.done_count <- s.done_count + 1;
        Obs.add s.obs Count.jobs_done 1;
        List.iter (store_finding s) findings;
        save s);
      match s.stop_after_results with
      | Some n when s.results_seen >= n -> s.stopping <- true
      | _ -> ())

(* The worker could not run the job at all (unknown fault, mangled
   spec...).  Unlike a lost link this leaves the worker alive and
   heartbeating, so nothing times out: the job must be explicitly
   unassigned here or it stays held forever.  Even the refusal of a
   job another attempt has finished frees a slot on [w]. *)
let refusal s wid ~now ~job ~reason =
  on_live s wid ~now (fun w ->
      let j = s.jobs.(job) in
      release w j;
      match j.state with
      | Jdone _ -> ()
      | Pending | Offered ->
        j.refusals <- j.refusals + 1;
        if j.refusals >= max_refusals then begin
          s.failed <-
            Some
              (Printf.sprintf "job %d refused %d time(s) by workers; last reason: %s" job
                 j.refusals reason);
          s.stopping <- true
        end
        else if j.state = Offered && j.holders = [] then begin
          j.state <- Pending;
          s.pending <- s.pending @ [ job ]
        end)

let lost s wid ~now = on_live s wid ~now (lose s)

(* The job [w] would steal: the oldest in flight that it does not
   already hold.  It becomes stealable [steal_after] after its latest
   offer. *)
let steal_candidate s w =
  Array.fold_left
    (fun acc j ->
      match j.state with
      | Offered when not (List.mem w.wid j.holders) -> (
        match acc with Some best when best.offered_at <= j.offered_at -> acc | _ -> Some j)
      | _ -> acc)
    None s.jobs

(* Steal only when nothing is pending: a duplicate attempt is worth an
   idle worker, never a queued job. *)
let thieves s = if s.pending = [] then idle s else []

let tick s ~now =
  if not (over s) then begin
    Hashtbl.iter
      (fun _ w ->
        if (not w.lost) && now -. w.last_seen > s.heartbeat_timeout then begin
          lose s w;
          emit s (Drop w.wid)
        end)
      s.workers;
    assign s ~now;
    List.iter
      (fun w ->
        match steal_candidate s w with
        | Some j when now -. j.offered_at > s.steal_after ->
          offer s w j ~now ~steal:true
        | _ -> ())
      (thieves s)
  end;
  flush s

let next_deadline s =
  if over s then None
  else begin
    let earliest = ref infinity in
    let at d = earliest := Float.min !earliest d in
    Hashtbl.iter
      (fun _ w -> if not w.lost then at (w.last_seen +. s.heartbeat_timeout))
      s.workers;
    List.iter
      (fun w -> Option.iter (fun j -> at (j.offered_at +. s.steal_after)) (steal_candidate s w))
      (thieves s);
    if !earliest = infinity then None else Some !earliest
  end

(* --- Views ------------------------------------------------------------------ *)

let checkpoint_of s =
  let done_jobs =
    Array.fold_right
      (fun j acc ->
        match j.state with
        | Jdone d ->
          { Checkpoint.job = j.id; attempt = d.attempt; units = d.units; digest = d.digest }
          :: acc
        | Pending | Offered -> acc)
      s.jobs []
  in
  {
    Checkpoint.spec = s.spec;
    jobs = Array.length s.jobs;
    done_jobs;
    findings =
      Hashtbl.fold (fun dg name acc -> (dg, name) :: acc) s.findings [] |> List.sort compare;
    nondet = List.sort compare s.nondet;
  }

type summary = {
  jobs : int;
  jobs_done : int;
  digests : (int * string) list;
  findings : (string * string) list;
  nondet : int list;
  reassigned : int;
  steals : int;
  workers_seen : int;
}

let summary s =
  let ck = checkpoint_of s in
  {
    jobs = ck.jobs;
    jobs_done = List.length ck.done_jobs;
    digests = List.map (fun (d : Checkpoint.done_job) -> (d.job, d.digest)) ck.done_jobs;
    findings = ck.findings;
    nondet = ck.nondet;
    reassigned = s.reassigned;
    steals = s.steals;
    workers_seen = s.next_wid;
  }
