module Model = Pmtest_model.Model
module Obs = Pmtest_obs.Obs
module Wire = Pmtest_wire.Wire
module Campaign = Pmtest_fuzz.Campaign
module Gen = Pmtest_fuzz.Gen
module Cross = Pmtest_fuzz.Cross
module Fuzz_repro = Pmtest_fuzz.Repro
module Crashfs = Pmtest_crashfs.Crashfs
module Litmus = Pmtest_litmus.Litmus
module Suite = Pmtest_litmus.Suite

(* Seconds on the monotonic clock: heartbeat and steal deadlines must
   not fire because the wall clock stepped. *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    Sys.mkdir dir 0o755
  end

(* Same discipline as [Serial.save_file]: a SIGKILL mid-write leaves a
   stray [.tmp], never a torn file a resume would trip over. *)
let write_atomic path text =
  mkdir_p (Filename.dirname path);
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname path) (Filename.basename path ^ ".") ".tmp"
  in
  match
    let oc = open_out tmp in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)
  with
  | () -> Sys.rename tmp path
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* --- Campaign specs --------------------------------------------------------- *)

module Spec = struct
  type kind = Fuzz | Crashfs | Litmus

  type t = {
    kind : kind;
    model : Model.kind;
    fs : Crashfs.fs_kind;
    fault : string option;
    seed : int;
    count : int;
    chunk : int;
    max_ops : int option;
  }

  let kind_name = function Fuzz -> "fuzz" | Crashfs -> "crashfs" | Litmus -> "litmus"

  let kind_of_name = function
    | "fuzz" -> Some Fuzz
    | "crashfs" -> Some Crashfs
    | "litmus" -> Some Litmus
    | _ -> None

  let fuzz ?max_ops ~model ~seed ~count ~chunk () =
    { kind = Fuzz; model; fs = Crashfs.Pmfs; fault = None; seed; count; chunk; max_ops }

  let crashfs ?max_ops ?fault ~fs ~model ~seed ~count ~chunk () =
    { kind = Crashfs; model; fs; fault; seed; count; chunk; max_ops }

  let litmus ~chunk () =
    {
      kind = Litmus;
      model = Model.X86;
      fs = Crashfs.Pmfs;
      fault = None;
      seed = 0;
      count = List.length Suite.all;
      chunk;
      max_ops = None;
    }

  let to_string t =
    let b = Buffer.create 64 in
    Buffer.add_string b (kind_name t.kind);
    Printf.bprintf b " model=%s fs=%s seed=%d count=%d chunk=%d" (Model.kind_name t.model)
      (Crashfs.fs_kind_name t.fs) t.seed t.count t.chunk;
    Option.iter (fun f -> Printf.bprintf b " fault=%s" f) t.fault;
    Option.iter (fun m -> Printf.bprintf b " max_ops=%d" m) t.max_ops;
    Buffer.contents b

  (* Everything [run_units] would choke on, caught before any job is
     offered: seeds travel as unsigned varints (a negative one would
     blow up mid-[encode_job_offer], under the coordinator lock), and an
     unknown fault name would make every attempt of every job fail
     worker-side. *)
  let validate t =
    if t.seed < 0 then Error "negative seed (job ranges travel as unsigned varints)"
    else if t.count < 0 then Error "negative count"
    else if t.chunk < 1 then Error "chunk < 1"
    else
      match (t.kind, t.fault) with
      | _, None -> Ok ()
      | Crashfs, Some f ->
        Result.map (fun _ -> ()) (Crashfs.with_fault (Crashfs.default_config t.fs) f)
      | (Fuzz | Litmus), Some _ ->
        Error (Printf.sprintf "fault only applies to crashfs campaigns, not %s" (kind_name t.kind))

  let of_string s =
    match String.split_on_char ' ' (String.trim s) with
    | [] | [ "" ] -> Error "empty campaign spec"
    | kind_s :: rest -> (
      match kind_of_name kind_s with
      | None -> Error (Printf.sprintf "unknown campaign kind %S" kind_s)
      | Some kind ->
        let spec =
          ref
            {
              kind;
              model = Model.X86;
              fs = Crashfs.Pmfs;
              fault = None;
              seed = 0;
              count = -1;
              chunk = -1;
              max_ops = None;
            }
        in
        let err = ref None in
        let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
        List.iter
          (fun tok ->
            if tok <> "" && !err = None then
              match String.index_opt tok '=' with
              | None -> fail "malformed spec token %S" tok
              | Some i -> (
                let key = String.sub tok 0 i in
                let value = String.sub tok (i + 1) (String.length tok - i - 1) in
                let int_val f =
                  match int_of_string_opt value with
                  | Some n -> f n
                  | None -> fail "bad integer %S for %s" value key
                in
                match key with
                | "model" -> (
                  match Model.kind_of_string value with
                  | Some m -> spec := { !spec with model = m }
                  | None -> fail "unknown model %S" value)
                | "fs" -> (
                  match Crashfs.fs_kind_of_string value with
                  | Some f -> spec := { !spec with fs = f }
                  | None -> fail "unknown fs %S" value)
                | "fault" -> spec := { !spec with fault = Some value }
                | "seed" -> int_val (fun n -> spec := { !spec with seed = n })
                | "count" -> int_val (fun n -> spec := { !spec with count = n })
                | "chunk" -> int_val (fun n -> spec := { !spec with chunk = n })
                | "max_ops" -> int_val (fun n -> spec := { !spec with max_ops = Some n })
                | _ -> fail "unknown spec key %S" key))
          rest;
        (match !err with
        | Some e -> Error e
        | None ->
          if !spec.count < 0 then Error "spec is missing count"
          else if !spec.chunk < 1 then Error "spec is missing chunk (or chunk < 1)"
          else Result.map (fun () -> !spec) (validate !spec)))

  let jobs t =
    let stop = t.seed + t.count in
    let rec go id lo acc =
      if lo >= stop then List.rev acc
      else
        let hi = min stop (lo + t.chunk) in
        go (id + 1) hi ((id, lo, hi) :: acc)
    in
    go 0 t.seed []
end

(* --- Job execution ---------------------------------------------------------- *)

type unit_result = {
  digest : string;
  units : int;
  findings : (string * string) list;
}

let fuzz_findings model (stats : Campaign.stats) =
  List.map
    (fun (f : Campaign.finding) ->
      let shrunk = { f.Campaign.program with Gen.events = f.Campaign.shrunk } in
      let name =
        Printf.sprintf "%s-seed%d-%s" (Model.kind_name model) f.Campaign.found_seed
          (String.map (fun c -> if c = '/' then '-' else c) (Cross.pair_name f.Campaign.pair))
      in
      let case =
        { Fuzz_repro.name; program = shrunk; checks = [ Fuzz_repro.Agree f.Campaign.pair ] }
      in
      (name, Fuzz_repro.case_text case))
    stats.Campaign.findings

let run_units (spec : Spec.t) ~lo ~hi =
  if hi < lo then Error "inverted job range"
  else
    match spec.Spec.kind with
    | Spec.Fuzz ->
      let base = Campaign.default_cfg spec.Spec.model in
      let gen =
        match spec.Spec.max_ops with
        | None -> base.Campaign.gen
        | Some m -> { base.Campaign.gen with Gen.max_ops = m }
      in
      let cfg = { base with Campaign.gen } in
      let stats = Campaign.run_range cfg ~lo ~hi in
      Ok
        {
          digest = Campaign.digest stats;
          units = hi - lo;
          findings = fuzz_findings spec.Spec.model stats;
        }
    | Spec.Crashfs -> (
      let config =
        { (Crashfs.default_config spec.Spec.fs) with Crashfs.model = spec.Spec.model }
      in
      let config =
        match spec.Spec.max_ops with
        | None -> config
        | Some m -> { config with Crashfs.max_ops = m }
      in
      let config =
        match spec.Spec.fault with
        | None -> Ok config
        | Some f -> Crashfs.with_fault config f
      in
      match config with
      | Error e -> Error e
      | Ok config -> (
        match Crashfs.run_range config ~lo ~hi () with
        | exception Invalid_argument e -> Error e
        | c ->
          let findings =
            List.map
              (fun (f : Crashfs.finding) ->
                let name =
                  Printf.sprintf "%s-%s-seed%d"
                    (Crashfs.fs_kind_name spec.Spec.fs)
                    (Option.value ~default:"clean" (Crashfs.fault_name config))
                    f.Crashfs.f_seed
                in
                (name, Crashfs.Repro.to_text (Crashfs.Repro.of_finding config ~name f)))
              c.Crashfs.findings
          in
          Ok { digest = Crashfs.campaign_digest c; units = hi - lo; findings }))
    | Spec.Litmus ->
      let n = List.length Suite.all in
      if lo < 0 || hi > n then
        Error (Printf.sprintf "litmus job [%d, %d) outside the %d-test suite" lo hi n)
      else
        let outcomes = Litmus.run_suite (Suite.slice ~lo ~hi) in
        let findings =
          List.filter_map
            (fun (o : Litmus.outcome) ->
              if Litmus.passed o then None
              else begin
                let b = Buffer.create 128 in
                Printf.bprintf b "# pmfarm-litmus-failure v1\n# test: %s\n"
                  o.Litmus.test.Litmus.name;
                List.iter
                  (fun (f : Litmus.failure) ->
                    Printf.bprintf b "%s: %s\n" f.Litmus.leg f.Litmus.message)
                  o.Litmus.failures;
                Some (o.Litmus.test.Litmus.name, Buffer.contents b)
              end)
            outcomes
        in
        Ok { digest = Litmus.outcomes_digest outcomes; units = hi - lo; findings }

(* --- Checkpoints ------------------------------------------------------------ *)

module Checkpoint = struct
  type done_job = { job : int; attempt : int; units : int; digest : string }

  type t = {
    spec : Spec.t;
    jobs : int;
    done_jobs : done_job list;
    findings : (string * string) list;
    nondet : int list;
  }

  let magic = "pmfarm-checkpoint v1"

  let to_text t =
    let b = Buffer.create 256 in
    Printf.bprintf b "%s\n" magic;
    Printf.bprintf b "spec %s\n" (Spec.to_string t.spec);
    Printf.bprintf b "jobs %d\n" t.jobs;
    List.iter
      (fun d -> Printf.bprintf b "done %d %d %d %s\n" d.job d.attempt d.units d.digest)
      t.done_jobs;
    List.iter (fun (dg, name) -> Printf.bprintf b "finding %s %s\n" dg name) t.findings;
    List.iter (fun j -> Printf.bprintf b "nondet %d\n" j) t.nondet;
    Buffer.contents b

  let save ~path t = write_atomic path (to_text t)

  let load path =
    match
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let lines = ref [] in
          (try
             while true do
               lines := input_line ic :: !lines
             done
           with End_of_file -> ());
          List.rev !lines)
    with
    | exception Sys_error e -> Error e
    | [] -> Error (path ^ ": empty checkpoint")
    | first :: rest when String.trim first = magic ->
      let spec = ref None in
      let jobs = ref (-1) in
      let done_jobs = ref [] in
      let findings = ref [] in
      let nondet = ref [] in
      let err = ref None in
      let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
      List.iter
        (fun line ->
          if String.trim line <> "" && !err = None then
            match String.index_opt line ' ' with
            | None -> fail "malformed checkpoint line %S" line
            | Some i -> (
              let key = String.sub line 0 i in
              let rest = String.sub line (i + 1) (String.length line - i - 1) in
              match key with
              | "spec" -> (
                match Spec.of_string rest with
                | Ok s -> spec := Some s
                | Error e -> fail "bad spec: %s" e)
              | "jobs" -> (
                match int_of_string_opt rest with
                | Some n when n >= 0 -> jobs := n
                | _ -> fail "bad jobs count %S" rest)
              | "done" -> (
                match String.split_on_char ' ' rest with
                | [ j; a; u; d ] -> (
                  match (int_of_string_opt j, int_of_string_opt a, int_of_string_opt u) with
                  | Some job, Some attempt, Some units ->
                    done_jobs := { job; attempt; units; digest = d } :: !done_jobs
                  | _ -> fail "bad done line %S" rest)
                | _ -> fail "bad done line %S" rest)
              | "finding" -> (
                match String.index_opt rest ' ' with
                | Some i ->
                  findings :=
                    (String.sub rest 0 i, String.sub rest (i + 1) (String.length rest - i - 1))
                    :: !findings
                | None -> fail "bad finding line %S" rest)
              | "nondet" -> (
                match int_of_string_opt rest with
                | Some j -> nondet := j :: !nondet
                | None -> fail "bad nondet line %S" rest)
              | _ -> fail "unknown checkpoint key %S" key))
        rest;
      (match (!err, !spec) with
      | Some e, _ -> Error (path ^ ": " ^ e)
      | None, None -> Error (path ^ ": missing spec line")
      | None, Some spec ->
        if !jobs < 0 then Error (path ^ ": missing jobs line")
        else
          Ok
            {
              spec;
              jobs = !jobs;
              done_jobs = List.rev !done_jobs;
              findings = List.sort compare !findings;
              nondet = List.sort compare !nondet;
            })
    | first :: _ -> Error (Printf.sprintf "%s: not a pmfarm checkpoint (%S)" path first)

  let pp ppf t =
    Format.fprintf ppf "@[<v>campaign: %s@,jobs: %d/%d done@,findings: %d@,nondet: %s@]"
      (Spec.to_string t.spec) (List.length t.done_jobs) t.jobs (List.length t.findings)
      (if t.nondet = [] then "none"
       else String.concat "," (List.map string_of_int t.nondet))
end

(* --- Coordinator ------------------------------------------------------------ *)

module Coordinator = struct
  (* Campaign job accounting, worker lifecycle, offers (with their
     retry/steal provenance), reassignment after worker loss, finding
     dedup, nondeterminism flags, heartbeat frames and on-disk
     checkpoint writes. *)
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

  type cfg = {
    socket : string;
    spec : Spec.t;
    triage_dir : string;
    checkpoint : string;
    resume : bool;
    capacity : int;
    heartbeat_timeout : float;
    steal_after : float;
    stop_after_results : int option;
    obs : Obs.t;
  }

  let default_cfg ~spec ~socket ~dir =
    {
      socket;
      spec;
      triage_dir = Filename.concat dir "triage";
      checkpoint = Filename.concat dir "checkpoint";
      resume = false;
      capacity = 1;
      heartbeat_timeout = 5.0;
      steal_after = 2.0;
      stop_after_results = None;
      obs = Obs.disabled;
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
  }

  (* A job refused this many times (across workers and attempts) is
     treated as deterministically broken: the campaign aborts with the
     worker's reason instead of bouncing the job forever. *)
  let max_refusals = 3

  type wrec = {
    wid : int;
    mutable wname : string;
    wfd : Unix.file_descr;
    mutable last_seen : float;
    mutable running : int list;
    mutable lost : bool;
  }

  type st = {
    cfg : cfg;
    spec_s : string;
    m : Mutex.t;
    cv : Condition.t;
    jobs : jrec array;
    mutable pending : int list;
    workers : (int, wrec) Hashtbl.t;
    mutable next_wid : int;
    mutable done_count : int;
    mutable results_seen : int;
    mutable reassigned : int;
    mutable steals : int;
    mutable workers_seen : int;
    mutable nondet : int list;
    findings : (string, string) Hashtbl.t;  (* content digest -> name *)
    mutable stopping : bool;
    mutable failed : string option;  (* a job exhausted [max_refusals] *)
  }

  let finished st = st.done_count = Array.length st.jobs

  let checkpoint_of st =
    let done_jobs =
      Array.fold_right
        (fun j acc ->
          match j.state with
          | Jdone d ->
            { Checkpoint.job = j.id; attempt = d.attempt; units = d.units; digest = d.digest }
            :: acc
          | Pending | Offered -> acc)
        st.jobs []
    in
    let findings =
      Hashtbl.fold (fun dg name acc -> (dg, name) :: acc) st.findings [] |> List.sort compare
    in
    {
      Checkpoint.spec = st.cfg.spec;
      jobs = Array.length st.jobs;
      done_jobs;
      findings;
      nondet = List.sort compare st.nondet;
    }

  let write_checkpoint st =
    Checkpoint.save ~path:st.cfg.checkpoint (checkpoint_of st);
    Obs.add st.cfg.obs Count.checkpoints 1

  let sanitize_name n =
    String.map (fun c -> if c = ' ' || c = '\t' || c = '\n' || c = '/' then '-' else c) n

  let store_finding st ~name ~text =
    let dg = Digest.to_hex (Digest.string text) in
    if Hashtbl.mem st.findings dg then Obs.add st.cfg.obs Count.dup_findings 1
    else begin
      let name = sanitize_name name in
      (* Seed-derived names are unique in practice; suffix defensively
         if two distinct reproducers ever share one. *)
      let name =
        if Hashtbl.fold (fun _ n acc -> acc || n = name) st.findings false then
          name ^ "-" ^ String.sub dg 0 8
        else name
      in
      Hashtbl.replace st.findings dg name;
      Obs.add st.cfg.obs Count.findings 1;
      write_atomic (Filename.concat st.cfg.triage_dir (name ^ ".pmt")) text
    end

  (* [offer]/[mark_lost]/[try_assign] are called with [st.m] held. A
     frame is one write(2), and capacity gates mean offers only ever go
     to workers parked in their read loop, so writing under the lock
     cannot wedge the coordinator on a busy peer. *)
  let rec offer st w j ~steal =
    j.attempt <- j.attempt + 1;
    j.state <- Offered;
    j.offered_at <- now ();
    j.holders <- w.wid :: j.holders;
    w.running <- j.id :: w.running;
    Obs.add st.cfg.obs Count.offers 1;
    if j.attempt > 1 && not steal then Obs.add st.cfg.obs Count.retries 1;
    if steal then begin
      Obs.add st.cfg.obs Count.steals 1;
      st.steals <- st.steals + 1
    end;
    let payload =
      Wire.encode_job_offer ~job:j.id ~attempt:j.attempt ~lo:j.lo ~hi:j.hi ~spec:st.spec_s
    in
    match Wire.write_frame w.wfd Wire.Job_offer payload with
    | Ok () -> ()
    | Error _ -> mark_lost st w

  and mark_lost st w =
    if not w.lost then begin
      w.lost <- true;
      Obs.add st.cfg.obs Count.workers_lost 1;
      (try Unix.shutdown w.wfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      let held = w.running in
      w.running <- [];
      let requeued =
        List.filter
          (fun jid ->
            let j = st.jobs.(jid) in
            j.holders <- List.filter (fun h -> h <> w.wid) j.holders;
            match j.state with
            | Jdone _ -> false
            | Pending | Offered ->
              if j.holders = [] then begin
                j.state <- Pending;
                true
              end
              else false)
          held
      in
      if requeued <> [] && not st.stopping then begin
        st.reassigned <- st.reassigned + List.length requeued;
        Obs.add st.cfg.obs Count.reassignments (List.length requeued);
        st.pending <- requeued @ st.pending;
        try_assign st
      end
    end

  and try_assign st =
    if not st.stopping then begin
      let by_load =
        Hashtbl.fold
          (fun _ w acc ->
            if (not w.lost) && List.length w.running < st.cfg.capacity then w :: acc else acc)
          st.workers []
        |> List.sort (fun a b ->
               compare
                 (List.length a.running, a.wid)
                 (List.length b.running, b.wid))
      in
      let rec go ws =
        match (ws, st.pending) with
        | [], _ | _, [] -> ()
        | w :: rest, jid :: pend ->
          if w.lost || List.length w.running >= st.cfg.capacity then go rest
          else begin
            st.pending <- pend;
            let j = st.jobs.(jid) in
            (match j.state with
            | Jdone _ -> ()  (* stale pending entry *)
            | Pending | Offered -> offer st w j ~steal:false);
            go ws
          end
      in
      go by_load
    end

  let handle_result st w ~job ~attempt ~digest ~units ~findings =
    Mutex.lock st.m;
    if not st.stopping then begin
      st.results_seen <- st.results_seen + 1;
      w.running <- List.filter (fun jid -> jid <> job) w.running;
      let j = st.jobs.(job) in
      j.holders <- List.filter (fun h -> h <> w.wid) j.holders;
      (match j.state with
      | Jdone d ->
        (* A second attempt of a finished job: replay verification. *)
        if d.digest <> digest then begin
          if not (List.mem job st.nondet) then st.nondet <- job :: st.nondet;
          Obs.add st.cfg.obs Count.nondet_flags 1;
          write_checkpoint st
        end
      | Pending | Offered ->
        j.state <- Jdone { digest; units; attempt };
        st.done_count <- st.done_count + 1;
        Obs.add st.cfg.obs Count.jobs_done 1;
        List.iter (fun (name, text) -> store_finding st ~name ~text) findings;
        write_checkpoint st);
      (match st.cfg.stop_after_results with
      | Some n when st.results_seen >= n ->
        st.stopping <- true;
        Condition.broadcast st.cv
      | _ -> ());
      if finished st then Condition.broadcast st.cv else try_assign st
    end;
    Mutex.unlock st.m

  (* The worker could not run the job at all (unknown fault, mangled
     spec...).  Unlike a lost link this leaves the worker alive and
     heartbeating, so nothing times out: the job must be explicitly
     unassigned here or it stays held forever. *)
  let handle_refusal st w ~job ~reason =
    Mutex.lock st.m;
    if not st.stopping then begin
      w.running <- List.filter (fun jid -> jid <> job) w.running;
      let j = st.jobs.(job) in
      j.holders <- List.filter (fun h -> h <> w.wid) j.holders;
      match j.state with
      | Jdone _ -> ()  (* another attempt already finished it *)
      | Pending | Offered ->
        j.refusals <- j.refusals + 1;
        if j.refusals >= max_refusals then begin
          st.failed <-
            Some
              (Printf.sprintf "job %d refused %d time(s) by workers; last reason: %s" job
                 j.refusals reason);
          st.stopping <- true;
          Condition.broadcast st.cv
        end
        else if j.holders = [] then begin
          j.state <- Pending;
          st.pending <- st.pending @ [ job ];
          try_assign st
        end
    end;
    Mutex.unlock st.m

  let reaper st =
    let tick = Float.max 0.02 (Float.min (st.cfg.heartbeat_timeout /. 4.) 0.25) in
    let rec loop () =
      Thread.delay tick;
      Mutex.lock st.m;
      let stop = st.stopping in
      if not stop then begin
        let t = now () in
        Hashtbl.iter
          (fun _ w ->
            if (not w.lost) && t -. w.last_seen > st.cfg.heartbeat_timeout then mark_lost st w)
          st.workers;
        if st.pending = [] && not (finished st) then begin
          let idle =
            Hashtbl.fold
              (fun _ w acc ->
                if (not w.lost) && List.length w.running < st.cfg.capacity then w :: acc
                else acc)
              st.workers []
          in
          List.iter
            (fun w ->
              let candidate =
                Array.fold_left
                  (fun acc j ->
                    match j.state with
                    | Offered
                      when t -. j.offered_at > st.cfg.steal_after
                           && not (List.mem w.wid j.holders) -> (
                      match acc with
                      | Some best when best.offered_at <= j.offered_at -> acc
                      | _ -> Some j)
                    | _ -> acc)
                  None st.jobs
              in
              match candidate with
              | Some j when (not w.lost) && List.length w.running < st.cfg.capacity ->
                offer st w j ~steal:true
              | _ -> ())
            idle
        end
      end;
      Mutex.unlock st.m;
      if not stop then loop ()
    in
    loop ()

  let send_err fd msg = ignore (Wire.write_frame fd Wire.Err (Wire.encode_err msg))

  (* For a fd that is already published in [st.workers]: [offer] writes
     to it under [st.m] from other threads, and a multi-write(2) frame
     torn by an interleaved one corrupts the stream — so every write to
     a registered worker takes the same lock. *)
  let send_err_locked st w msg =
    Mutex.lock st.m;
    send_err w.wfd msg;
    Mutex.unlock st.m

  let rec conn_loop st w reader =
    match Wire.read_one reader with
    | Error Wire.Timeout -> conn_loop st w reader
    | Error _ -> ()
    | Ok (kind, payload) ->
      Mutex.lock st.m;
      w.last_seen <- now ();
      Mutex.unlock st.m;
      let continue =
        match kind with
        | Wire.Job_claim -> true  (* informational; liveness already stamped *)
        | Wire.Checkpoint ->
          Obs.add st.cfg.obs Count.heartbeats 1;
          true
        | Wire.Job_result -> (
          match Wire.decode_job_result payload with
          | Ok (job, attempt, digest, units, _elapsed_ms, findings)
            when job >= 0 && job < Array.length st.jobs ->
            handle_result st w ~job ~attempt ~digest ~units ~findings;
            true
          | Ok (job, _, _, _, _, _) ->
            send_err_locked st w (Printf.sprintf "unknown job %d" job);
            true
          | Error e ->
            send_err_locked st w ("bad job result: " ^ Wire.error_to_string e);
            true)
        | Wire.Job_refused -> (
          match Wire.decode_job_refused payload with
          | Ok (job, _attempt, reason) when job >= 0 && job < Array.length st.jobs ->
            handle_refusal st w ~job ~reason;
            true
          | Ok (job, _, _) ->
            send_err_locked st w (Printf.sprintf "unknown job %d" job);
            true
          | Error e ->
            send_err_locked st w ("bad job refusal: " ^ Wire.error_to_string e);
            true)
        | Wire.Err -> true  (* informational; job failures come as Job_refused *)
        | Wire.Bye -> false
        | _ ->
          send_err_locked st w (Printf.sprintf "unexpected %s frame" (Wire.kind_name kind));
          true
      in
      if continue then conn_loop st w reader

  let serve_conn st fd =
    let reader = Wire.reader fd in
    let close () = try Unix.close fd with Unix.Unix_error _ -> () in
    match Wire.read_one reader with
    | Error _ -> close ()
    | Ok (Wire.Worker_hello, payload) -> (
      match Wire.decode_worker_hello payload with
      | Error e ->
        send_err fd (Wire.error_to_string e);
        close ()
      | Ok name ->
        Mutex.lock st.m;
        let wid = st.next_wid in
        st.next_wid <- wid + 1;
        Mutex.unlock st.m;
        let w =
          {
            wid;
            wname = (if name = "" then Printf.sprintf "w%d" wid else name);
            wfd = fd;
            last_seen = now ();
            running = [];
            lost = false;
          }
        in
        let ack = Wire.encode_worker_hello ~name:(Printf.sprintf "w%d" wid) in
        (* The ack must be on the wire before the worker is published:
           once it is in [st.workers], try_assign/reaper on another
           thread may write a [Job_offer] to this fd, and an offer
           arriving ahead of the ack fails the worker's handshake. *)
        match Wire.write_frame fd Wire.Worker_hello ack with
        | Error _ -> close ()
        | Ok () ->
          Mutex.lock st.m;
          w.last_seen <- now ();
          Hashtbl.replace st.workers wid w;
          st.workers_seen <- st.workers_seen + 1;
          Obs.add st.cfg.obs Count.workers_joined 1;
          try_assign st;
          Mutex.unlock st.m;
          conn_loop st w reader;
          Mutex.lock st.m;
          if st.stopping then w.lost <- true else mark_lost st w;
          Mutex.unlock st.m;
          close ())
    | Ok (kind, _) ->
      send_err fd (Printf.sprintf "expected worker-hello, got %s" (Wire.kind_name kind));
      close ()

  let run ?(ready = fun () -> ()) cfg =
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    if cfg.capacity < 1 then Error "Coordinator.run: capacity < 1"
    else begin
      match Spec.validate cfg.spec with
      | Error e -> Error (Printf.sprintf "invalid campaign spec: %s" e)
      | Ok () ->
      let resume_ck =
        if cfg.resume && Sys.file_exists cfg.checkpoint then
          match Checkpoint.load cfg.checkpoint with
          | Ok ck ->
            if Spec.to_string ck.Checkpoint.spec <> Spec.to_string cfg.spec then
              Error
                (Printf.sprintf "checkpoint is for another campaign (%s)"
                   (Spec.to_string ck.Checkpoint.spec))
            else Ok (Some ck)
          | Error e -> Error e
        else Ok None
      in
      match resume_ck with
      | Error e -> Error e
      | Ok resume_ck -> (
        let jobs =
          Spec.jobs cfg.spec
          |> List.map (fun (id, lo, hi) ->
                 {
                   id;
                   lo;
                   hi;
                   attempt = 0;
                   state = Pending;
                   offered_at = 0.;
                   holders = [];
                   refusals = 0;
                 })
          |> Array.of_list
        in
        let findings = Hashtbl.create 16 in
        let nondet = ref [] in
        (match resume_ck with
        | None -> ()
        | Some ck ->
          List.iter
            (fun (d : Checkpoint.done_job) ->
              if d.Checkpoint.job >= 0 && d.Checkpoint.job < Array.length jobs then begin
                let j = jobs.(d.Checkpoint.job) in
                j.state <-
                  Jdone
                    {
                      digest = d.Checkpoint.digest;
                      units = d.Checkpoint.units;
                      attempt = d.Checkpoint.attempt;
                    };
                j.attempt <- d.Checkpoint.attempt
              end)
            ck.Checkpoint.done_jobs;
          List.iter (fun (dg, name) -> Hashtbl.replace findings dg name) ck.Checkpoint.findings;
          nondet := ck.Checkpoint.nondet);
        let pending =
          Array.fold_right
            (fun j acc -> match j.state with Pending -> j.id :: acc | _ -> acc)
            jobs []
        in
        let done_count =
          Array.fold_left
            (fun acc j -> match j.state with Jdone _ -> acc + 1 | _ -> acc)
            0 jobs
        in
        let st =
          {
            cfg;
            spec_s = Spec.to_string cfg.spec;
            m = Mutex.create ();
            cv = Condition.create ();
            jobs;
            pending;
            workers = Hashtbl.create 8;
            next_wid = 0;
            done_count;
            results_seen = 0;
            reassigned = 0;
            steals = 0;
            workers_seen = 0;
            nondet = !nondet;
            findings;
            stopping = false;
            failed = None;
          }
        in
        Obs.add cfg.obs Count.jobs_total (Array.length jobs);
        mkdir_p cfg.triage_dir;
        if Sys.file_exists cfg.socket then (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
        let listen_fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
        match
          Unix.bind listen_fd (ADDR_UNIX cfg.socket);
          Unix.listen listen_fd 64
        with
        | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          Error (Printf.sprintf "cannot listen on %s: %s" cfg.socket (Unix.error_message e))
        | () ->
          let conn_threads = ref [] in
          let threads_m = Mutex.create () in
          let acceptor =
            Thread.create
              (fun () ->
                let rec go () =
                  match Unix.accept ~cloexec:true listen_fd with
                  | fd, _ ->
                    (* The teardown path wakes this loop with a
                       throwaway connection; [stopping] says it's over. *)
                    let stop =
                      Mutex.lock st.m;
                      let s = st.stopping in
                      Mutex.unlock st.m;
                      s
                    in
                    if stop then (try Unix.close fd with Unix.Unix_error _ -> ())
                    else begin
                      let t = Thread.create (fun () -> serve_conn st fd) () in
                      Mutex.lock threads_m;
                      conn_threads := t :: !conn_threads;
                      Mutex.unlock threads_m;
                      go ()
                    end
                  | exception Unix.Unix_error (EINTR, _, _) -> go ()
                  | exception Unix.Unix_error _ -> ()
                in
                go ())
              ()
          in
          let reaper_t = Thread.create (fun () -> reaper st) () in
          ready ();
          (* Write an initial checkpoint so even a campaign killed
             before its first result resumes cleanly. *)
          Mutex.lock st.m;
          write_checkpoint st;
          while not (finished st || st.stopping) do
            Condition.wait st.cv st.m
          done;
          (* [crashed] = the stop_after_results testing hook fired: tear
             the sockets down with no goodbye, as SIGKILL would.  An
             aborted campaign ([failed]) still says Bye so its workers
             exit instead of burning their reconnect budgets. *)
          let crashed = st.stopping && not (finished st) && st.failed = None in
          st.stopping <- true;
          let live =
            Hashtbl.fold (fun _ w acc -> if not w.lost then w :: acc else acc) st.workers []
          in
          let summary =
            {
              jobs = Array.length st.jobs;
              jobs_done = st.done_count;
              digests =
                Array.fold_right
                  (fun j acc ->
                    match j.state with Jdone d -> (j.id, d.digest) :: acc | _ -> acc)
                  st.jobs [];
              findings =
                Hashtbl.fold (fun dg name acc -> (dg, name) :: acc) st.findings []
                |> List.sort compare;
              nondet = List.sort compare st.nondet;
              reassigned = st.reassigned;
              steals = st.steals;
              workers_seen = st.workers_seen;
            }
          in
          Mutex.unlock st.m;
          (* A simulated crash tears the sockets down with no goodbye —
             workers must survive it via their reconnect loop.  The Bye
             writes take [st.m] like every other write to a registered
             worker: conn threads are still draining and may write an
             [Err] on the same fd. *)
          List.iter
            (fun w ->
              if not crashed then begin
                Mutex.lock st.m;
                ignore (Wire.write_frame w.wfd Wire.Bye "");
                Mutex.unlock st.m
              end;
              try Unix.shutdown w.wfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
            live;
          (* Closing a listening fd does not wake accept(2); one
             throwaway connection does. *)
          (match Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 with
          | exception Unix.Unix_error _ -> ()
          | fd ->
            (try Unix.connect fd (ADDR_UNIX cfg.socket) with Unix.Unix_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ()));
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          (try Unix.unlink cfg.socket with Unix.Unix_error _ | Sys_error _ -> ());
          Thread.join acceptor;
          Thread.join reaper_t;
          Mutex.lock threads_m;
          let ts = !conn_threads in
          Mutex.unlock threads_m;
          List.iter Thread.join ts;
          match st.failed with Some e -> Error e | None -> Ok summary)
    end
end

(* --- Workers ---------------------------------------------------------------- *)

module Worker = struct
  type cfg = {
    socket : string;
    name : string;
    attempts : int;
    base_delay : float;
    max_delay : float;
    hb_interval : float;
    log : string -> unit;
  }

  let default_cfg ~socket ~name =
    {
      socket;
      name;
      attempts = 8;
      base_delay = 0.05;
      max_delay = 2.0;
      hb_interval = 1.0;
      log = ignore;
    }

  let dial cfg =
    match Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 with
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | fd -> (
      match Unix.connect fd (ADDR_UNIX cfg.socket) with
      | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Printf.sprintf "cannot connect to %s: %s" cfg.socket (Unix.error_message e))
      | () -> Ok fd)

  let handshake cfg fd reader =
    match
      Wire.write_frame fd Wire.Worker_hello (Wire.encode_worker_hello ~name:cfg.name)
    with
    | Error e -> Error (Wire.error_to_string e)
    | Ok () -> (
      match Wire.read_one reader with
      | Error e -> Error (Wire.error_to_string e)
      | Ok (Wire.Worker_hello, payload) ->
        Result.map_error Wire.error_to_string (Wire.decode_worker_hello payload)
      | Ok (Wire.Err, payload) ->
        Error
          (match Wire.decode_err payload with
          | Ok m -> "coordinator refused: " ^ m
          | Error e -> Wire.error_to_string e)
      | Ok (kind, _) -> Error (Printf.sprintf "unexpected %s frame" (Wire.kind_name kind)))

  (* One connection's lifetime. Returns [`Bye] on an orderly campaign
     end, [`Lost] when the link died and a reconnect should be tried. *)
  let session cfg fd reader ~jobs_done =
    let m = Mutex.create () in
    let current = ref None in
    let hb_stop = ref false in
    (* Every write to [fd] goes through [send] under [m]: the heartbeat
       thread and this session thread share the fd, and [write_exactly]
       can split a large [Job_result] across several write(2) calls — a
       [Checkpoint] landing between two of them would corrupt the
       stream and force a reconnect plus a full job re-run. *)
    let send kind payload =
      Mutex.lock m;
      let r = Wire.write_frame fd kind payload in
      Mutex.unlock m;
      r
    in
    let send_err msg = ignore (send Wire.Err (Wire.encode_err msg)) in
    let refuse ~job ~attempt reason =
      ignore (send Wire.Job_refused (Wire.encode_job_refused ~job ~attempt ~reason))
    in
    let hb =
      Thread.create
        (fun () ->
          let rec loop () =
            Thread.delay cfg.hb_interval;
            Mutex.lock m;
            let stop = !hb_stop and running = !current and done_n = !jobs_done in
            Mutex.unlock m;
            if not stop then
              match send Wire.Checkpoint (Wire.encode_checkpoint ~running ~jobs_done:done_n) with
              | Ok () -> loop ()
              | Error _ -> ()  (* link died; the read loop notices too *)
          in
          loop ())
        ()
    in
    let rec loop () =
      match Wire.read_one reader with
      | Error Wire.Timeout -> loop ()
      | Error _ -> `Lost
      | Ok (Wire.Bye, _) -> `Bye
      | Ok (Wire.Err, payload) ->
        cfg.log
          ("coordinator error: "
          ^ (match Wire.decode_err payload with Ok m -> m | Error e -> Wire.error_to_string e));
        loop ()
      | Ok (Wire.Job_offer, payload) -> (
        match Wire.decode_job_offer payload with
        | Error e ->
          (* Corrupt payload under a valid CRC: refuse the one offer,
             keep the link — this must not kill the worker. *)
          send_err ("bad job offer: " ^ Wire.error_to_string e);
          loop ()
        | Ok (job, attempt, lo, hi, spec_s) -> (
          match Spec.of_string spec_s with
          | Error e ->
            (* The coordinator knows which job to unassign only if the
               refusal names it — a bare [Err] would leave this worker
               holding the job forever. *)
            refuse ~job ~attempt (Printf.sprintf "bad campaign spec: %s" e);
            loop ()
          | Ok spec -> (
            ignore (send Wire.Job_claim (Wire.encode_job_claim ~job ~attempt));
            Mutex.lock m;
            current := Some job;
            Mutex.unlock m;
            let t0 = now () in
            let result = run_units spec ~lo ~hi in
            let elapsed_ms = max 0 (int_of_float ((now () -. t0) *. 1000.)) in
            Mutex.lock m;
            current := None;
            (match result with Ok _ -> incr jobs_done | Error _ -> ());
            Mutex.unlock m;
            match result with
            | Error e ->
              cfg.log (Printf.sprintf "job %d attempt %d refused: %s" job attempt e);
              refuse ~job ~attempt e;
              loop ()
            | Ok r -> (
              cfg.log
                (Printf.sprintf "job %d attempt %d [%d, %d): %d finding(s), %d ms" job attempt
                   lo hi (List.length r.findings) elapsed_ms);
              match
                send Wire.Job_result
                  (Wire.encode_job_result ~job ~attempt ~digest:r.digest ~units:r.units
                     ~elapsed_ms ~findings:r.findings)
              with
              | Ok () -> loop ()
              | Error _ -> `Lost))))
      | Ok (kind, _) ->
        send_err (Printf.sprintf "unexpected %s frame" (Wire.kind_name kind));
        loop ()
    in
    let outcome = loop () in
    Mutex.lock m;
    hb_stop := true;
    Mutex.unlock m;
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    Thread.join hb;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    outcome

  let run cfg =
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    if cfg.attempts < 1 then Error "Worker.run: attempts < 1"
    else begin
      let rng = Random.State.make_self_init () in
      let jobs_done = ref 0 in
      let rec connect_loop fails delay =
        match dial cfg with
        | Error e ->
          if fails + 1 >= cfg.attempts then
            Error (Printf.sprintf "%s (after %d attempt(s))" e cfg.attempts)
          else begin
            let jittered = delay *. (0.5 +. Random.State.float rng 1.0) in
            cfg.log (Printf.sprintf "%s; retrying in %.0f ms" e (jittered *. 1000.));
            (try Unix.sleepf jittered with Unix.Unix_error _ -> ());
            connect_loop (fails + 1) (Float.min cfg.max_delay (delay *. 2.0))
          end
        | Ok fd -> (
          let reader = Wire.reader fd in
          match handshake cfg fd reader with
          | Error e ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            if fails + 1 >= cfg.attempts then
              Error (Printf.sprintf "%s (after %d attempt(s))" e cfg.attempts)
            else begin
              let jittered = delay *. (0.5 +. Random.State.float rng 1.0) in
              cfg.log (Printf.sprintf "handshake failed (%s); retrying" e);
              (try Unix.sleepf jittered with Unix.Unix_error _ -> ());
              connect_loop (fails + 1) (Float.min cfg.max_delay (delay *. 2.0))
            end
          | Ok assigned -> (
            cfg.log (Printf.sprintf "connected as %s" assigned);
            match session cfg fd reader ~jobs_done with
            | `Bye -> Ok !jobs_done
            | `Lost ->
              cfg.log "link lost; reconnecting";
              connect_loop 0 cfg.base_delay))
      in
      connect_loop 0 cfg.base_delay
    end
end
