(* One benchmark for PMTest, end to end and layer by layer.

     pipeline.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                  [--json FILE] [--spans FILE]
     pipeline.exe --smoke --benchmark BENCHMARK.json
     pipeline.exe compare A.json B.json [--benchmark BENCHMARK.json]

   With [--workload] the workload runs in this process, which is then
   fresh: its own heap, domains and peak RSS.  Without it every workload
   runs in turn, each in a child process.  The last line of standard
   output is the result: [correct], [attempted], [failed] and the
   metrics — the end-to-end ones untraced, the per-layer ones with
   [--trace 1].  README.md describes the workloads and metrics. *)

module W = Workloads
module Stats = Pmtest_util.Stats
module Report = Pmtest_core.Report
module Farm = Pmtest_farm.Farm
module Campaign = Pmtest_fuzz.Campaign
module Cross = Pmtest_fuzz.Cross

type cfg = { seed : int; seconds : float; trace : bool; smoke : bool; dir : string }

type outcome = {
  metrics : (string * string * float) list;  (** name, unit, value *)
  attempted : int;
  failed : int;
  extra : (string * Json.t) list;  (** The run record's other fields. *)
  spans : Span.t;
}

let median l = Stats.median (Array.of_list l)
let mean l = Stats.mean (Array.of_list l)
let percentile l p = Stats.percentile (Array.of_list l) p
let count p l = List.length (List.filter p l)

(* A tracing workload's slowdown: the ratio of the two sides'
   10th-percentile times.  On a shared host, contention only ever adds
   time, and it slows one side of a pair more than the other when they
   keep different numbers of cores busy; the fast tail of each side is
   what the host did not disturb. *)
let slowdown pairs =
  percentile (List.map snd pairs) 10.0 /. percentile (List.map fst pairs) 10.0

let ms_summary walls =
  Json.Obj
    [
      ("p50", Json.Num (1e3 *. median walls));
      ("p95", Json.Num (1e3 *. percentile walls 95.0));
      ("n", Json.Num (float_of_int (List.length walls)));
    ]

(* Set-up, timed.  [env] is the set-up the run measures.  An untraced
   run sets up [setup_runs] times and reports the median as [setup_s]:
   [window] makes and releases the other set-ups ([again]) at even
   intervals through the measured window, so the median samples the
   host over the whole run rather than its first seconds. *)
let setup_runs cfg = if cfg.trace then 1 else 9

type 'env setup = { env : 'env; times : float list ref; again : unit -> unit }

let setup ~release f =
  let timed () =
    let t0 = Span.now () in
    let env = f () in
    (env, Span.seconds_since t0)
  in
  let env, t = timed () in
  let times = ref [ t ] in
  let again () =
    let e, t = timed () in
    release e;
    times := t :: !times
  in
  { env; times; again }

let setup_s s = median !(s.times)

(* Steps until [cfg.seconds] have gone by, at least [min] and at most
   [max] of them, with the run's remaining set-ups in between. *)
let window cfg s ~min ?(max = max_int) step =
  let start = Span.now () in
  let repeats = setup_runs cfg - 1 and made = ref 0 in
  let catch_up due =
    while !made < due do
      s.again ();
      incr made
    done
  in
  let rec go k acc =
    let elapsed = Span.seconds_since start in
    if k >= max || (k >= min && elapsed >= cfg.seconds) then begin
      catch_up repeats;
      List.rev acc
    end
    else begin
      if cfg.seconds > 0.0 then
        catch_up (Int.min repeats (int_of_float (float_of_int repeats *. elapsed /. cfg.seconds)));
      go (k + 1) (step k :: acc)
    end
  in
  go 0 []

let peak_rss_mb ~extra_kb = float_of_int (Proc.vmhwm_kb () + extra_kb) /. 1024.0

(* The replay phase of a traced run, against [daemon]'s socket or, when
   the workload has none, a pmtestd started for the client layer. *)
let replay cfg ?daemon sp corpus =
  let d, own =
    match daemon with
    | Some d -> (d, false)
    | None -> (Proc.start_daemon ~socket:(Filename.concat cfg.dir "replay.sock"), true)
  in
  let layers = Layers.run ~socket:d.Proc.socket ~min_s:(if cfg.smoke then 0.0 else 0.2) sp corpus in
  if own then ignore (Proc.stop_daemon d);
  layers

(* A session's blocking path, in ms per session, with what it leaves
   unexplained; the rows add up to the session time. *)
let stage_table ~session_ns stages =
  let unaccounted = session_ns -. List.fold_left (fun a (_, ns) -> a +. ns) 0.0 stages in
  let row (n, ns) = (n, Json.Num (ns /. 1e6)) in
  (unaccounted /. session_ns, Json.Obj (List.map row (stages @ [ ("unaccounted", unaccounted) ])))

(* --- Tracing workloads ------------------------------------------------------ *)

(* What a stage-table row may draw on: the uninstrumented cost per op,
   the replayed per-layer metrics, median per-session self times of the
   live traced sessions' spans, and the session's shape. *)
type ctx = {
  app_ns : float;
  layer : string -> float;
  live_ns : string -> float;
  ops : float;
  entries : float;
  sections : float;
}

type tracing = {
  name : string;
  program : cfg -> W.program;
  deploy : [ `In_process of int | `Attach ];  (** Checking workers, or a pmtestd child. *)
  packed : bool;  (** Packed builders (always, through [Client.Session]). *)
  stages : ctx -> (string * float) list;
      (** The blocking path of one session, in ns per session. *)
}

let app c = ("app", c.app_ns *. c.ops)
let builder c = ("builder", c.layer "builder.ns_per_entry" *. c.entries)

let tracing_workloads =
  [
    {
      name = "ctree-tx64";
      program = (fun cfg -> W.ctree ~seed:cfg.seed ~inserts:(if cfg.smoke then 100 else 2000));
      deploy = `In_process 1;
      packed = false;
      stages =
        (fun c ->
          [
            app c;
            builder c;
            ("runtime.send", c.layer "runtime.send_ns_per_section" *. c.sections);
            ("pmtest.finish", c.live_ns "pmtest.finish");
          ]);
    };
    {
      name = "redis-lru-sync";
      program =
        (fun cfg -> W.redis ~seed:cfg.seed ~ops:(if cfg.smoke then 200 else 4000) ~every:16);
      deploy = `In_process 0;
      packed = true;
      stages =
        (fun c ->
          [
            app c;
            builder c;
            ("engine.check_packed", c.layer "engine.check_packed_ns_per_entry" *. c.entries);
            ("report.merge", c.layer "report.merge_ns_per_section" *. c.sections);
          ]);
    };
    {
      name = "redis-lru-attach";
      program =
        (fun cfg -> W.redis ~seed:cfg.seed ~ops:(if cfg.smoke then 200 else 4000) ~every:16);
      deploy = `Attach;
      packed = true;
      stages =
        (fun c ->
          [
            app c;
            builder c;
            ("client.send", c.layer "client.send_us_per_section" *. 1e3 *. c.sections);
            ("client.finish", c.live_ns "client.finish");
          ]);
    };
  ]

type env = {
  program : W.program;
  daemon : Proc.daemon option;
  deployment : W.deployment;
  expect : string;  (** Verdict digest of the reference session. *)
  corpus : Pmtest_trace.Event.t array list;
}

(* Process-wide GC counters over [f], read after its domains have
   joined; a full major first, so earlier garbage is not collected on
   [f]'s clock. *)
type gc = { words : float; major_words : float; minors : int }

let with_gc f =
  Gc.full_major ();
  let q0 = Gc.quick_stat () in
  let r = f () in
  let q1 = Gc.quick_stat () in
  ( r,
    {
      words = q1.Gc.minor_words -. q0.Gc.minor_words;
      major_words = q1.Gc.major_words -. q0.Gc.major_words;
      minors = q1.Gc.minor_collections - q0.Gc.minor_collections;
    } )

type checked = { wall : float; ok : bool; entries : int; gc : gc }

let checked env sp =
  let s = W.session env.program env.deployment sp in
  let (r, wall), gc =
    with_gc (fun () ->
        Span.enter sp "pipeline.session";
        let t0 = Span.now () in
        let r = try s.W.run () with e -> Error (Printexc.to_string e) in
        let wall = Span.seconds_since t0 in
        Span.leave sp;
        (r, wall))
  in
  s.W.close ();
  let ok, entries =
    match r with
    | Ok rep when W.verdict rep = env.expect -> (true, rep.Report.entries)
    | Ok rep ->
      prerr_endline "pipeline: verdict differs from the reference session";
      (false, rep.Report.entries)
    | Error e ->
      prerr_endline ("pipeline: session failed: " ^ e);
      (false, 0)
  in
  { wall; ok; entries; gc }

let base_wall env =
  let drive = W.base env.program Span.off in
  Gc.full_major ();
  let t0 = Span.now () in
  drive ();
  Span.seconds_since t0

(* Each set-up's daemon gets its own socket: a later set-up runs while
   the measured one's daemon is still up. *)
let daemons = ref 0

let tracing_setup cfg (w : tracing) () =
  let program = w.program cfg in
  let daemon, deployment =
    match w.deploy with
    | `Attach ->
      incr daemons;
      let socket = Filename.concat cfg.dir (Printf.sprintf "pmtestd-%d.sock" !daemons) in
      let d = Proc.start_daemon ~socket in
      (Some d, W.Attach { socket = d.Proc.socket })
    | `In_process workers -> (None, W.In_process { workers; packed = w.packed })
  in
  let corpus = ref [] in
  let record = if cfg.trace then Some (fun s -> corpus := s :: !corpus) else None in
  let expect = W.verdict (W.reference ?record program) in
  let env = { program; daemon; deployment; expect; corpus = List.rev !corpus } in
  (* Warm-up: one session of each kind. *)
  ignore (base_wall env);
  if not (checked env Span.off).ok then failwith "warm-up session failed its verdict";
  env

let stop_daemon env = match env.daemon with Some d -> Proc.stop_daemon d | None -> 0

let run_tracing cfg (w : tracing) =
  let s = setup ~release:(fun e -> ignore (stop_daemon e)) (tracing_setup cfg w) in
  let env = s.env in
  let ops = float_of_int env.program.W.ops in
  if not cfg.trace then begin
    let pairs =
      window cfg s ~min:(if cfg.smoke then 1 else 3) (fun k ->
          if k mod 2 = 0 then
            let b = base_wall env in
            (b, checked env Span.off)
          else
            let c = checked env Span.off in
            (base_wall env, c))
    in
    let daemon_kb = stop_daemon env in
    let cs = List.map snd pairs in
    let walls = List.map (fun c -> c.wall) cs in
    let failed = count (fun c -> not c.ok) cs in
    {
      metrics =
        [
          ("setup_s", "s", setup_s s);
          ("slowdown", "x", slowdown (List.map (fun (b, c) -> (b, c.wall)) pairs));
          ( "minor_words_per_entry",
            "words",
            median (List.map (fun c -> c.gc.words /. float_of_int (max 1 c.entries)) cs) );
          ("peak_rss_mb", "MiB", peak_rss_mb ~extra_kb:daemon_kb);
        ];
      attempted = List.length cs;
      failed;
      extra =
        [
          ("ops_per_s", Json.Num (ops /. median walls));
          ("session_ms", ms_summary walls);
          ("base_ms", ms_summary (List.map fst pairs));
          ("error_rate", Json.Num (float_of_int failed /. float_of_int (List.length cs)));
        ];
      spans = Span.off;
    }
  end
  else begin
    (* Live phase: untraced and traced sessions side by side, so the
       traced run carries its own tracing overhead. *)
    let sp = Span.create () in
    let live =
      window cfg s ~min:2 ~max:(if cfg.smoke then 2 else 8) (fun k ->
          let b = base_wall env in
          let c = checked env Span.off in
          Span.set_session sp (k + 1);
          let t = checked env sp in
          (b, c, t))
    in
    let cs = List.map (fun (_, c, _) -> c) live and ts = List.map (fun (_, _, t) -> t) live in
    Span.set_session sp 0;
    let corpus =
      { Layers.sections = Array.of_list env.corpus; packed = w.packed }
    in
    let layers = replay cfg ?daemon:env.daemon sp corpus in
    ignore (stop_daemon env);
    let layer name =
      match List.find_opt (fun (n, _, _) -> n = name) layers with Some (_, _, v) -> v | None -> nan
    in
    let live_ns name =
      median
        (List.mapi
           (fun k _ ->
             let self = Span.self_ns ~keep:(fun s -> s.Span.session = k + 1) sp in
             Option.value ~default:0.0 (Hashtbl.find_opt self name))
           live)
    in
    let app_ns = median (List.map (fun (b, _, _) -> b) live) /. ops *. 1e9 in
    let c =
      {
        app_ns;
        layer;
        live_ns;
        ops;
        entries = float_of_int (Layers.entries corpus);
        sections = float_of_int (Array.length corpus.Layers.sections);
      }
    in
    let session_ns = 1e9 *. median (List.map (fun c -> c.wall) cs) in
    let unaccounted, stages = stage_table ~session_ns (w.stages c) in
    let traced = median (List.map (fun t -> t.wall) ts) in
    let all = cs @ ts in
    let failed = count (fun c -> not c.ok) all in
    {
      metrics =
        [ ("app.ns_per_op", "ns", app_ns) ]
        @ layers
        @ [
            ( "gc.minor_per_session",
              "count",
              mean (List.map (fun c -> float_of_int c.gc.minors) cs) );
            ( "gc.major_words_per_entry",
              "words",
              mean (List.map (fun c -> c.gc.major_words /. float_of_int (max 1 c.entries)) cs) );
            ("unaccounted.share", "share", unaccounted);
            ("trace.overhead_pct", "%", 100.0 *. ((traced /. (session_ns /. 1e9)) -. 1.0));
          ];
      attempted = List.length all;
      failed;
      extra =
        [
          ("traced_ops_per_s", Json.Num (ops /. traced));
          ("untraced_ops_per_s", Json.Num (ops /. (session_ns /. 1e9)));
          ("stages_ms_per_session", stages);
          ("session_ms", ms_summary (List.map (fun c -> c.wall) cs));
        ];
      spans = sp;
    }
  end

(* --- farm-fuzz ------------------------------------------------------------------ *)

type farm_env = {
  spec : Farm.Spec.t;
  lo : int;
  hi : int;  (** The campaign's seed range. *)
  entries : int;  (** Trace entries over every program of the campaign. *)
  expect : (int * string) list;  (** Reference digests: first, middle and last job. *)
}

(* Set-up: the jobs and their programs, and the reference digests from
   direct [Farm.run_units] on the first, middle and last job, which also
   warms every checker pair up. *)
let farm_setup cfg () =
  let count = if cfg.smoke then 24 else 600 in
  let spec = W.fuzz_spec ~seed:cfg.seed ~count in
  let jobs = Array.of_list (Farm.Spec.jobs spec) in
  let _, lo, _ = jobs.(0) and _, _, hi = jobs.(Array.length jobs - 1) in
  let entries =
    Array.fold_left
      (fun n (p : Pmtest_fuzz.Gen.program) -> n + Array.length p.Pmtest_fuzz.Gen.events)
      0 (W.programs spec ~lo ~hi)
  in
  let picks = List.sort_uniq compare [ 0; Array.length jobs / 2; Array.length jobs - 1 ] in
  let expect =
    List.map
      (fun i ->
        let id, lo, hi = jobs.(i) in
        match Farm.run_units spec ~lo ~hi with
        | Ok r -> (id, r.Farm.digest)
        | Error e -> failwith ("reference job: " ^ e))
      picks
  in
  { spec; lo; hi; entries; expect }

type campaign_run = { c : W.campaign; gc : gc }

let farm_campaign cfg env ~name sp =
  let c, gc = with_gc (fun () -> W.campaign ~dir:cfg.dir ~name env.spec sp) in
  { c; gc }

(* A campaign's twin without the farm: every job run directly, in order,
   on this thread.  Its job digests are what the campaign must reproduce. *)
let farm_direct env sp =
  Gc.full_major ();
  let t0 = Span.now () in
  let digests =
    try W.direct env.spec sp
    with Failure e ->
      prerr_endline ("pipeline: " ^ e);
      []
  in
  (Span.seconds_since t0, digests)

(* Correct when the direct pass reproduced the reference jobs and the
   campaign reproduced every job of the direct pass. *)
let pair_ok env (c : campaign_run) digests =
  digests <> []
  && List.for_all (fun (id, d) -> List.assoc_opt id digests = Some d) env.expect
  && W.campaign_ok c.c ~expect:digests

let duplicates (c : campaign_run) =
  match c.c.W.summary with
  | Ok s -> s.Farm.Coordinator.reassigned + s.Farm.Coordinator.steals
  | Error _ -> 0

let run_farm cfg =
  let s = setup ~release:ignore (farm_setup cfg) in
  let env = s.env in
  let programs = float_of_int (env.hi - env.lo) in
  let words_per_entry (c : campaign_run) = c.gc.words /. float_of_int env.entries in
  if not cfg.trace then begin
    (* Every pass over the jobs leaves about 0.2 MiB behind, so the peak
       RSS is read after the first three pairs, not after however many
       the host's speed lets into the window. *)
    let rss_kb = ref 0 in
    let pairs =
      window cfg s ~min:(if cfg.smoke then 1 else 3) (fun k ->
          let name = Printf.sprintf "campaign-%d" k in
          let pair =
            if k mod 2 = 0 then
              let d = farm_direct env Span.off in
              (d, farm_campaign cfg env ~name Span.off)
            else
              let c = farm_campaign cfg env ~name Span.off in
              (farm_direct env Span.off, c)
          in
          if k < 3 then rss_kb := Proc.vmhwm_kb ();
          pair)
    in
    let cs = List.map snd pairs in
    let walls = List.map (fun c -> c.c.W.wall) cs in
    let failed = count (fun ((_, d), c) -> not (pair_ok env c d)) pairs in
    (* Both sides run the same jobs on the same domains, so a pair's two
       times share the host's state and the window's totals cancel it. *)
    let total f = List.fold_left (fun a p -> a +. f p) 0.0 pairs in
    {
      metrics =
        [
          ("setup_s", "s", setup_s s);
          ("slowdown", "x", total (fun (_, c) -> c.c.W.wall) /. total (fun ((d, _), _) -> d));
          ("minor_words_per_entry", "words", median (List.map words_per_entry cs));
          ("peak_rss_mb", "MiB", float_of_int !rss_kb /. 1024.0);
        ];
      attempted = List.length cs;
      failed;
      extra =
        [
          ("ops_per_s", Json.Num (programs /. median walls));
          ("campaign_ms", ms_summary walls);
          ("direct_ms", ms_summary (List.map (fun ((d, _), _) -> d) pairs));
          ("tail_ms", Json.Num (1e3 *. median (List.map (fun c -> c.c.W.tail) cs)));
          ( "duplicate_attempts",
            Json.Num (float_of_int (List.fold_left (fun a c -> a + duplicates c) 0 cs)) );
          ("error_rate", Json.Num (float_of_int failed /. float_of_int (List.length cs)));
        ];
      spans = Span.off;
    }
  end
  else begin
    let sp = Span.create () in
    let untraced = farm_campaign cfg env ~name:"untraced" Span.off in
    Span.set_session sp 1;
    Span.enter sp "pipeline.direct";
    let direct_s, digests = farm_direct env sp in
    Span.leave sp;
    Span.set_session sp 2;
    Span.enter sp "pipeline.campaign";
    let traced = farm_campaign cfg env ~name:"traced" sp in
    Span.leave sp;
    (* The campaign's own per-stage accounting, over its first 10 jobs. *)
    Span.set_session sp 0;
    let jobs = Farm.Spec.jobs env.spec in
    let first = List.filteri (fun i _ -> i < 10) jobs in
    let _, lo, _ = List.hd first and _, _, hi = List.nth first (List.length first - 1) in
    Span.enter sp "fuzz.run_range";
    let stats = Campaign.run_range (W.campaign_cfg env.spec) ~lo ~hi in
    Span.leave sp;
    let n = float_of_int stats.Campaign.programs in
    let pair_us =
      List.map (fun (p, s) -> (Cross.pair_name p, 1e6 *. s /. n)) stats.Campaign.pair_seconds
    in
    let gen_us = 1e6 *. stats.Campaign.gen_seconds /. n in
    let sum l = List.fold_left (fun a (_, n) -> a + n) 0 l in
    let applied = sum stats.Campaign.applied and skipped = sum stats.Campaign.skipped in
    let corpus =
      {
        Layers.sections =
          Array.map (fun p -> p.Pmtest_fuzz.Gen.events) (W.programs env.spec ~lo ~hi);
        packed = false;
      }
    in
    let layers = replay cfg sp corpus in
    let unaccounted, stages =
      stage_table ~session_ns:(1e9 *. untraced.c.W.wall)
        (("fuzz.gen", 1e3 *. gen_us *. programs)
        :: List.map (fun (p, us) -> ("fuzz." ^ p, 1e3 *. us *. programs)) pair_us)
    in
    let failed = count (fun c -> not (pair_ok env c digests)) [ untraced; traced ] in
    {
      metrics =
        [ ("app.ns_per_op", "ns", 1e9 *. direct_s /. programs) ]
        @ layers
        @ [
            ("gc.minor_per_session", "count", float_of_int untraced.gc.minors);
            ( "gc.major_words_per_entry",
              "words",
              untraced.gc.major_words /. float_of_int env.entries );
            ("unaccounted.share", "share", unaccounted);
            ("trace.overhead_pct", "%", 100.0 *. ((traced.c.W.wall /. untraced.c.W.wall) -. 1.0));
          ];
      attempted = 2;
      failed;
      extra =
        [
          ("traced_ops_per_s", Json.Num (programs /. traced.c.W.wall));
          ("untraced_ops_per_s", Json.Num (programs /. untraced.c.W.wall));
          ("stages_ms_per_session", stages);
          ( "fuzz",
            Json.Obj
              [
                ("programs", Json.Num n);
                ("gen_us_per_program", Json.Num gen_us);
                ( "pair_us_per_program",
                  Json.Obj (List.map (fun (p, us) -> (p, Json.Num us)) pair_us) );
                ( "applied_share",
                  Json.Num (float_of_int applied /. float_of_int (applied + skipped)) );
              ] );
          ( "farm",
            Json.Obj
              [
                ("overhead_ms_per_campaign", Json.Num (1e3 *. (untraced.c.W.wall -. direct_s)));
                ( "duplicate_attempts",
                  Json.Num (float_of_int (duplicates untraced + duplicates traced)) );
                ("tail_ms", Json.Num (1e3 *. untraced.c.W.tail));
              ] );
        ];
      spans = sp;
    }
  end

(* --- Command line --------------------------------------------------------------- *)

let workloads =
  List.map (fun w -> (w.name, fun cfg -> run_tracing cfg w)) tracing_workloads
  @ [ ("farm-fuzz", run_farm) ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [git rev-parse HEAD] when the working directory is the root of a git
   checkout; [--git-dir] keeps git from looking above it. *)
let git_head () =
  let ic = Unix.open_process_in "git --git-dir=.git rev-parse HEAD 2>/dev/null" in
  let line = try Some (input_line ic) with End_of_file -> None in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some h -> Some (String.trim h)
  | _ -> None

let metric_obj ms =
  let metric (n, u, v) = (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]) in
  Json.Obj (List.map metric ms)

let correct o = o.failed = 0 && List.for_all (fun (_, _, v) -> Float.is_finite v) o.metrics

let report cfg ~workload ~json ~spans o =
  let ok = correct o in
  let head = [ ("correct", Json.Bool ok); ("attempted", Json.Num (float_of_int o.attempted));
               ("failed", Json.Num (float_of_int o.failed)); ("metrics", metric_obj o.metrics) ] in
  let record =
    Json.Obj
      ([
         ("workload", Json.Str workload);
         ("seed", Json.Num (float_of_int cfg.seed));
         ("trace", Json.Num (if cfg.trace then 1.0 else 0.0));
         ("seconds", Json.Num cfg.seconds);
         ("git_head", match git_head () with Some h -> Json.Str h | None -> Json.Null);
         ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
         ("ocaml", Json.Str Sys.ocaml_version);
         ("setup_runs", Json.Num (float_of_int (setup_runs cfg)));
       ]
      @ head @ o.extra)
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path (fun oc ->
          output_string oc (Json.to_string record ^ "\n")))
    json;
  if cfg.trace then begin
    let path =
      match spans with
      | Some p -> p
      | None -> Printf.sprintf "_pipeline/spans-%s-seed%d.json" workload cfg.seed
    in
    Proc.mkdir_p (Filename.dirname path);
    Span.write_chrome o.spans ~path ~metadata:record;
    prerr_endline ("pipeline: spans written to " ^ path)
  end;
  print_endline (Json.to_string record);
  print_endline (Json.to_string (Json.Obj head));
  ok

(* The names and units BENCHMARK.json promises, by section. *)
let promised benchmark key =
  Json.list (Option.value ~default:Json.Null (Json.member key (Json.parse (read_file benchmark))))
  |> List.filter_map (fun m ->
         match (Json.member "name" m, Json.member "unit" m) with
         | Some (Json.Str n), Some (Json.Str u) -> Some (n, u)
         | _ -> None)
  |> List.sort compare

(* One small session per tracing workload and a one-job campaign, both
   untraced and traced: every promised metric printed with its unit,
   every verdict equal to the reference. *)
let smoke cfg ~benchmark =
  let e2e = promised benchmark "end_to_end" and per_layer = promised benchmark "per_layer" in
  let bad = ref 0 in
  List.iter
    (fun (name, run) ->
      List.iter
        (fun trace ->
          let cfg = { cfg with trace; smoke = true; seconds = 0.0 } in
          let o = run cfg in
          let got = List.sort compare (List.map (fun (n, u, _) -> (n, u)) o.metrics) in
          let want = if trace then per_layer else e2e in
          let named = got = want in
          if not (named && correct o) then incr bad;
          Printf.printf "smoke %-17s trace=%d  %2d metric(s)%s  %d/%d correct\n%!" name
            (if trace then 1 else 0) (List.length got)
            (if named then "" else " (NOT the BENCHMARK.json set)")
            (o.attempted - o.failed) o.attempted)
        [ false; true ])
    workloads;
  !bad = 0

let () =
  match Array.to_list Sys.argv with
  | _ :: "--daemon" :: socket :: _ -> Proc.serve socket
  | _ :: "compare" :: rest ->
    let benchmark, files =
      match rest with
      | [ a; b ] -> ("BENCHMARK.json", [ a; b ])
      | [ "--benchmark"; f; a; b ] | [ a; b; "--benchmark"; f ] -> (f, [ a; b ])
      | _ -> ("", [])
    in
    (match files with
    | [ a; b ] -> exit (Compare.main ~benchmark a b)
    | _ ->
      prerr_endline "usage: pipeline.exe compare A.json B.json [--benchmark BENCHMARK.json]";
      exit 2)
  | _ ->
    let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
    let json = ref None and spans = ref None and smoke_run = ref false in
    let benchmark = ref "BENCHMARK.json" in
    Arg.parse
      [
        ("--workload", Arg.Set_string workload, "NAME run one workload in this process");
        ("--seed", Arg.Set_int seed, "N input seed (default 1)");
        ("--seconds", Arg.Set_float seconds, "S measured window (default 10)");
        ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
        ("--json", Arg.String (fun f -> json := Some f), "FILE append each run record to FILE");
        ("--spans", Arg.String (fun f -> spans := Some f), "FILE where --trace 1 writes spans");
        ("--smoke", Arg.Set smoke_run, " one tiny session per workload; check every metric");
        ("--benchmark", Arg.Set_string benchmark, "FILE the BENCHMARK.json --smoke checks against");
      ]
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      "pipeline.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json FILE]";
    if !seed < 0 then (prerr_endline "pipeline: --seed must be >= 0"; exit 2);
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    (* Working files — sockets, farm checkpoints — inside the working
       directory, relative so socket paths stay short. *)
    let dir = Printf.sprintf "_pipeline/run-%d" (Unix.getpid ()) in
    Proc.mkdir_p dir;
    Filename.set_temp_dir_name dir;
    at_exit (fun () ->
        Proc.rm_rf dir;
        try Unix.rmdir "_pipeline" with Unix.Unix_error _ -> ());
    let cfg = { seed = !seed; seconds = !seconds; trace = !trace = 1; smoke = false; dir } in
    if !smoke_run then exit (if smoke cfg ~benchmark:!benchmark then 0 else 1)
    else if !workload = "" then begin
      (* Every workload in a fresh child process. *)
      let exe = Sys.executable_name in
      let args w =
        [ exe; "--workload"; w; "--seed"; string_of_int !seed ]
        @ [ "--seconds"; string_of_float !seconds; "--trace"; string_of_int !trace ]
        @ match !json with Some f -> [ "--json"; f ] | None -> []
      in
      let ok =
        List.for_all Fun.id
          (List.map
             (fun (w, _) ->
               let pid =
                 Unix.create_process exe (Array.of_list (args w)) Unix.stdin Unix.stdout Unix.stderr
               in
               match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false)
             workloads)
      in
      exit (if ok then 0 else 1)
    end
    else
      match List.assoc_opt !workload workloads with
      | None ->
        prerr_endline ("pipeline: unknown workload " ^ !workload);
        exit 2
      | Some run ->
        let o = run cfg in
        exit (if report cfg ~workload:!workload ~json:!json ~spans:!spans o then 0 else 1)
