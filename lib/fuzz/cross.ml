open Pmtest_util
open Pmtest_model
open Pmtest_trace
module Engine = Pmtest_core.Engine
module Report = Pmtest_core.Report
module Naive = Pmtest_baseline.Naive_engine
module Pmemcheck = Pmtest_baseline.Pmemcheck
module Lint = Pmtest_lint.Lint
module Repair = Pmtest_repair.Repair
module Crashtest = Pmtest_crashtest.Crashtest
module Machine = Pmtest_pmem.Machine
module Pmtest = Pmtest_core.Pmtest
module Server = Pmtest_server.Server
module Client = Pmtest_client.Client

type pair =
  | Engine_vs_naive
  | Engine_vs_lint
  | Engine_vs_pmemcheck
  | Engine_vs_oracle
  | Engine_vs_crashtest
  | Engine_vs_packed
  | Engine_vs_serve
  | Engine_vs_repair

type outcome = Agree | Disagree of string | Skip of string

let all_pairs =
  [
    Engine_vs_naive;
    Engine_vs_lint;
    Engine_vs_pmemcheck;
    Engine_vs_oracle;
    Engine_vs_crashtest;
    Engine_vs_packed;
    Engine_vs_serve;
    Engine_vs_repair;
  ]

let pair_name = function
  | Engine_vs_naive -> "engine/naive"
  | Engine_vs_lint -> "engine/lint"
  | Engine_vs_pmemcheck -> "engine/pmemcheck"
  | Engine_vs_oracle -> "engine/oracle"
  | Engine_vs_crashtest -> "engine/crashtest"
  | Engine_vs_packed -> "engine/packed"
  | Engine_vs_serve -> "engine/serve"
  | Engine_vs_repair -> "engine/repair"

(* The engine only enforces undo logging inside a TX checker scope;
   pmemcheck and the lint need no scope. Missing_log counts are only
   comparable when every transaction opens inside a scope. *)
let tx_scoped events =
  let scope = ref false and ok = ref true in
  Array.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Tx Event.Tx_checker_start -> scope := true
      | Event.Tx Event.Tx_checker_end -> scope := false
      | Event.Tx Event.Tx_begin -> if not !scope then ok := false
      | _ -> ())
    events;
  !ok

(* Pmemcheck silently ignores out-of-range operations; the engine does
   not. Only compare when every op stays inside the shadowed range. *)
let ops_in_bounds (p : Gen.program) =
  Array.for_all
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Op (Model.Write { addr; size } | Model.Clwb { addr; size })
      | Event.Tx (Event.Tx_add { addr; size }) ->
        addr >= 0 && size > 0 && addr + size <= p.Gen.pm_size
      | _ -> true)
    p.Gen.events

let count_diff label kind er other =
  let a = Report.count kind er and b = Report.count kind other in
  if a = b then None else Some (Printf.sprintf "%s: engine %d vs %d" label a b)

let first_diff diffs = match List.filter_map Fun.id diffs with [] -> Agree | d :: _ -> Disagree d

(* The three analyses several contracts read, run at most once per
   program and only when a contract first asks for one. *)
type analysis = {
  program : Gen.program;
  boxed : (Report.t * Engine.snapshot) Lazy.t;
  lint : Lint.result Lazy.t;
  packed : Report.t Lazy.t;
}

let analyse (p : Gen.program) =
  let model = p.Gen.model and events = p.Gen.events in
  {
    program = p;
    boxed = lazy (Engine.check_with_snapshot ~model events);
    lint = lazy (Lint.run ~model events);
    packed = lazy (Engine.check_packed ~model (Packed.of_events events));
  }

let report a = fst (Lazy.force a.boxed)
let snapshot a = snd (Lazy.force a.boxed)

let vs_naive ({ program = p; _ } as a) =
  let key r = List.map (fun d -> (d.Report.kind, d.Report.loc)) r.Report.diagnostics in
  let er = report a in
  let nr = Naive.check ~model:p.Gen.model p.Gen.events in
  if key er = key nr then Agree
  else
    Disagree
      (Printf.sprintf "diagnostic sequences differ (engine %d diag(s), naive %d)"
         (List.length er.Report.diagnostics)
         (List.length nr.Report.diagnostics))

let vs_lint ({ program = p; _ } as a) =
  if Gen.has_lint_control p then Skip "lint suppression controls present"
  else begin
    let er = report a and lr = Lint.report_of (Lazy.force a.lint) in
    first_diff
      [
        count_diff "duplicate-writeback" Report.Duplicate_writeback er lr;
        count_diff "unnecessary-writeback" Report.Unnecessary_writeback er lr;
        (if tx_scoped p.Gen.events && not (Gen.has_exclusion p) then
           count_diff "missing-log" Report.Missing_log er lr
         else None);
      ]
  end

let vs_pmemcheck ({ program = p; _ } as a) =
  if p.Gen.model <> Model.X86 then Skip "pmemcheck models x86 only"
  else if Gen.has_exclusion p then Skip "pmemcheck has no exclusion scopes"
  else if not (ops_in_bounds p) then Skip "ops outside the shadowed range"
  else begin
    let pc = Pmemcheck.create ~size:p.Gen.pm_size in
    let sink = Pmemcheck.sink pc in
    Array.iter (fun (e : Event.t) -> sink.Sink.emit e.Event.kind e.Event.loc) p.Gen.events;
    let pc_set = Bytes.make p.Gen.pm_size '\000' in
    List.iter
      (fun (addr, size) -> Bytes.fill pc_set addr size '\001')
      (Pmemcheck.unpersisted_ranges pc);
    (* Bytes the engine cannot yet guarantee durable, from the final
       shadow snapshot. *)
    let snap = snapshot a and en_set = Bytes.make p.Gen.pm_size '\000' in
    List.iter
      (fun (r : Engine.range_status) ->
        if not (Interval.ends_by r.Engine.persist snap.Engine.timestamp) then
          Bytes.fill en_set r.Engine.lo (r.Engine.hi - r.Engine.lo) '\001')
      snap.Engine.ranges;
    let byte_diff =
      if Bytes.equal pc_set en_set then None
      else begin
        let i = ref 0 in
        while Bytes.get pc_set !i = Bytes.get en_set !i do
          incr i
        done;
        Some
          (Printf.sprintf "unpersisted byte sets differ first at 0x%x (engine %b, pmemcheck %b)"
             !i
             (Bytes.get en_set !i = '\001')
             (Bytes.get pc_set !i = '\001'))
      end
    in
    let er = report a and pr = Pmemcheck.result pc in
    first_diff
      [
        byte_diff;
        (if tx_scoped p.Gen.events then count_diff "missing-log" Report.Missing_log er pr
         else None);
        count_diff "duplicate-log" Report.Duplicate_log er pr;
      ]
  end

let checker_string = function
  | Event.Is_persist { addr; size } -> Printf.sprintf "isPersist(0x%x,%d)" addr size
  | Event.Is_ordered_before { a_addr; a_size; b_addr; b_size } ->
    Printf.sprintf "isOrderedBefore(0x%x,%d; 0x%x,%d)" a_addr a_size b_addr b_size

let vs_oracle ({ program = p; _ } as a) =
  match Oracle.evaluate p with
  | None -> Skip "not oracle-eligible (tx/control entries or unaligned ranges)"
  | Some { Oracle.exhaustive = false; _ } -> Skip "crash-state enumeration truncated"
  | Some { Oracle.points; _ } ->
    let report = report a in
    let engine_holds idx =
      let loc = p.Gen.events.(idx).Event.loc in
      not
        (List.exists
           (fun (d : Report.diagnostic) ->
             (d.Report.kind = Report.Not_persisted || d.Report.kind = Report.Not_ordered)
             && Loc.equal d.Report.loc loc)
           report.Report.diagnostics)
    in
    let bad =
      List.find_opt (fun (pt : Oracle.point) -> engine_holds pt.Oracle.index <> pt.Oracle.holds) points
    in
    (match bad with
    | None -> Agree
    | Some pt ->
      Disagree
        (Printf.sprintf "%s at event %d: engine says %s, enumeration says %s"
           (checker_string pt.Oracle.checker)
           pt.Oracle.index
           (if pt.Oracle.holds then "FAIL" else "pass")
           (if pt.Oracle.holds then "holds" else "violated")))

let vs_crashtest ({ program = p; _ } as a) =
  if p.Gen.model = Model.Eadr then Skip "the simulated device does not model eADR"
  else if not (ops_in_bounds p) then Skip "ops outside the simulated device"
  else if Event.op_count p.Gen.events = 0 then Agree
  else begin
    (* Only the final crash point carries the engine's end-of-trace
       durability claims, so only it is explored: each durable image the
       replayed device could leave must hold the final volatile content. *)
    let m = Machine.create ~track_versions:true ~size:p.Gen.pm_size () in
    let writes = ref 0 in
    Array.iter
      (fun (e : Event.t) ->
        match e.Event.kind with
        | Event.Op (Model.Write { addr; size }) ->
          Machine.store m ~addr (Bytes.make size (Char.chr ((!writes mod 250) + 1)));
          incr writes
        | Event.Op (Model.Clwb { addr; size }) -> Machine.clwb m ~addr ~size
        | Event.Op Model.Sfence -> Machine.sfence m
        | Event.Op Model.Ofence -> Machine.ofence m
        (* The global persist barrier drains everything pending — the
           simulated device's dfence. *)
        | Event.Op (Model.Dfence | Model.Gpf) -> Machine.dfence m
        | _ -> ())
      p.Gen.events;
    let final = Machine.volatile_image m in
    let snap = snapshot a in
    let claims =
      List.filter
        (fun (r : Engine.range_status) ->
          Interval.ends_by r.Engine.persist snap.Engine.timestamp)
        snap.Engine.ranges
    in
    let differs img (r : Engine.range_status) =
      let rec go i = i < r.Engine.hi && (Bytes.get img i <> Bytes.get final i || go (i + 1)) in
      go r.Engine.lo
    in
    let exception Failed of string in
    let check img =
      match List.find_opt (differs img) claims with
      | None -> ()
      | Some r ->
        raise
          (Failed
             (Printf.sprintf "engine claims [0x%x,+%d) persisted but a reachable image disagrees"
                r.Engine.lo (r.Engine.hi - r.Engine.lo)))
      | exception e -> raise (Failed ("recovery raised " ^ Printexc.to_string e))
    in
    let c = Crashtest.default_config in
    match
      Crashtest.explore ~limit:c.Crashtest.exhaustive_limit ~samples:c.Crashtest.samples_per_point
        m (Rng.create c.Crashtest.seed) check
    with
    | _ -> Agree
    | exception Failed msg -> Disagree msg
  end

(* The packed cursor feeds the engine's one dispatcher, as the boxed
   path does: every trace applies, every report field must match. *)
let vs_packed a =
  let er = report a and pr = Lazy.force a.packed in
  if er = pr then Agree
  else
    Disagree
      (Printf.sprintf "boxed and packed reports differ (boxed %d diag(s), packed %d)"
         (List.length er.Report.diagnostics)
         (List.length pr.Report.diagnostics))

(* One shared in-process daemon for the whole campaign, started on the
   first engine/serve comparison and drained at exit.  Each program gets
   a fresh session, so per-session state (model, exclusion preamble,
   aggregate) is exercised, while the worker pool is shared across
   thousands of programs the way a real daemon's would be. *)
let serve_daemon =
  lazy
    (let socket =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "pmtest-cross-%d.sock" (Unix.getpid ()))
     in
     let srv =
       Server.start
         {
           Server.default_config with
           socket;
           (* Two shards, one worker each: campaign sessions alternate
              shards, so the byte-identical-report contract is checked
              against the sharded admission path, not just shard 0. *)
           shards = 2;
           workers = 1;
           max_sessions = 64;
           idle_timeout = 60.0;
         }
     in
     at_exit (fun () -> Server.stop srv);
     srv)

(* Both sides of the serve contract drive the same session shape: events
   emitted in program order into per-thread builders, every thread's
   section flushed at fixed boundaries (in first-seen thread order, so
   the dispatch sequence is identical on both sides). *)
let serve_section_len = 16

let drive_session ~emit ~flush (p : Gen.program) =
  let threads = ref [] in
  Array.iteri
    (fun i (e : Event.t) ->
      if not (List.mem e.Event.thread !threads) then threads := !threads @ [ e.Event.thread ];
      emit e;
      if (i + 1) mod serve_section_len = 0 then List.iter flush !threads)
    p.Gen.events;
  List.iter flush !threads

let vs_serve (p : Gen.program) =
  let local =
    let s = Pmtest.init ~model:p.Gen.model ~workers:0 ~packed:true () in
    drive_session p
      ~emit:(fun (e : Event.t) -> Pmtest.emit ~thread:e.Event.thread ~loc:e.Event.loc s e.Event.kind)
      ~flush:(fun thread -> Pmtest.send_trace ~thread s);
    Pmtest.finish s
  in
  let srv = Lazy.force serve_daemon in
  match Client.connect ~model:p.Gen.model ~socket:(Server.config srv).Server.socket () with
  | Error m -> Disagree ("cannot attach to daemon: " ^ m)
  | Ok conn -> (
    let s = Client.Session.make conn in
    drive_session p
      ~emit:(fun (e : Event.t) ->
        Client.Session.emit ~thread:e.Event.thread ~loc:e.Event.loc s e.Event.kind)
      ~flush:(fun thread -> Client.Session.send_trace ~thread s);
    let remote = Client.Session.finish s in
    Client.close conn;
    match remote with
    | Error m -> Disagree ("daemon session failed: " ^ m)
    | Ok remote ->
      if local = remote then Agree
      else
        Disagree
          (Printf.sprintf "in-process and served reports differ (local %d diag(s), served %d)"
             (List.length local.Report.diagnostics)
             (List.length remote.Report.diagnostics)))

(* The repair contract. The engine-side core applies to every program
   on every model: the fixpoint must converge, and [Repair.verify_static]
   must prove the outcome (clean re-lint, idempotent plan, no new engine
   Fail diagnostics, packed/boxed agreement). On top of that, whenever
   both the original and the repaired trace are oracle-eligible and
   crash-state enumeration is exhaustive, the repair must pass the
   crash-state differential:

   - the final volatile image is untouched (repairs never move stores);
   - no crash state reachable in the original is lost (deletions are
     machine no-ops, insertions only append);
   - a deletion-only repair leaves the reachable set exactly unchanged;
   - the repaired trace ends fully durable — the final crash-state set
     is the singleton volatile image — and that image was already
     reachable at the original's final crash point, so insertions only
     shrink the end-of-trace uncertainty, never invent a new image. *)
let image_subset a b = Hashtbl.fold (fun k () acc -> acc && Hashtbl.mem b k) a true

let vs_repair ({ program = p; _ } as a) =
  let o = Repair.fixpoint ~model:p.Gen.model ~lint:(Lazy.force a.lint) p.Gen.events in
  if not o.Repair.converged then
    Disagree
      (Printf.sprintf "repair did not converge (%d lint passes, %d edits)" o.Repair.iterations
         (Repair.edits_applied o))
  else
    match
      Repair.verify_static ~model:p.Gen.model ~original:p.Gen.events ~original_report:(report a) o
    with
    | problem :: _ -> Disagree ("static proof: " ^ problem)
    | [] ->
      if Repair.edits_applied o = 0 then Agree
      else begin
        let rp = { p with Gen.events = o.Repair.repaired } in
        match (Oracle.explore p, Oracle.explore rp) with
        | None, _ | _, None ->
          (* Not oracle-eligible: the engine-side proof above is the
             whole contract. *)
          Agree
        | Some w0, Some w1 ->
          if not (w0.Oracle.exhaustive && w1.Oracle.exhaustive) then Agree
          else begin
            let deletions_only =
              o.Repair.inserted_flushes = 0 && o.Repair.inserted_fences = 0
              && o.Repair.inserted_logs = 0
            in
            let problems =
              List.filter_map Fun.id
                [
                  (if String.equal w0.Oracle.volatile w1.Oracle.volatile then None
                   else Some "repair changed the final volatile image");
                  (if image_subset w0.Oracle.images w1.Oracle.images then None
                   else Some "a crash state reachable in the original is lost after repair");
                  (if deletions_only && not (image_subset w1.Oracle.images w0.Oracle.images) then
                     Some "a deletion-only repair changed the reachable crash-state set"
                   else None);
                  (if
                     Hashtbl.length w1.Oracle.final = 1
                     && Hashtbl.mem w1.Oracle.final w1.Oracle.volatile
                   then None
                   else Some "repaired trace does not end fully durable");
                  (if Hashtbl.mem w0.Oracle.final w1.Oracle.volatile then None
                   else Some "final persisted image was not reachable in the original");
                ]
            in
            match problems with [] -> Agree | d :: _ -> Disagree ("oracle differential: " ^ d)
          end
      end

let compare_analysis pair a =
  match pair with
  | Engine_vs_naive -> vs_naive a
  | Engine_vs_lint -> vs_lint a
  | Engine_vs_pmemcheck -> vs_pmemcheck a
  | Engine_vs_oracle -> vs_oracle a
  | Engine_vs_crashtest -> vs_crashtest a
  | Engine_vs_packed -> vs_packed a
  | Engine_vs_serve -> vs_serve a.program
  | Engine_vs_repair -> vs_repair a

let compare_pair pair p = compare_analysis pair (analyse p)

let run p =
  let a = analyse p in
  List.map (fun pair -> (pair, compare_analysis pair a)) all_pairs

let disagrees pair p = match compare_pair pair p with Disagree _ -> true | _ -> false
