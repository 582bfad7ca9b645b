(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) against the simulated PM stack.

     dune exec bench/main.exe -- [target] [options]

   Targets: fig10a fig10b fig11 fig12a fig12b fig12c table1 table5 table6
            yat ablation lint fuzz litmus obs perf repair serve farm bechamel
            all (default: all)
   Options: --insertions N   microbenchmark insertions per cell (default 600)
            --ops N          real-workload operations (default 4000)
            --runs N         timing repetitions, best-of (default 3)
            --json FILE      write every selected target's result rows to FILE
                             (fuzz crashfs litmus perf repair serve farm emit rows)
            --gate           perf and serve: exit 1 (after writing --json) if
                             the packed representation is slower than boxed,
                             or shard scaling misses this machine's bar
            --shards N       serve: shard count (default: sized to the cores)
            --full           paper-scale parameters (slow)

   Absolute times depend on the simulator; the paper's *shapes* are what
   these benches reproduce: who is faster, by roughly what factor, and how
   the curves move with transaction size, thread count and worker count.
   EXPERIMENTS.md records a measured run against the paper's numbers. *)

open Pmtest_util
open Pmtest_pmdk
open Pmtest_workloads
module Report = Pmtest_core.Report
module Pmtest = Pmtest_core.Pmtest
module Engine = Pmtest_core.Engine
module Pmemcheck = Pmtest_baseline.Pmemcheck
module Yat = Pmtest_baseline.Yat
module Sink = Pmtest_trace.Sink
module Event = Pmtest_trace.Event
module Builder = Pmtest_trace.Builder
module Model = Pmtest_model.Model
module Fs = Pmtest_pmfs.Fs
open Pmtest_bugdb

(* --- Configuration ------------------------------------------------------------ *)

let insertions = ref 600
let kv_ops = ref 4000
let runs = ref 3
let json_path = ref None
let gate = ref false

(* 0 = auto: sized to the machine — shards only buy throughput when the
   cores exist to run them in parallel, and an oversharded daemon on a
   small box pays stop-the-world GC synchronisation across its domains
   for nothing.  [--shards] overrides. *)
let bench_shards = ref 0

(* Pool sized to the cell's needs: nodes + payload blocks + undo-log area,
   with generous slack — allocating a fixed huge pool would otherwise
   dominate the timings. *)
let pool_size_for ~size ~n =
  let per_insert = ((size + 63) / 64 * 64) + 1024 in
  max (8 * 1024 * 1024) ((n * per_insert * 2) + (2 * 1024 * 1024))

(* --- Result rows ---------------------------------------------------------------- *)

(* Every number a target reports is one row, in one schema:
   [{target, layer, metric, unit, value, better}].  [layer] names the
   measured part (a model, a file system, a worker count, "config",
   "summary", ...); [better] says which direction is an improvement.
   Booleans are 0/1 with unit "bool".  The few strings a result carries
   are notes.  [--json FILE] writes every selected target's rows and
   notes as [{"rows": [...], "notes": [...]}]. *)
type row = {
  target : string;
  layer : string;
  metric : string;
  unit : string;
  value : float;
  better : [ `Higher | `Lower | `None ];
}

let rows : row list ref = ref []
let notes : (string * string * string) list ref = ref []

let row ~target ~layer ~metric ~unit ~better value =
  rows := { target; layer; metric; unit; value; better } :: !rows

(* A count row: by default a plain fact of the run, with no better direction. *)
let count ~target ~layer ?(better = `None) metric n =
  row ~target ~layer ~metric ~unit:"count" ~better (float_of_int n)

let note ~target ~name text = notes := (target, name, text) :: !notes
let flag b = if b then 1.0 else 0.0

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Six significant digits, no exponent above 1e6; a non-finite value is
   [null], which the CI schema check rejects. *)
let json_number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v || Float.abs v >= 1e6 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let write_json () =
  match !json_path with
  | None -> ()
  | Some path ->
    let better = function `Higher -> "higher" | `Lower -> "lower" | `None -> "none" in
    let row r =
      Printf.sprintf
        "    {\"target\": %s, \"layer\": %s, \"metric\": %s, \"unit\": %s, \"value\": %s, \
         \"better\": \"%s\"}"
        (json_string r.target) (json_string r.layer) (json_string r.metric) (json_string r.unit)
        (json_number r.value) (better r.better)
    in
    let note (target, name, text) =
      Printf.sprintf "    {\"target\": %s, \"name\": %s, \"text\": %s}" (json_string target)
        (json_string name) (json_string text)
    in
    let list f = function
      | [] -> "[]"
      | l -> "[\n" ^ String.concat ",\n" (List.rev_map f l) ^ "\n  ]"
    in
    Files.write_atomic path (fun oc ->
        Printf.fprintf oc "{\n  \"rows\": %s,\n  \"notes\": %s\n}\n" (list row !rows)
          (list note !notes));
    Fmt.pr "@.JSON written to %s@." path

(* A failed gate still leaves its numbers behind. *)
let fail_gate fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "GATE FAILED: %s@." msg;
      write_json ();
      exit 1)
    fmt

(* --- Timing -------------------------------------------------------------------- *)

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* Wall time of [f (setup ())], once per run ([runs], default [--runs]).
   [setup] and [teardown] (given [f]'s result) run outside the timed
   region.  Returns every sample. *)
let samples ?(runs = !runs) ~setup ~teardown f =
  List.init runs (fun _ ->
      let x = setup () in
      let t0 = now_ns () in
      let y = f x in
      let t = seconds_since t0 in
      teardown y;
      t)

(* Best-of-N: robust against scheduler noise without needing long runs. *)
let best = List.fold_left Float.min infinity
let time ?runs f = best (samples ?runs ~setup:ignore ~teardown:ignore f)
let ratio a b = if b <= 0.0 then nan else a /. b

(* --- Tools under test ------------------------------------------------------------ *)

type tool =
  | Base  (* uninstrumented *)
  | Track_only  (* tracing without checking: every section is dropped *)
  | Pmemcheck
  | Pmtest of { workers : int; packed : bool; obs : bool }
      (* [workers = 0] checks synchronously inside [send_trace] *)

let pmtest ?(packed = false) ?(obs = false) workers = Pmtest { workers; packed; obs }

(* An open tool, as a traced program sees it. *)
type harness = {
  sink : int -> Sink.t;  (* thread [i]'s instrumentation sink *)
  section : int -> unit;  (* thread [i] ends a trace section *)
  drain : unit -> unit;  (* block until every section sent so far is checked *)
  close : unit -> unit;  (* send, drain and tear down; warns on an unexpected FAIL *)
}

let untraced = { sink = (fun _ -> Sink.null); section = ignore; drain = ignore; close = ignore }

let open_tool ?(pm_size = 32 * 1024 * 1024) ~label = function
  | Base -> untraced
  | Track_only ->
    (* Single-threaded, like Pmemcheck: only the micro cells run it. *)
    let b = Builder.create () in
    { untraced with sink = (fun _ -> Builder.sink b); section = (fun _ -> ignore (Builder.take b)) }
  | Pmemcheck ->
    let pc = Pmemcheck.create ~size:pm_size in
    let result = lazy (ignore (Pmemcheck.result pc)) in
    {
      untraced with
      sink = (fun _ -> Pmemcheck.sink pc);
      drain = (fun () -> Lazy.force result);
      close = (fun () -> Lazy.force result);
    }
  | Pmtest { workers; packed; obs } ->
    let obs = if obs then Pmtest_obs.Obs.create () else Pmtest_obs.Obs.disabled in
    let s = Pmtest.init ~workers ~packed ~obs () in
    {
      sink =
        (fun i ->
          Pmtest.thread_init s ~thread:i;
          Pmtest.sink ~thread:i s);
      section = (fun i -> Pmtest.send_trace ~thread:i s);
      drain = (fun () -> ignore (Pmtest.get_result s));
      close =
        (fun () ->
          let report = Pmtest.finish s in
          if Report.has_fail report then
            Fmt.epr "WARNING: unexpected FAIL in %s: %a@." label Report.pp report);
    }

(* --- Microbenchmark structures (Fig. 10) --------------------------------------- *)

type micro = {
  m_name : string;
  (* Build in a fresh pool; returns the one-insert function. *)
  m_build : Pool.t -> key:int64 -> value:bytes -> unit;
  (* Transactional structures get the TX checkers; hashmap_atomic carries
     its own low-level checkers. *)
  m_tx : bool;
}

let micro ?(tx = true) m_name m_build = { m_name; m_build; m_tx = tx }

let micros =
  [
    micro "C-Tree" (fun pool -> Ctree_map.insert (Ctree_map.create pool));
    micro "B-Tree" (fun pool -> Btree_map.insert (Btree_map.create pool));
    micro "RB-Tree" (fun pool -> Rbtree_map.insert (Rbtree_map.create pool));
    micro "HashMap(w/ TX)" (fun pool -> Hashmap_tx.insert (Hashmap_tx.create ~buckets:4096 pool));
    micro ~tx:false "HashMap(w/o TX)" (fun pool ->
        let m = Hashmap_atomic.create ~buckets:4096 pool in
        fun ~key ~value -> ignore (Hashmap_atomic.insert m ~key ~value));
  ]

(* The fig10a subset [obs] and [perf] time end to end. *)
let micro_subset = List.filter (fun m -> List.mem m.m_name [ "C-Tree"; "HashMap(w/ TX)" ]) micros

(* A recorded trace section of [n] TX-checked 64 B C-Tree inserts. *)
let ctree_section n =
  let b = Builder.create () in
  let pool = Pool.create ~size:(1 lsl 22) ~sink:(Builder.sink b) () in
  let m = Ctree_map.create pool in
  for i = 0 to n - 1 do
    Pool.tx_checker_start pool;
    Ctree_map.insert m ~key:(Int64.of_int i) ~value:(Bytes.make 64 'x');
    Pool.tx_checker_end pool
  done;
  Builder.take b

let cells micros sizes f = List.iter (fun micro -> List.iter (f micro) sizes) micros

let tx_sizes = [ 64; 128; 256; 512; 1024; 2048; 4096 ]

(* One microbenchmark cell: [n] insertions of [size]-byte values, one
   trace section per insertion. Setup (pool and tool) happens outside the
   timed region: the measurement covers the insert loop plus the tool's
   finalization, as the paper's normalized execution times do. *)
let micro_loop micro pool ~size ~n ~per_insert =
  let insert = micro.m_build pool in
  let rng = Rng.create (size + n) in
  let payload = Bytes.make size 'p' in
  for i = 0 to n - 1 do
    let key = Int64.of_int (Rng.int rng (2 * n)) in
    if micro.m_tx then begin
      Pool.tx_checker_start pool;
      insert ~key ~value:payload;
      Pool.tx_checker_end pool
    end
    else insert ~key ~value:payload;
    per_insert i
  done

let micro_time tool micro ~size ~n =
  let pm_size = pool_size_for ~size ~n in
  best
    (samples
       ~setup:(fun () ->
         let h = open_tool ~pm_size ~label:micro.m_name tool in
         (h, Pool.create ~size:pm_size ~sink:(h.sink 0) ()))
       ~teardown:(fun h -> h.close ())
       (fun (h, pool) ->
         micro_loop micro pool ~size ~n ~per_insert:(fun _ -> h.section 0);
         h.drain ();
         h))

(* --- Figure 10a ----------------------------------------------------------------- *)

let fig10a () =
  let n = !insertions in
  Fmt.pr "@.### Figure 10a — microbenchmark slowdown vs. Pmemcheck (%d insertions/cell)@.@." n;
  Fmt.pr "%-16s %8s %12s %10s %12s@." "structure" "tx(B)" "base(ms)" "PMTest(x)" "Pmemcheck(x)";
  let pmtest_ratios = ref [] and pmemcheck_ratios = ref [] in
  cells micros tx_sizes (fun micro size ->
      let t_base = micro_time Base micro ~size ~n in
      let t_pmtest = micro_time (pmtest 1) micro ~size ~n in
      let t_pc = micro_time Pmemcheck micro ~size ~n in
      let r_pm = ratio t_pmtest t_base and r_pc = ratio t_pc t_base in
      pmtest_ratios := r_pm :: !pmtest_ratios;
      pmemcheck_ratios := r_pc :: !pmemcheck_ratios;
      Fmt.pr "%-16s %8d %12.2f %10.2f %12.2f@." micro.m_name size (t_base *. 1e3) r_pm r_pc);
  let geo l = Stats.geomean (Array.of_list l) in
  let avg_pm = geo !pmtest_ratios and avg_pc = geo !pmemcheck_ratios in
  Fmt.pr "@.geomean slowdown: PMTest %.2fx, Pmemcheck %.2fx — Pmemcheck/PMTest = %.1fx@." avg_pm
    avg_pc (avg_pc /. avg_pm);
  Fmt.pr "(paper: PMTest 5.2-8.9x faster than Pmemcheck, 7.1x on average;@.";
  Fmt.pr " PMTest overhead falls as the transaction size grows)@."

(* --- Figure 10b ----------------------------------------------------------------- *)

let fig10b () =
  let n = !insertions in
  Fmt.pr "@.### Figure 10b — PMTest overhead breakdown (%d insertions/cell)@.@." n;
  Fmt.pr "%-16s %8s %12s %12s %12s@." "structure" "tx(B)" "overhead(x)" "framework%" "checker%";
  (* Total = the normal decoupled runtime (checking overlaps execution on
     a worker thread, as in the paper); framework = trace production only;
     checker = the residual the decoupled checking still adds. *)
  let checker_shares = ref [] in
  cells micros [ 64; 512; 4096 ] (fun micro size ->
      let t_base = micro_time Base micro ~size ~n in
      let t_track = micro_time Track_only micro ~size ~n in
      let t_full = micro_time (pmtest 1) micro ~size ~n in
      let overhead = max 1e-9 (t_full -. t_base) in
      let framework = min overhead (max 0.0 (t_track -. t_base)) in
      let checker = max 0.0 (overhead -. framework) in
      let fr_pct = 100.0 *. framework /. overhead in
      let ch_pct = 100.0 *. checker /. overhead in
      checker_shares := ch_pct :: !checker_shares;
      Fmt.pr "%-16s %8d %12.2f %11.1f%% %11.1f%%@." micro.m_name size (ratio t_full t_base) fr_pct
        ch_pct);
  Fmt.pr "@.mean checker share of total overhead: %.1f%%@."
    (Stats.mean (Array.of_list !checker_shares));
  Fmt.pr
    "(paper: decoupled checking contributes 18.9%%-37.8%% of the overhead; our simulated@.";
  Fmt.pr
    " baseline is lighter than a real PM program, so checking weighs relatively more)@."

(* --- Figure 11 ------------------------------------------------------------------ *)

let memslap ~ops ~keys rng = Clients.memslap ~ops ~keys rng
let ycsb ~ops ~keys rng = Clients.ycsb ~ops ~keys rng

(* One client per server thread, each issuing a fixed op count — as the
   paper's Table 4 clients do — so total work (and trace volume) grows
   with the thread count. *)
let memcached_workload ?(threads = 2) ?ops_per_client ~client ~tool () =
  let ops_per_client =
    match ops_per_client with Some n -> n | None -> !kv_ops / threads
  in
  let h = open_tool ~label:"Memcached" tool in
  let mc = Memcached.create ~shards:threads ~sink_of:h.sink () in
  let streams = Memcached.generate_streams ~client ~ops_per_client ~keys:4096 ~seed:11 mc in
  Memcached.run mc ~on_section:h.section ~streams;
  h.close ()

let redis_workload ~tool () =
  let ops = Clients.redis_lru ~ops:!kv_ops ~keys:16384 (Rng.create 12) in
  let h = open_tool ~label:"Redis" tool in
  let r = Redis.create ~annotate:(tool <> Base) ~sink:(h.sink 0) () in
  Array.iteri
    (fun i op ->
      Redis.apply r op;
      if i mod 16 = 0 then h.section 0)
    ops;
  h.section 0;
  h.close ()

let pmfs_workload ~client ~tool () =
  let h = open_tool ~label:"PMFS" tool in
  let fs = Fs.mkfs ~inodes:256 ~blocks:4096 ~sink:(h.sink 0) () in
  Pmfs_app.run ~on_section:(fun () -> h.section 0) fs (client (Rng.create 13));
  h.close ()

let fig11 () =
  Fmt.pr "@.### Figure 11 — real-workload slowdown under PMTest (%d ops)@.@." !kv_ops;
  Fmt.pr "%-24s %12s %12s@." "workload" "base(ms)" "PMTest(x)";
  let fs_ops = max 200 (!kv_ops / 4) in
  let rows =
    [
      ("Memcached+Memslap", fun tool -> memcached_workload ~client:memslap ~tool ());
      ("Memcached+YCSB", fun tool -> memcached_workload ~client:ycsb ~tool ());
      ("Redis+LRU", fun tool -> redis_workload ~tool ());
      ( "PMFS+OLTP",
        fun tool ->
          pmfs_workload
            ~client:(fun rng -> Clients.oltp ~ops:fs_ops ~tables:8 ~rows_per_table:128 rng)
            ~tool () );
      ( "PMFS+Filebench",
        fun tool ->
          pmfs_workload ~client:(fun rng -> Clients.filebench ~ops:fs_ops ~files:64 rng) ~tool ()
      );
      ( "Vacation (extra)",
        fun tool ->
          (* Beyond the paper's Table 4: WHISPER's vacation, multi-table
             transactions on PMDK. *)
          let h = open_tool ~label:"Vacation" tool in
          let v = Vacation.create ~resources:64 ~sink:(h.sink 0) () in
          Vacation.run v ~on_section:(fun () -> h.section 0)
            (Vacation.client ~ops:(!kv_ops / 4) ~customers:256 ~resources:64 (Rng.create 14));
          h.close () );
    ]
  in
  let ratios =
    List.map
      (fun (name, run) ->
        let t_base = time (fun () -> run Base) in
        let t_pm = time (fun () -> run (pmtest 1)) in
        let r = ratio t_pm t_base in
        Fmt.pr "%-24s %12.2f %12.2f@." name (t_base *. 1e3) r;
        r)
      rows
  in
  Fmt.pr "%-24s %12s %12.2f@." "Average" "" (Stats.geomean (Array.of_list ratios));
  (* Redis is PMDK-based, so the paper also tests it under Pmemcheck. *)
  let t_base = time (fun () -> redis_workload ~tool:Base ()) in
  let t_pc = time (fun () -> redis_workload ~tool:Pmemcheck ()) in
  let t_pm = time (fun () -> redis_workload ~tool:(pmtest 1) ()) in
  Fmt.pr "@.Redis under Pmemcheck: %.2fx (vs %.2fx under PMTest; Pmemcheck/PMTest = %.1fx)@."
    (ratio t_pc t_base) (ratio t_pm t_base) (ratio t_pc t_pm);
  Fmt.pr "(paper: PMTest 1.33-1.98x, avg 1.69x; Redis+Pmemcheck 22.3x, 13.6x slower than PMTest)@."

(* --- Figure 12 ------------------------------------------------------------------ *)

let fig12_cell ~threads ~workers ~client =
  let run tool = memcached_workload ~threads ~ops_per_client:!kv_ops ~client ~tool () in
  ratio (time (fun () -> run (pmtest workers))) (time (fun () -> run Base))

let fig12 variant () =
  let cells =
    match variant with
    | `A -> List.map (fun t -> (t, 1)) [ 1; 2; 4 ]
    | `B -> List.map (fun w -> (4, w)) [ 1; 2; 4 ]
    | `C -> List.map (fun n -> (n, n)) [ 1; 2; 4 ]
  in
  let label =
    match variant with
    | `A -> "(a) vs. #Memcached threads, 1 PMTest worker"
    | `B -> "(b) vs. #PMTest workers, 4 Memcached threads"
    | `C -> "(c) #threads = #workers"
  in
  Fmt.pr "@.### Figure 12%s (%d ops)@.@." label !kv_ops;
  Fmt.pr "%-10s %-10s %12s %12s@." "threads" "workers" "Memslap(x)" "YCSB(x)";
  List.iter
    (fun (threads, workers) ->
      let a = fig12_cell ~threads ~workers ~client:memslap in
      let b = fig12_cell ~threads ~workers ~client:ycsb in
      Fmt.pr "%-10d %-10d %12.2f %12.2f@." threads workers a b)
    cells;
  (match variant with
  | `A -> Fmt.pr "(paper: slowdown grows with thread count at a single worker)@."
  | `B -> Fmt.pr "(paper: slowdown falls as workers are added)@."
  | `C -> Fmt.pr "(paper: roughly flat, rising slightly from cross-thread communication)@.");
  Fmt.pr
    "(caveat: OCaml 5's stop-the-world minor GC charges every extra domain to the@.";
  Fmt.pr
    " producer, which skews these wall-clock ratios — see the worker-scaling table)@.";
  if variant = `B then begin
    (* The paper's underlying claim, isolated from the GC effect: more
       workers drain a fixed backlog of recorded trace sections faster. *)
    let sections = ref [] in
    let builders = Array.init 4 (fun i -> Builder.create ~thread:i ()) in
    let mc =
      Memcached.create ~shards:4 ~sink_of:(fun i -> Builder.sink builders.(i)) ()
    in
    let streams =
      Memcached.generate_streams ~client:ycsb ~ops_per_client:!kv_ops ~keys:4096
        ~seed:17 mc
    in
    Memcached.run mc ~section_every:256
      ~on_section:(fun shard ->
        let sec = Builder.take builders.(shard) in
        if Array.length sec > 0 then sections := sec :: !sections)
      ~streams;
    let sections = Array.of_list !sections in
    Fmt.pr "@.offline checking throughput over %d recorded sections (YCSB, 4 clients):@."
      (Array.length sections);
    Fmt.pr "%-10s %14s %10s@." "workers" "drain time(s)" "speedup";
    let t1 = ref nan in
    List.iter
      (fun w ->
        let t =
          time (fun () ->
              let rt = Pmtest_core.Runtime.create ~workers:w () in
              Array.iter (Pmtest_core.Runtime.send_trace rt) sections;
              ignore (Pmtest_core.Runtime.shutdown rt))
        in
        if w = 1 then t1 := t;
        Fmt.pr "%-10d %14.3f %9.2fx@." w t (!t1 /. t))
      [ 1; 2; 4 ];
    Fmt.pr
      "(the paper's drain time falls with workers; OCaml 5.1's multi-domain allocation@.";
    Fmt.pr
      " behaviour inverts the scaling here — a substrate limitation recorded in@.";
    Fmt.pr " EXPERIMENTS.md, not a property of the checking algorithm)@."
  end

(* --- Table 1 --------------------------------------------------------------------- *)

let table1 () =
  Fmt.pr "@.### Table 1 — tools for testing crash-consistent software@.@.";
  Fmt.pr "%-22s %-8s %-12s %-18s %-8s@." "Tool" "Speed" "Flexibility" "Target software"
    "Kernel?";
  Fmt.pr "%-22s %-8s %-12s %-18s %-8s@." "Yat" "Low" "Low" "PMFS" "Yes";
  Fmt.pr "%-22s %-8s %-12s %-18s %-8s@." "Pmemcheck" "Medium" "Low" "PMDK" "No";
  Fmt.pr "%-22s %-8s %-12s %-18s %-8s@." "PMTest (this work)" "High" "High" "Any CCS" "Yes";
  Fmt.pr "@.(the yat and fig10a/fig11 targets quantify the Speed column;@.";
  Fmt.pr " the hops_model example and the PMFS/Mnemosyne/PMDK integrations the Flexibility one)@."

(* --- Tables 5 and 6 ---------------------------------------------------------------- *)

let table5 () =
  Fmt.pr "@.### Table 5 — synthetic bug detection@.@.";
  let t0 = now_ns () in
  let total = ref 0 and detected = ref 0 and false_pos = ref 0 in
  List.iter
    (fun (cat, cases) ->
      let det = ref 0 in
      List.iter
        (fun c ->
          let o = Case.execute c in
          incr total;
          if o.Case.detected then begin
            incr detected;
            incr det
          end;
          if not o.Case.clean then incr false_pos)
        cases;
      Fmt.pr "%-28s %2d/%2d detected@." (Case.category_name cat) !det (List.length cases))
    (Catalog.by_category Catalog.synthetic);
  let dt = seconds_since t0 in
  Fmt.pr "@.total: %d/%d detected, %d false positives (%.2fs for the whole suite)@." !detected
    !total !false_pos dt;
  Fmt.pr "(paper: all synthetic bugs reported; checkers: 2 TX pairs for transactional code,@.";
  Fmt.pr " 12 isPersist + 6 isOrderedBefore for the low-level benchmark)@."

let table6 () =
  Fmt.pr "@.### Table 6 — known and new real bugs@.@.";
  Fmt.pr "%-14s %-28s %-10s %s@." "id" "origin" "verdict" "description";
  List.iter
    (fun case ->
      let o = Case.execute case in
      let origin =
        match case.Case.provenance with
        | Case.Synthetic -> "synthetic"
        | Case.Reproduced s -> "known: " ^ s
        | Case.New_bug s -> "new: " ^ s
      in
      Fmt.pr "%-14s %-28s %-10s %s@." case.Case.id origin
        (if o.Case.detected then "detected" else "MISSED")
        case.Case.description)
    Catalog.table6

(* --- Yat comparison (§2.2) ----------------------------------------------------------- *)

let yat_bench () =
  Fmt.pr "@.### Yat exhaustive search vs. PMTest interval deduction (§2.2)@.@.";
  Fmt.pr "%-12s %16s %14s %14s@." "#writes" "Yat states" "Yat time(s)" "PMTest time(s)";
  List.iter
    (fun n ->
      (* n unordered writes to distinct lines, then one flush+fence. *)
      let ops =
        List.concat
          [
            List.init n (fun i -> Event.make (Event.Op (Model.Write { addr = i * 64; size = 8 })));
            List.init n (fun i -> Event.make (Event.Op (Model.Clwb { addr = i * 64; size = 8 })));
            [ Event.make (Event.Op Model.Sfence) ];
            List.init n (fun i ->
                Event.make (Event.Checker (Event.Is_persist { addr = i * 64; size = 8 })));
          ]
      in
      let trace = Array.of_list ops in
      let states = Yat.estimated_states ~size:(n * 64) trace in
      let t_yat =
        time ~runs:1 (fun () ->
            ignore
              (Yat.run ~limit_per_point:2_000_000 ~size:(n * 64) ~check:(fun _ -> true) trace))
      in
      let t_pmtest = time ~runs:1 (fun () -> ignore (Engine.check trace)) in
      Fmt.pr "%-12d %16.0f %14.4f %14.6f@." n states t_yat t_pmtest)
    [ 2; 4; 6; 8; 10; 12; 14; 16 ];
  Fmt.pr "@.(Yat's crash-state space doubles per unordered write — the paper quotes >5 years@.";
  Fmt.pr " for a 100k-op PMFS trace; PMTest's single pass stays linear in the trace)@."

(* --- Ablation: interval-map shadow vs naive list shadow ------------------------------- *)

let ablation () =
  Fmt.pr "@.### Ablation — interval-map shadow memory vs naive list shadow@.@.";
  Fmt.pr "(same verdicts — the differential property test proves it; this measures@.";
  Fmt.pr " why the engine uses an interval map with lazy closing, paper section 4.4)@.@.";
  Fmt.pr "%-12s %16s %16s %10s@." "trace ops" "interval-map(s)" "naive-list(s)" "ratio";
  List.iter
    (fun n ->
      (* A trace with many live ranges: n writes to distinct addresses,
         periodic flushes and fences, interleaved checkers. *)
      let entries =
        List.concat
          (List.init n (fun i ->
               let addr = i * 16 mod 65536 in
               [
                 Event.make (Event.Op (Model.Write { addr; size = 8 }));
                 Event.make (Event.Op (Model.Clwb { addr; size = 8 }));
               ]
               @ (if i mod 8 = 7 then [ Event.make (Event.Op Model.Sfence) ] else [])
               @
               if i mod 16 = 15 then
                 [ Event.make (Event.Checker (Event.Is_persist { addr; size = 8 })) ]
               else []))
      in
      let trace = Array.of_list entries in
      let t_fast = time (fun () -> ignore (Engine.check trace)) in
      let t_naive = time (fun () -> ignore (Pmtest_baseline.Naive_engine.check trace)) in
      Fmt.pr "%-12d %16.4f %16.4f %9.1fx@." n t_fast t_naive (ratio t_naive t_fast))
    [ 256; 1024; 4096; 16384 ];
  Fmt.pr "@.(the list shadow is O(n) per operation and sweeps everything at each fence:@.";
  Fmt.pr " quadratic blow-up on exactly the long traces PMTest targets)@."

(* --- Static lint throughput ----------------------------------------------------------- *)

let lint_bench () =
  Fmt.pr "@.### Static lint throughput vs. the dynamic engine@.@.";
  Fmt.pr "(both are single passes over the same recorded trace; the lint carries no@.";
  Fmt.pr " checkers, so its cost bounds what checker-free triage of a trace costs)@.@.";
  let record ops =
    let builder = Builder.create () in
    let r = Redis.create ~sink:(Builder.sink builder) () in
    Redis.run r (Clients.redis_lru ~ops ~keys:16384 (Rng.create 21));
    Builder.take builder
  in
  Fmt.pr "%-12s %10s %14s %14s %16s %16s@." "redis ops" "entries" "engine(s)" "lint(s)"
    "engine(ev/s)" "lint(ev/s)";
  List.iter
    (fun ops ->
      let trace = record ops in
      let stripped = Pmtest_lint.Lint.strip_checkers trace in
      let n = float_of_int (Array.length trace) in
      let t_engine = time (fun () -> ignore (Engine.check trace)) in
      let t_lint = time (fun () -> ignore (Pmtest_lint.Lint.run stripped)) in
      Fmt.pr "%-12d %10d %14.4f %14.4f %16.0f %16.0f@." ops (Array.length trace) t_engine
        t_lint (n /. t_engine) (n /. t_lint))
    [ 1_000; 4_000; 16_000 ];
  Fmt.pr "@.(the lint tracks one extra flush record per live store but skips checker@.";
  Fmt.pr " evaluation and persist-interval queries; throughputs land in the same order@.";
  Fmt.pr " of magnitude, keeping lint cheap enough to run on every recorded trace)@."

(* --- Differential fuzzing throughput --------------------------------------------------- *)

let fuzz_bench () =
  let module Campaign = Pmtest_fuzz.Campaign in
  let module Cross = Pmtest_fuzz.Cross in
  Fmt.pr "@.### Differential fuzzing throughput (lib/fuzz)@.@.";
  Fmt.pr "(each program is generated, then replayed through every applicable checker@.";
  Fmt.pr " pair — the rate bounds how many programs a nightly campaign can afford)@.@.";
  Fmt.pr "%-8s %10s %10s %10s %12s %12s@." "model" "programs" "entries" "total(s)" "prog/s"
    "entries/s";
  List.iter
    (fun model ->
      let cfg =
        { (Campaign.default_cfg model) with Campaign.count = 400; seed = 0; shrink = false }
      in
      let stats = ref None in
      let t = time (fun () -> stats := Some (Campaign.run cfg)) in
      match !stats with
      | None -> ()
      | Some s ->
        let name = Model.kind_name model in
        let progs_per_s = float_of_int s.Campaign.programs /. t in
        let entries_per_s = float_of_int s.Campaign.events /. t in
        Fmt.pr "%-8s %10d %10d %10.3f %12.0f %12.0f@." name s.Campaign.programs
          s.Campaign.events t progs_per_s entries_per_s;
        let row = row ~target:"fuzz" in
        count ~target:"fuzz" ~layer:name "programs" s.Campaign.programs;
        count ~target:"fuzz" ~layer:name "entries" s.Campaign.events;
        row ~layer:name ~metric:"progs_per_s" ~unit:"progs/s" ~better:`Higher progs_per_s;
        row ~layer:name ~metric:"entries_per_s" ~unit:"entries/s" ~better:`Higher entries_per_s;
        count ~target:"fuzz" ~layer:name ~better:`Lower "findings"
          (List.length s.Campaign.findings);
        List.iter
          (fun (pair, secs) ->
            let applied = List.assoc pair s.Campaign.applied in
            let layer = name ^ "/" ^ Cross.pair_name pair in
            Fmt.pr "    %-18s applied %6d  %8.3fs@." (Cross.pair_name pair) applied secs;
            count ~target:"fuzz" ~layer "applied" applied;
            row ~layer ~metric:"seconds" ~unit:"s" ~better:`Lower secs)
          s.Campaign.pair_seconds)
    Model.all_kinds;
  Fmt.pr "@.(differential checking dominates generation; the crashtest pair enumerates or@.";
  Fmt.pr " samples the durable images of the final crash point only. The pairs share one@.";
  Fmt.pr " boxed engine pass, one lint and one packed check per program, each charged to@.";
  Fmt.pr " the first pair that reads it: engine/naive pays for the boxed pass)@."

(* --- Observability overhead ------------------------------------------------------------ *)

let obs_bench () =
  let module Obs = Pmtest_obs.Obs in
  Fmt.pr "@.### Observability overhead (lib/obs)@.@.";
  Fmt.pr "(two claims: the disabled path costs nothing — [Sink.observed Obs.disabled]@.";
  Fmt.pr " returns the unwrapped sink — and the enabled path stays within a few percent@.";
  Fmt.pr " on the fig10a pipeline, where per-event counting dominates)@.@.";
  (* Per-event cost of the instrumentation hot path. *)
  let n = 1_000_000 in
  let kind = Event.Op (Model.Write { addr = 0; size = 8 }) in
  let bench_events name sink flush =
    let t =
      time (fun () ->
          for i = 1 to n do
            sink.Sink.emit kind Loc.none;
            if i land 4095 = 0 then flush ()
          done;
          flush ())
    in
    let ns = t *. 1e9 /. float_of_int n in
    Fmt.pr "  %-28s %8.1f ns/event@." name ns;
    ns
  in
  let b1 = Builder.create () in
  let b2 = Builder.create () in
  let b3 = Builder.create () in
  let _ = bench_events "null sink" Sink.null ignore in
  let raw = bench_events "builder" (Builder.sink b1) (fun () -> ignore (Builder.take b1)) in
  let off =
    bench_events "builder, observed (off)"
      (Sink.observed Obs.disabled (Builder.sink b2))
      (fun () -> ignore (Builder.take b2))
  in
  let on =
    bench_events "builder, observed (on)"
      (Sink.observed (Obs.create ()) (Builder.sink b3))
      (fun () -> ignore (Builder.take b3))
  in
  Fmt.pr "@.  event path: disabled %+.1f%%, enabled %+.1f%% vs the raw builder@."
    (100.0 *. (off -. raw) /. raw)
    (100.0 *. (on -. raw) /. raw);
  (* Whole-pipeline overhead on a fig10a subset. *)
  let n = !insertions in
  Fmt.pr "@.%-16s %8s %12s %12s %10s@." "structure" "tx(B)" "obs off(ms)" "obs on(ms)"
    "overhead";
  let ratios = ref [] in
  cells micro_subset [ 64; 512; 4096 ] (fun micro size ->
      let t_off = micro_time (pmtest 1) micro ~size ~n in
      let t_on = micro_time (pmtest ~obs:true 1) micro ~size ~n in
      ratios := ratio t_on t_off :: !ratios;
      Fmt.pr "%-16s %8d %12.2f %12.2f %9.1f%%@." micro.m_name size (t_off *. 1e3) (t_on *. 1e3)
        (100.0 *. (t_on -. t_off) /. t_off));
  Fmt.pr "@.geomean pipeline overhead with observability on: %+.1f%%@."
    (100.0 *. (Stats.geomean (Array.of_list !ratios) -. 1.0));
  Fmt.pr "(target: <= 5%% enabled; disabled is the identical code path, so 0%% by@.";
  Fmt.pr " construction — the transparency property test pins report equality)@."

(* --- Flat-trace fast path (packed vs boxed) -------------------------------------------- *)

module Packed = Pmtest_trace.Packed

let perf () =
  let row = row ~target:"perf" in
  Fmt.pr "@.### perf — flat-trace fast path: packed vs boxed (%d insertions/cell)@.@." !insertions;
  (* 1. Codec: the per-event tracing cost of each representation. *)
  let n_events = 400_000 in
  let kinds =
    [|
      Event.Op (Model.Write { addr = 0x1040; size = 64 });
      Event.Op (Model.Clwb { addr = 0x1040; size = 64 });
      Event.Op Model.Sfence;
    |]
  in
  (* Each representation flushes through its own native take — flushing a
     boxed builder via [take_packed] would re-encode and overstate its
     cost. *)
  let bench_emit name builder flush =
    let t =
      time (fun () ->
          for i = 0 to n_events - 1 do
            Builder.emit builder kinds.(i mod 3) Loc.none
          done;
          flush builder)
    in
    let ns = t *. 1e9 /. float_of_int n_events in
    Fmt.pr "  %-24s %8.1f ns/event  %10.1f Mev/s@." (name ^ " builder") ns (1e3 /. ns);
    row ~layer:("codec/" ^ name) ~metric:"ns_per_event" ~unit:"ns" ~better:`Lower ns;
    ns
  in
  Fmt.pr "codec emit path (%d events):@." n_events;
  let ns_boxed = bench_emit "boxed" (Builder.create ()) (fun b -> ignore (Builder.take b)) in
  let ns_packed =
    bench_emit "packed" (Builder.create ~packed:true ()) (fun b ->
        Packed.free (Builder.take_packed b))
  in
  let codec_speedup = ns_boxed /. ns_packed in
  Fmt.pr "  emit speedup: %.2fx@." codec_speedup;
  row ~layer:"codec" ~metric:"emit_speedup" ~unit:"x" ~better:`Higher codec_speedup;
  (* 2. Engine entry: one pre-recorded section checked from a boxed
     array ([check], mapped by [Packed.set_view]) and from a packed arena
     ([check_packed], decoded by the [Packed.read] cursor).  Both feed one
     dispatcher over one shadow memory, so this isolates decoding and
     may read below 1x. *)
  let section = ctree_section 256 in
  let packed_section = Packed.of_events section in
  let reps = 200 in
  let t_box =
    time (fun () -> for _ = 1 to reps do ignore (Engine.check section) done)
  in
  let t_pak =
    time (fun () -> for _ = 1 to reps do ignore (Engine.check_packed packed_section) done)
  in
  let ev = float_of_int (Array.length section * reps) in
  Fmt.pr "@.engine entry on a %d-entry ctree section (x%d), one dispatcher and shadow:@."
    (Array.length section) reps;
  Fmt.pr "  %-24s %10.0f ev/s@." "boxed array (check)" (ev /. t_box);
  Fmt.pr "  %-24s %10.0f ev/s@." "cursor (check_packed)" (ev /. t_pak);
  let engine_speedup = t_box /. t_pak in
  Fmt.pr "  cursor-over-array decode speedup: %.2fx@." engine_speedup;
  row ~layer:"engine/ctree-section" ~metric:"cursor_dispatch_speedup" ~unit:"x" ~better:`Higher
    engine_speedup;
  (* 3. Fig. 10a subset end to end at workers=0: the whole pipeline with
     checking on the critical path, where representation matters most. *)
  Fmt.pr "@.fig10a subset, workers=0 (trace + check on the critical path):@.@.";
  Fmt.pr "%-16s %8s %12s %12s %12s %10s %12s@." "structure" "tx(B)" "base(ms)" "boxed(ms)"
    "packed(ms)" "run(x)" "overhead(x)";
  let run_speedups = ref [] and overhead_speedups = ref [] in
  cells micro_subset [ 64; 512; 4096 ] (fun micro size ->
      let n = !insertions in
      let t_base = micro_time Base micro ~size ~n in
      let t_boxed = micro_time (pmtest 0) micro ~size ~n in
      let t_packed = micro_time (pmtest ~packed:true 0) micro ~size ~n in
      let run_x = ratio t_boxed t_packed in
      let overhead_x = ratio (max 1e-9 (t_boxed -. t_base)) (max 1e-9 (t_packed -. t_base)) in
      run_speedups := run_x :: !run_speedups;
      overhead_speedups := overhead_x :: !overhead_speedups;
      Fmt.pr "%-16s %8d %12.2f %12.2f %12.2f %10.2f %12.2f@." micro.m_name size (t_base *. 1e3)
        (t_boxed *. 1e3) (t_packed *. 1e3) run_x overhead_x;
      let layer = Printf.sprintf "fig10a/%s/%d" micro.m_name size in
      row ~layer ~metric:"run_speedup" ~unit:"x" ~better:`Higher run_x;
      row ~layer ~metric:"overhead_speedup" ~unit:"x" ~better:`Higher overhead_x);
  let geo l = Stats.geomean (Array.of_list l) in
  let run_geo = geo !run_speedups and overhead_geo = geo !overhead_speedups in
  Fmt.pr "@.geomean: whole-run %.2fx, checking-overhead %.2fx (packed over boxed)@." run_geo
    overhead_geo;
  row ~layer:"fig10a" ~metric:"run_speedup" ~unit:"x" ~better:`Higher run_geo;
  row ~layer:"fig10a" ~metric:"overhead_speedup" ~unit:"x" ~better:`Higher overhead_geo;
  (* 4. Worker scaling: does the packed advantage survive hand-off? *)
  Fmt.pr "@.worker scaling (C-Tree, 512 B values):@.@.";
  Fmt.pr "%-10s %12s %12s %10s@." "workers" "boxed(ms)" "packed(ms)" "speedup";
  let ctree = List.find (fun m -> m.m_name = "C-Tree") micros in
  List.iter
    (fun w ->
      let t_boxed = micro_time (pmtest w) ctree ~size:512 ~n:!insertions in
      let t_packed = micro_time (pmtest ~packed:true w) ctree ~size:512 ~n:!insertions in
      Fmt.pr "%-10d %12.2f %12.2f %9.2fx@." w (t_boxed *. 1e3) (t_packed *. 1e3)
        (ratio t_boxed t_packed);
      row ~layer:(Printf.sprintf "scaling/C-Tree/w%d" w) ~metric:"run_speedup" ~unit:"x"
        ~better:`Higher (ratio t_boxed t_packed))
    [ 0; 2; 4 ];
  Fmt.pr
    "@.(the packed path removes one heap block per traced event; both paths check@.";
  Fmt.pr
    " through one dispatcher and one page-indexed shadow, and test_packed and the@.";
  Fmt.pr " engine/packed fuzz contract pin the arena codec to identical verdicts)@.";
  (* The gate pins the representation-owned metrics (codec emit, engine
     decode): the whole-run numbers are dominated by the shared workload +
     engine cost and swing +-10% with machine noise on small sections, so
     they are reported but not gated. *)
  let rep_geo = sqrt (codec_speedup *. engine_speedup) in
  row ~layer:"gate/representation" ~metric:"geomean_speedup" ~unit:"x" ~better:`Higher rep_geo;
  if !gate && rep_geo < 1.0 then
    fail_gate
      "packed representation slower than boxed (codec %.2fx x decode %.2fx, geomean %.3fx < 1.0)"
      codec_speedup engine_speedup rep_geo

(* --- pmtestd service overhead ----------------------------------------------------------- *)

module Server = Pmtest_server.Server
module Client = Pmtest_client.Client
module Wire = Pmtest_wire.Wire

let serve_bench () =
  Fmt.pr "@.### serve — pmtestd: wire overhead and shard scaling@.@.";
  Fmt.pr "(single client: the framed protocol's cost over the in-process runtime;@.";
  Fmt.pr " scaling: aggregate daemon capacity as sessions spread over shards)@.@.";
  (* One representative trace, chunked as a session would chunk it. *)
  let seed = 23 in
  let entries =
    let builder = Builder.create () in
    let r = Redis.create ~sink:(Builder.sink builder) () in
    Redis.run r (Clients.redis_lru ~ops:!kv_ops ~keys:16384 (Rng.create seed));
    Builder.take builder
  in
  let section_len = 256 in
  let sections =
    let n = Array.length entries in
    List.init
      ((n + section_len - 1) / section_len)
      (fun i -> Array.sub entries (i * section_len) (min section_len (n - (i * section_len))))
  in
  let nsec = List.length sections in
  let cores = Domain.recommended_domain_count () in
  let parallel_capacity = max 1 ((cores - 1) / 2) in
  let shards = if !bench_shards > 0 then !bench_shards else min 4 parallel_capacity in
  let row = row ~target:"serve" in
  List.iter
    (fun (metric, v) -> count ~target:"serve" ~layer:"config" metric v)
    [
      ("shards", shards);
      ("workers_per_shard", 1);
      ("cores", cores);
      ("seed", seed);
      ("section_entries", section_len);
      ("sections_per_client", nsec);
    ];
  let workers = 2 in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmtest-bench-%d.sock" (Unix.getpid ()))
  in
  (* 1. Single client: the per-section cost of the wire.  Each timed
     pass is one complete session — fresh aggregate, stream every
     section, drain, tear down — because that is what one run of a
     program under the tool costs, and because a session's report must
     start empty on both sides for the comparison to be fair.  The
     local baseline goes first, before the daemon exists, so both
     measurements see the same number of live domains (idle worker
     domains still cost stop-the-world GC synchronisation). *)
  let run_local () =
    let rt = Pmtest_core.Runtime.create ~workers () in
    List.iter
      (fun sec -> Pmtest_core.Runtime.send_packed rt (Packed.of_events sec))
      sections;
    ignore (Pmtest_core.Runtime.shutdown rt)
  in
  run_local ();
  (* warm-up *)
  let t_local = time run_local in
  let t =
    Server.start { Server.default_config with Server.socket; workers; max_sessions = 16 }
  in
  let t_remote =
    Fun.protect
      ~finally:(fun () -> Server.stop t)
      (fun () ->
        let run_remote () =
          match Client.connect ~socket () with
          | Error m -> failwith ("bench serve: connect: " ^ m)
          | Ok c ->
            List.iter
              (fun sec ->
                match Client.send_events c sec with
                | Ok () -> ()
                | Error m -> failwith ("bench serve: send: " ^ m))
              sections;
            (match Client.get_result c with
            | Ok _ -> ()
            | Error m -> failwith ("bench serve: get_result: " ^ m));
            Client.close c
        in
        run_remote ();
        (* warm-up: page in the daemon's read/dispatch path *)
        time run_remote)
  in
  let per_sec_us = 1e6 *. (t_remote -. t_local) /. float_of_int nsec in
  Fmt.pr "single client, %d sections of <=%d entries, %d workers, 1 shard:@." nsec section_len
    workers;
  Fmt.pr "  %-24s %10.2f ms@." "in-process" (t_local *. 1e3);
  Fmt.pr "  %-24s %10.2f ms  (%.2fx, %+.1f us/section)@." "over the socket"
    (t_remote *. 1e3) (ratio t_remote t_local) per_sec_us;
  let single metric ~unit v = row ~layer:"single_client" ~metric ~unit ~better:`Lower v in
  single "local_ms" ~unit:"ms" (t_local *. 1e3);
  single "remote_ms" ~unit:"ms" (t_remote *. 1e3);
  single "overhead_ratio" ~unit:"x" (ratio t_remote t_local);
  single "per_section_us" ~unit:"us" per_sec_us;
  (* 2. Shard scaling: a fresh daemon with [--shards] shards (one worker
     domain each), N concurrent sessions each streaming the same
     pre-encoded section frames.  Frames are encoded once, outside the
     timed region, so the measurement is daemon capacity — accept,
     batch decode, dispatch, check, merge — not client-side encoding. *)
  let payloads = List.map (fun sec -> Packed.encode_wire (Packed.of_events sec)) sections in
  let scaling_socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmtest-bench-scale-%d.sock" (Unix.getpid ()))
  in
  let t =
    Server.start
      {
        Server.default_config with
        Server.socket = scaling_socket;
        shards;
        workers = 1;
        max_sessions = 32;
        max_inflight = 256;
      }
  in
  let rates =
    Fun.protect
      ~finally:(fun () -> Server.stop t)
      (fun () ->
        let run_raw_client () =
          let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect fd (ADDR_UNIX scaling_socket);
              let send kind payload =
                match Wire.write_frame fd kind payload with
                | Ok () -> ()
                | Error e -> failwith ("bench serve: " ^ Wire.error_to_string e)
              in
              let r = Wire.reader fd in
              send Wire.Hello (Wire.encode_hello ~model:Model.X86);
              (match Wire.read_one r with
              | Ok (Wire.Hello_ack, _) -> ()
              | Ok (k, _) -> failwith ("bench serve: expected hello_ack, got " ^ Wire.kind_name k)
              | Error e -> failwith ("bench serve: " ^ Wire.error_to_string e));
              List.iter (send Wire.Section) payloads;
              send Wire.Get_result "";
              match Wire.read_one r with
              | Ok (Wire.Report_frame, _) -> ()
              | Ok (k, _) -> failwith ("bench serve: expected report, got " ^ Wire.kind_name k)
              | Error e -> failwith ("bench serve: " ^ Wire.error_to_string e))
        in
        run_raw_client ();
        (* warm-up *)
        Fmt.pr
          "@.shard scaling, %d shard(s) x 1 worker, pre-encoded frames (each session@." shards;
        Fmt.pr " streams all %d sections):@.@." nsec;
        Fmt.pr "%-10s %12s %14s %10s@." "clients" "total(s)" "sections/s" "vs 1";
        let r1 = ref nan in
        List.map
          (fun clients ->
            let t =
              time (fun () ->
                  let threads = List.init clients (fun _ -> Thread.create run_raw_client ()) in
                  List.iter Thread.join threads)
            in
            let rate = float_of_int (clients * nsec) /. t in
            if clients = 1 then r1 := rate;
            Fmt.pr "%-10d %12.3f %14.0f %9.2fx@." clients t rate (rate /. !r1);
            row ~layer:(Printf.sprintf "scaling/%d" clients) ~metric:"sections_per_s"
              ~unit:"sections/s" ~better:`Higher rate;
            (clients, rate))
          [ 1; 4; 8 ])
  in
  let rate_at n = try List.assoc n rates with Not_found -> nan in
  let scaling_8v1 = rate_at 8 /. rate_at 1 in
  (* The gate scales its bar to the machine: a shard can only buy
     throughput if it has cores to run on.  With [c] cores, about
     [(c-1)/2] shards can make progress in parallel (each shard is an
     acceptor/session side plus a checking worker, and the clients
     themselves burn cores), capped by the shard count itself. *)
  let parallel_shards = min shards parallel_capacity in
  let required, mode =
    if parallel_shards >= 4 then (3.0, "full")
    else if parallel_shards >= 2 then (0.75 *. float_of_int parallel_shards, "partial")
    else (0.85, "degraded")
  in
  let passed = scaling_8v1 >= required in
  Fmt.pr "@.8-client vs 1-client aggregate: %.2fx (gate: >= %.2fx, %s mode on %d core(s))@."
    scaling_8v1 required mode cores;
  if mode <> "full" then
    Fmt.pr
      " (too few cores for %d shards to run in parallel — the near-linear bar needs >= %d cores;@.\
      \ this machine's bar only checks that sharding does not regress throughput)@."
      shards ((2 * 4) + 1);
  row ~layer:"summary" ~metric:"scaling_8v1" ~unit:"x" ~better:`Higher scaling_8v1;
  row ~layer:"gate" ~metric:"required" ~unit:"x" ~better:`None required;
  row ~layer:"gate" ~metric:"passed" ~unit:"bool" ~better:`Higher (flag passed);
  row ~layer:"gate" ~metric:"multi_core_pending" ~unit:"bool" ~better:`Lower
    (flag (mode <> "full"));
  note ~target:"serve" ~name:"gate.mode" mode;
  (* The caveat travels with the numbers: a reader of the JSON must be
     able to tell a waived near-linear bar from a met one without knowing
     what machine produced the file. *)
  note ~target:"serve" ~name:"gate.caveat"
    (if mode = "full" then ""
     else
       Printf.sprintf
         "only %d shard(s) can run in parallel on %d core(s); the near-linear 8v1 bar needs >= \
          9 cores, so this gate only checks that sharding does not regress throughput"
         parallel_shards cores);
  if !gate && not passed then
    fail_gate "8-client scaling %.2fx < required %.2fx (%s mode, %d core(s))" scaling_8v1 required
      mode cores

(* --- pmfarm: distributed campaign throughput and recovery ----------------------------- *)

module Farm = Pmtest_farm.Farm

let rec bench_rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = S_DIR; _ } ->
    Array.iter (fun e -> bench_rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let farm_bench () =
  Fmt.pr "@.### farm — pmfarm: distributed campaign throughput and recovery@.@.";
  Fmt.pr "(jobs/s for one fuzz campaign as workers scale; reassignment latency is@.";
  Fmt.pr " the gap between a worker dying job-in-hand and the coordinator landing@.";
  Fmt.pr " the recovered offer on another worker)@.@.";
  let cores = Domain.recommended_domain_count () in
  let tmp = Filename.get_temp_dir_name () in
  let spec = Farm.Spec.fuzz ~max_ops:16 ~model:Model.X86 ~seed:0 ~count:240 ~chunk:12 () in
  let jobs = List.length (Farm.Spec.jobs spec) in
  let fresh_paths tag =
    let dir = Filename.concat tmp (Printf.sprintf "pmtest-farm-bench-%d-%s" (Unix.getpid ()) tag) in
    let socket = dir ^ ".sock" in
    bench_rm_rf dir;
    (dir, socket)
  in
  let start_coordinator cfg =
    let result = ref None in
    let ready = ref false in
    let t =
      Thread.create
        (fun () ->
          result := Some (Farm.Coordinator.run ~ready:(fun () -> ready := true) cfg))
        ()
    in
    while (not !ready) && !result = None do
      Thread.delay 0.002
    done;
    (t, result)
  in
  let finish (t, result) =
    Thread.join t;
    match !result with
    | Some (Ok s) -> s
    | Some (Error e) -> failwith ("bench farm: " ^ e)
    | None -> failwith "bench farm: coordinator died without a result"
  in
  let row = row ~target:"farm" in
  note ~target:"farm" ~name:"campaign" (Farm.Spec.to_string spec);
  count ~target:"farm" ~layer:"config" "jobs" jobs;
  count ~target:"farm" ~layer:"config" "cores" cores;
  (* Throughput: the same campaign, 1 worker then 2, timed from the
     workers' start to the coordinator's result. *)
  Fmt.pr "%-10s %12s %14s %9s@." "workers" "seconds" "jobs_per_s" "vs 1";
  let r1 = ref nan in
  let rates =
    List.map
      (fun workers ->
        let t =
          samples ~runs:1
            ~setup:(fun () ->
              let dir, socket = fresh_paths (Printf.sprintf "w%d" workers) in
              let cfg = Farm.Coordinator.default_cfg ~spec ~socket ~dir in
              (dir, socket, start_coordinator cfg))
            ~teardown:(fun (dir, ws, s) ->
              List.iter Thread.join ws;
              if s.Farm.Coordinator.jobs_done <> jobs then failwith "bench farm: lost jobs";
              bench_rm_rf dir)
            (fun (dir, socket, coord) ->
              let ws =
                List.init workers (fun i ->
                    Thread.create
                      (fun () ->
                        ignore
                          (Farm.Worker.run
                             (Farm.Worker.default_cfg ~socket
                                ~name:(Printf.sprintf "bench-w%d" i))))
                      ())
              in
              (dir, ws, finish coord))
          |> best
        in
        let rate = float_of_int jobs /. t in
        if workers = 1 then r1 := rate;
        Fmt.pr "%-10d %12.3f %14.2f %9.2fx@." workers t rate (rate /. !r1);
        let layer = Printf.sprintf "workers/%d" workers in
        row ~layer ~metric:"seconds" ~unit:"s" ~better:`Lower t;
        row ~layer ~metric:"jobs_per_s" ~unit:"jobs/s" ~better:`Higher rate;
        (workers, rate))
      [ 1; 2 ]
  in
  let rate_at n = try List.assoc n rates with Not_found -> nan in
  let scaling_2v1 = rate_at 2 /. rate_at 1 in
  row ~layer:"summary" ~metric:"scaling_2v1" ~unit:"x" ~better:`Higher scaling_2v1;
  row ~layer:"summary" ~metric:"multi_core_pending" ~unit:"bool" ~better:`Lower
    (flag (cores < 3));
  (* Recovery: a raw victim claims the only job and dies; a raw rescuer,
     already connected and idle, timestamps the reassigned offer. *)
  let spec1 = Farm.Spec.fuzz ~max_ops:8 ~model:Model.X86 ~seed:0 ~count:4 ~chunk:4 () in
  let connect socket =
    let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
    Unix.connect fd (ADDR_UNIX socket);
    (match Wire.write_frame fd Wire.Worker_hello (Wire.encode_worker_hello ~name:"bench") with
    | Ok () -> ()
    | Error e -> failwith ("bench farm: " ^ Wire.error_to_string e));
    let r = Wire.reader fd in
    (match Wire.read_one r with
    | Ok (Wire.Worker_hello, _) -> ()
    | Ok _ | Error _ -> failwith "bench farm: bad handshake");
    (fd, r)
  in
  let read_offer r what =
    match Wire.read_one r with
    | Ok (Wire.Job_offer, payload) -> (
      match Wire.decode_job_offer payload with
      | Ok (job, attempt, lo, hi, _) -> (job, attempt, lo, hi)
      | Error e -> failwith ("bench farm: " ^ Wire.error_to_string e))
    | Ok _ | Error _ -> failwith ("bench farm: expected " ^ what)
  in
  let latencies =
    samples ~runs:5
      ~setup:(fun () ->
        let dir, socket = fresh_paths "reassign" in
        let coord = start_coordinator (Farm.Coordinator.default_cfg ~spec:spec1 ~socket ~dir) in
        let victim, victim_r = connect socket in
        let job, attempt, _, _ = read_offer victim_r "the first offer" in
        ignore (Wire.write_frame victim Wire.Job_claim (Wire.encode_job_claim ~job ~attempt));
        let rescuer, rescuer_r = connect socket in
        (dir, coord, victim, rescuer, rescuer_r))
      ~teardown:(fun (dir, coord, rescuer, (job, attempt, lo, hi)) ->
        (* Finish the campaign honestly so the coordinator tears down. *)
        (match Farm.run_units spec1 ~lo ~hi with
        | Error e -> failwith ("bench farm: " ^ e)
        | Ok r ->
          ignore
            (Wire.write_frame rescuer Wire.Job_result
               (Wire.encode_job_result ~job ~attempt ~digest:r.Farm.digest ~units:r.Farm.units
                  ~elapsed_ms:0 ~findings:r.Farm.findings)));
        let s = finish coord in
        (try Unix.close rescuer with Unix.Unix_error _ -> ());
        if s.Farm.Coordinator.reassigned < 1 then failwith "bench farm: death not reassigned";
        bench_rm_rf dir)
      (* Die job-in-hand; the rescuer's read returns when the coordinator
         has detected the death, requeued the job and re-offered it. *)
      (fun (dir, coord, victim, rescuer, rescuer_r) ->
        Unix.close victim;
        (dir, coord, rescuer, read_offer rescuer_r "the reassigned offer"))
    |> List.map (fun t -> t *. 1e3)
  in
  let best = best latencies in
  let n = List.length latencies in
  let mean = List.fold_left ( +. ) 0.0 latencies /. float_of_int n in
  Fmt.pr "@.reassignment latency: best %.2f ms, mean %.2f ms over %d deaths@." best mean n;
  row ~layer:"reassignment_ms" ~metric:"best" ~unit:"ms" ~better:`Lower best;
  row ~layer:"reassignment_ms" ~metric:"mean" ~unit:"ms" ~better:`Lower mean;
  count ~target:"farm" ~layer:"reassignment_ms" "samples" n;
  if cores < 3 then
    Fmt.pr
      " (2-worker scaling on %d core(s) measures protocol overhead, not parallelism;@.\
      \ re-run on a multi-core host for a real scaling signal)@."
      cores

(* --- Bechamel micro-measurements ------------------------------------------------------ *)

let bechamel () =
  Fmt.pr "@.### Bechamel micro-measurements (one Test per experiment family)@.@.";
  let open Bechamel in
  (* A representative trace section: 32 ctree transactions. *)
  let section = ctree_section 32 in
  let test_fig10_insert =
    Test.make ~name:"fig10a:ctree-insert+pmtest"
      (Staged.stage (fun () ->
           let session = Pmtest.init ~workers:0 () in
           let pool = Pool.create ~size:(1 lsl 22) ~sink:(Pmtest.sink session) () in
           let m = Ctree_map.create pool in
           Pool.tx_checker_start pool;
           Ctree_map.insert m ~key:1L ~value:(Bytes.make 64 'x');
           Pool.tx_checker_end pool;
           Pmtest.send_trace session;
           ignore (Pmtest.finish session)))
  in
  let test_fig10b_engine =
    Test.make ~name:"fig10b:engine-check-section"
      (Staged.stage (fun () -> ignore (Engine.check section)))
  in
  let test_fig11_redis =
    Test.make ~name:"fig11:redis-set+pmtest"
      (let session = Pmtest.init ~workers:0 () in
       let r = Redis.create ~sink:(Pmtest.sink session) () in
       let i = ref 0 in
       Staged.stage (fun () ->
           incr i;
           Redis.set r ~key:(Int64.of_int (!i land 0xfff)) ~value:(Bytes.make 16 'v');
           Pmtest.send_trace session))
  in
  let test_fig12_memcached =
    Test.make ~name:"fig12:memcached-set"
      (let mc = Memcached.create ~shards:1 ~sink_of:(fun _ -> Sink.null) () in
       let i = ref 0 in
       Staged.stage (fun () ->
           incr i;
           Memcached.apply mc ~shard:0 (Clients.Set (Int64.of_int (!i land 0xfff), "vvvv"))))
  in
  let test_table5_case =
    let case = List.hd Catalog.synthetic in
    Test.make ~name:"table5:one-bug-case" (Staged.stage (fun () -> ignore (Case.execute case)))
  in
  let test_yat =
    Test.make ~name:"yat:enumerate-1k-states"
      (Staged.stage (fun () ->
           let m = Pmtest_pmem.Machine.create ~track_versions:true ~size:1024 () in
           for i = 0 to 9 do
             Pmtest_pmem.Machine.store m ~addr:(i * 64) (Bytes.make 8 'z')
           done;
           ignore (Pmtest_pmem.Machine.iter_crash_states ~limit:2048 m ignore)))
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let tests =
    Test.make_grouped ~name:"pmtest"
      [
        test_fig10_insert;
        test_fig10b_engine;
        test_fig11_redis;
        test_fig12_memcached;
        test_table5_case;
        test_yat;
      ]
  in
  let results = Benchmark.all cfg instances tests in
  let ols =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock results
  in
  Fmt.pr "%-40s %16s@." "test" "ns/run (OLS)";
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) ols [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some (est :: _) -> Fmt.pr "%-40s %16.1f@." name est
      | _ -> Fmt.pr "%-40s %16s@." name "n/a")
    (List.sort compare rows)

(* --- Auto-repair throughput ------------------------------------------------------------- *)

module Repair = Pmtest_repair.Repair

let repair_bench () =
  let module Gen = Pmtest_fuzz.Gen in
  Fmt.pr "@.### repair — auto-repair fixpoint throughput and edit mix@.@.";
  Fmt.pr "(every generated program is repaired to a fixed point and the plan proven@.";
  Fmt.pr " with verify_static; the rate bounds what repairing every recorded trace@.";
  Fmt.pr " of a nightly campaign costs)@.@.";
  let progs = max 200 (!kv_ops / 4) in
  let seed0 = 1000 in
  Fmt.pr "%-8s %10s %10s %12s %12s %8s %8s %8s %8s@." "model" "programs" "edits" "prog/s"
    "entries/s" "del-f" "del-wb" "ins-f" "ins-wb";
  let count = count ~target:"repair" in
  List.iter
    (fun model ->
      let programs =
        Array.init progs (fun i ->
            Gen.generate (Gen.default_cfg model) (Rng.create (seed0 + i)))
      in
      let entries =
        Array.fold_left (fun n (p : Gen.program) -> n + Array.length p.Gen.events) 0 programs
      in
      let outcomes = ref [||] in
      let t =
        time (fun () ->
            outcomes :=
              Array.map
                (fun (p : Gen.program) -> Repair.fixpoint ~model:p.Gen.model p.Gen.events)
                programs)
      in
      Array.iteri
        (fun i o ->
          match
            Repair.verify_static ~model:programs.(i).Gen.model
              ~original:programs.(i).Gen.events o
          with
          | [] -> ()
          | problem :: _ ->
            Fmt.epr "WARNING: seed %d failed its proof: %s@." (seed0 + i) problem)
        !outcomes;
      let sum f = Array.fold_left (fun n o -> n + f o) 0 !outcomes in
      let edits = sum Repair.edits_applied in
      let del_fences = sum (fun o -> o.Repair.deleted_fences) in
      let del_flushes = sum (fun o -> o.Repair.deleted_flushes) in
      let ins_fences = sum (fun o -> o.Repair.inserted_fences) in
      let ins_flushes = sum (fun o -> o.Repair.inserted_flushes) in
      let name = Model.kind_name model in
      Fmt.pr "%-8s %10d %10d %12.0f %12.0f %8d %8d %8d %8d@." name progs edits
        (float_of_int progs /. t)
        (float_of_int entries /. t)
        del_fences del_flushes ins_fences ins_flushes;
      let count = count ~layer:name in
      count "programs" progs;
      count "seed_base" seed0;
      row ~target:"repair" ~layer:name ~metric:"progs_per_s" ~unit:"progs/s" ~better:`Higher
        (float_of_int progs /. t);
      row ~target:"repair" ~layer:name ~metric:"entries_per_s" ~unit:"entries/s" ~better:`Higher
        (float_of_int entries /. t);
      count "edits_applied" edits;
      count "fences_deleted" del_fences;
      count "flushes_deleted" del_flushes;
      count "flushes_narrowed" (sum (fun o -> o.Repair.narrowed_flushes));
      count "fences_inserted" ins_fences;
      count "flushes_inserted" ins_flushes;
      count "logs_inserted" (sum (fun o -> o.Repair.inserted_logs)))
    Model.all_kinds;
  (* The two seeded PMFS performance bugs: the repairer must reproduce the
     upstream fixes mechanically. *)
  let record_pmfs fault ops =
    let sink, recorded = Pmtest_trace.Serial.recording_sink () in
    let fs = Fs.mkfs ~inodes:16 ~blocks:64 ~sink () in
    Fs.set_fault fs (Some fault);
    (match ops fs with Ok () -> () | Error e -> failwith ("bench repair: pmfs: " ^ e));
    recorded ()
  in
  let fsync_trace =
    record_pmfs Fs.Fsync_redundant_fence (fun fs ->
        Result.bind (Fs.create fs "wal") (fun ino ->
            Result.bind
              (Fs.write fs ~ino ~off:0 (String.make 192 'a'))
              (fun () ->
                Fs.fsync fs ~ino;
                Fs.fsync fs ~ino;
                Ok ())))
  in
  let empty_tx_trace =
    record_pmfs Fs.Empty_tx_fence (fun fs ->
        Result.bind (Fs.create fs "table") (fun ino ->
            Result.bind
              (Fs.write fs ~ino ~off:0 (String.make 128 'a'))
              (fun () -> Result.map ignore (Fs.write fs ~ino ~off:0 (String.make 128 'b')))))
  in
  let o_fsync = Repair.fixpoint fsync_trace in
  let o_empty = Repair.fixpoint empty_tx_trace in
  Fmt.pr "@.seeded PMFS perf bugs (the repairer reproduces the upstream fixes):@.";
  Fmt.pr "  fsync redundant drain   %d fence(s) deleted (expect 2)@."
    o_fsync.Repair.deleted_fences;
  Fmt.pr "  empty-commit fence      %d fence(s) deleted (expect 1)@."
    o_empty.Repair.deleted_fences;
  count ~layer:"pmfs" "fsync_fences_deleted" o_fsync.Repair.deleted_fences;
  count ~layer:"pmfs" "empty_tx_fences_deleted" o_empty.Repair.deleted_fences

(* --- Litmus-suite throughput ------------------------------------------------------------- *)

let litmus_bench () =
  let module Litmus = Pmtest_litmus.Litmus in
  let module Suite = Pmtest_litmus.Suite in
  Fmt.pr "@.### litmus — axiomatic suite throughput (engine + oracle + crashtest per test)@.@.";
  Fmt.pr "(each test replays its program through three independent implementations and@.";
  Fmt.pr " cross-checks every allowed/forbidden state; the rate bounds how often the@.";
  Fmt.pr " whole-model validation gate can run)@.@.";
  let reps = 20 in
  Fmt.pr "%-8s %8s %10s %12s@." "model" "tests" "total(s)" "tests/s";
  let row = row ~target:"litmus" in
  let rates = ref [] in
  List.iter
    (fun model ->
      let tests = Suite.for_model model in
      let n = List.length tests in
      let t =
        time (fun () ->
            for _ = 1 to reps do
              List.iter
                (fun test ->
                  let o = Litmus.run_test test in
                  if not (Litmus.passed o) then
                    Fmt.epr "WARNING: litmus test %s failed during the bench@."
                      test.Litmus.name)
                tests
            done)
      in
      let rate = float_of_int (n * reps) /. t in
      let name = Model.kind_name model in
      rates := rate :: !rates;
      Fmt.pr "%-8s %8d %10.3f %12.0f@." name n t rate;
      count ~target:"litmus" ~layer:name "tests" n;
      count ~target:"litmus" ~layer:name "reps" reps;
      row ~layer:name ~metric:"tests_per_s" ~unit:"tests/s" ~better:`Higher rate)
    Model.all_kinds;
  let geo = Stats.geomean (Array.of_list !rates) in
  Fmt.pr "@.geomean across models: %.0f tests/s@." geo;
  row ~layer:"summary" ~metric:"geomean_tests_per_s" ~unit:"tests/s" ~better:`Higher geo

(* --- Crash-state exploration throughput -------------------------------------------------- *)

let crashfs_bench () =
  let module Crashfs = Pmtest_crashfs.Crashfs in
  Fmt.pr "@.### crashfs — crash-state exploration throughput (lib/crashfs)@.@.";
  Fmt.pr "(each run drives a seeded syscall workload, enumerates the durable images at@.";
  Fmt.pr " every persist boundary and remounts each distinct one; the pruned ratio is@.";
  Fmt.pr " the fraction of candidate states the epoch/dedup bounding never remounts)@.@.";
  let workloads = max 20 (!kv_ops / 40) in
  Fmt.pr "%-6s %6s %8s %10s %10s %10s %12s %12s %8s@." "fs" "runs" "bounds" "images" "remounts"
    "total(s)" "images/s" "remounts/s" "pruned";
  List.iter
    (fun fs ->
      let config = Crashfs.default_config fs in
      let c = ref None in
      let t = time (fun () -> c := Some (Crashfs.run_campaign config ~count:workloads ~seed:0 ())) in
      match !c with
      | None -> ()
      | Some c ->
        let s = c.Crashfs.total in
        let name = Crashfs.fs_kind_name fs in
        let ratio = Crashfs.pruned_ratio s in
        if c.Crashfs.findings <> [] then
          Fmt.epr "WARNING: %s reported %d finding(s) during the bench@." name
            (List.length c.Crashfs.findings);
        Fmt.pr "%-6s %6d %8d %10d %10d %10.3f %12.0f %12.0f %7.1f%%@." name c.Crashfs.runs
          s.Crashfs.boundaries s.Crashfs.images s.Crashfs.recoveries t
          (float_of_int s.Crashfs.images /. t)
          (float_of_int s.Crashfs.recoveries /. t)
          (100. *. ratio);
        let row = row ~target:"crashfs" ~layer:name in
        let count = count ~target:"crashfs" ~layer:name in
        count "runs" c.Crashfs.runs;
        count "ops" s.Crashfs.ops;
        count "applied" s.Crashfs.applied;
        count "boundaries" s.Crashfs.boundaries;
        count "explored" s.Crashfs.explored;
        count "images" s.Crashfs.images;
        count "recoveries" s.Crashfs.recoveries;
        row ~metric:"avoided" ~unit:"count" ~better:`None s.Crashfs.avoided;
        row ~metric:"pruned_ratio" ~unit:"ratio" ~better:`Higher ratio;
        row ~metric:"images_per_s" ~unit:"images/s" ~better:`Higher
          (float_of_int s.Crashfs.images /. t);
        row ~metric:"recoveries_per_s" ~unit:"recoveries/s" ~better:`Higher
          (float_of_int s.Crashfs.recoveries /. t);
        count ~better:`Lower "findings" (List.length c.Crashfs.findings))
    [ Crashfs.Pmfs; Crashfs.Nova ];
  Fmt.pr "@.(remounting dominates; every remount replays recovery plus the fsck@.";
  Fmt.pr " invariants, so the pruned ratio is the speedup the bounding buys)@."

(* --- Driver ----------------------------------------------------------------------------- *)

let all_targets =
  [
    ("table1", table1);
    ("fig10a", fig10a);
    ("fig10b", fig10b);
    ("fig11", fig11);
    ("fig12a", fig12 `A);
    ("fig12b", fig12 `B);
    ("fig12c", fig12 `C);
    ("table5", table5);
    ("table6", table6);
    ("yat", yat_bench);
    ("ablation", ablation);
    ("lint", lint_bench);
    ("fuzz", fuzz_bench);
    ("crashfs", crashfs_bench);
    ("litmus", litmus_bench);
    ("obs", obs_bench);
    ("perf", perf);
    ("repair", repair_bench);
    ("serve", serve_bench);
    ("farm", farm_bench);
    ("bechamel", bechamel);
  ]

let () =
  let targets = ref [] in
  let rec parse = function
    | [] -> ()
    | "--insertions" :: v :: rest ->
      insertions := int_of_string v;
      parse rest
    | "--ops" :: v :: rest ->
      kv_ops := int_of_string v;
      parse rest
    | "--runs" :: v :: rest ->
      runs := int_of_string v;
      parse rest
    | "--json" :: v :: rest ->
      json_path := Some v;
      parse rest
    | "--gate" :: rest ->
      gate := true;
      parse rest
    | "--shards" :: v :: rest ->
      bench_shards := int_of_string v;
      parse rest
    | "--full" :: rest ->
      insertions := 100_000;
      kv_ops := 100_000;
      parse rest
    | "all" :: rest -> parse rest
    | t :: rest when List.mem_assoc t all_targets ->
      targets := t :: !targets;
      parse rest
    | t :: _ ->
      Fmt.epr "unknown target %S; targets: %s all@." t
        (String.concat " " (List.map fst all_targets));
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    match List.rev !targets with
    | [] -> all_targets
    | ts -> List.map (fun t -> (t, List.assoc t all_targets)) ts
  in
  Fmt.pr "PMTest benchmark harness — %d insertions, %d workload ops, best of %d runs@."
    !insertions !kv_ops !runs;
  List.iter (fun (_, f) -> f ()) selected;
  write_json ()
