module Report = Pmtest_core.Report
module Event = Pmtest_trace.Event
module Vec = Pmtest_util.Vec

type category = Ordering | Writeback | Perf_writeback | Backup | Completion | Perf_log
type provenance = Synthetic | Reproduced of string | New_bug of string

type runner = ?observer:(Event.t array -> unit) -> unit -> Report.t

type t = {
  id : string;
  category : category;
  provenance : provenance;
  description : string;
  expected : Report.kind;
  run : runner;
  run_clean : runner;
}

let category_name = function
  | Ordering -> "ordering"
  | Writeback -> "writeback"
  | Perf_writeback -> "performance (writeback)"
  | Backup -> "backup"
  | Completion -> "completion"
  | Perf_log -> "performance (log)"

type outcome = { case : t; detected : bool; clean : bool; report : Report.t }

let execute case =
  let report = case.run () in
  let detected = Report.count case.expected report > 0 in
  let clean = Report.is_clean (case.run_clean ()) in
  { case; detected; clean; report }

let record (run : runner) =
  let buf = Vec.create () in
  ignore (run ~observer:(fun section -> Array.iter (Vec.push buf) section) ());
  Vec.to_array buf

let trace case = record case.run
let trace_clean case = record case.run_clean
