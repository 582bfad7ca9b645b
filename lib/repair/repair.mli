(** pmfix: a dataflow-driven flush/fence auto-repair pass.

    The lint ({!Pmtest_lint.Lint}) {e suggests} structured edits
    ({!Pmtest_lint.Fixit}); this module {e applies} them and proves the
    result. One round consumes a lint pass's findings and turns them
    into a concrete {b repair plan} — index-anchored edits over the
    [Event.t array]:

    - performance repairs delete redundant fences and duplicate or
      unnecessary writebacks (or narrow a writeback to the bytes doing
      useful work);
    - correctness repairs insert the missing writebacks and the single
      merged drain fence for never-persisted stores and
      flush-without-fence holes (appended at the trace end, where the
      lint's end-of-trace sweep reported them), and the missing
      [TX_ADD] undo-log entries for unlogged in-transaction stores
      (inserted immediately before the offending store).

    {!fixpoint} applies plans and re-analyses until the plan is empty.
    {!verify_static} then proves the repair against the dynamic engine:
    the repaired trace lints clean for every repairable rule, the plan
    over it is empty (idempotence), no new Fail-severity engine
    diagnostic appeared, the engine's own writeback warnings did not
    grow (and are gone outright when nothing was suppressed inline),
    and the packed fast path agrees with the boxed engine. The
    crash-state {e oracle} differential (deletions preserve the
    per-model reachable crash-state set, insertions only shrink it)
    lives in {!Pmtest_fuzz.Cross} with the other cross-checker
    contracts. *)

open Pmtest_model
open Pmtest_trace
module Lint := Pmtest_lint.Lint
module Rule := Pmtest_lint.Rule
module Fixit := Pmtest_lint.Fixit
module Obs := Pmtest_obs.Obs

type edit = { index : int; rule : Rule.t; fix : Fixit.t }
(** One edit: [fix] anchored at trace index [index] ([= length] for
    end-of-trace insertions), blamed on [rule]. *)

val repairable_rules : Rule.t list
(** The rules whose findings the planner consumes:
    [redundant-fence], [duplicate-flush], [unnecessary-flush],
    [write-never-flushed], [flush-without-fence], [unlogged-tx-write]. *)

val repairable : Rule.t -> bool

val plan : model:Model.kind -> Event.t array -> Lint.result -> edit list
(** One round's plan from one lint pass. Duplicate edits on the same
    instruction collapse; [Insert_log] ranges are deduplicated within
    each top-level transaction; all flush/fence insertions are merged
    into trailing writebacks plus at most one drain fence. *)

val apply : model:Model.kind -> Event.t array -> edit list -> Event.t array
(** Apply a plan. Inserted events carry ["repair:<n>"] source
    locations; narrowed writebacks keep the original location. *)

type outcome = {
  repaired : Event.t array;
  iterations : int;  (** Lint passes run, including the final clean one. *)
  converged : bool;  (** False when [max_rounds] was hit with a non-empty plan. *)
  edits : (int * edit) list;
      (** [(round, edit)] in application order. Indexes refer to the
          trace version that round's plan was computed over. *)
  deleted_fences : int;
  deleted_flushes : int;
  narrowed_flushes : int;
  inserted_flushes : int;
  inserted_fences : int;
  inserted_logs : int;
}

val edits_applied : outcome -> int

val default_max_rounds : int

val fixpoint :
  ?obs:Obs.t ->
  ?model:Model.kind ->
  ?rules:Rule.set ->
  ?max_rounds:int ->
  ?lint:Lint.result ->
  Event.t array ->
  outcome
(** Iterate plan/apply until the plan is empty (or [max_rounds],
    default {!default_max_rounds}, is hit). With an enabled [obs] the
    repair counters are updated. [lint] stands in for round 1's lint
    pass: the caller guarantees it is [Lint.run] over these same events
    under the same [model] and [rules]. *)

val verify_static :
  ?obs:Obs.t ->
  ?model:Model.kind ->
  ?rules:Rule.set ->
  original:Event.t array ->
  ?original_report:Pmtest_core.Report.t ->
  outcome ->
  string list
(** The engine-side differential proof described above. Returns the
    list of violated obligations — empty means the repair is proven.
    With an enabled [obs] the time spent is counted. [original_report]
    stands in for [Engine.check ~model original], and the caller
    guarantees it is exactly that; the repaired trace is always linted
    and checked afresh. *)

val machine_lines : outcome -> string list
(** One tab-separated line per applied edit:
    [round<TAB>index<TAB>rule<TAB>fixit] with the stable
    {!Fixit.to_string} fixit form. *)

val pp_outcome : Format.formatter -> outcome -> unit

val pp_diff :
  ?context:int -> Format.formatter -> original:Event.t array -> repaired:Event.t array -> unit
(** A unified-style line diff of the serialized traces ([-]/[+] lines,
    [context] unchanged lines around each hunk, elided runs as
    [...]). *)
