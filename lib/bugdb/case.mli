(** One entry of the bug-injection suite (paper Table 5 / Table 6).

    A case is a small annotated program with a specific crash-consistency
    or performance bug switched on; running it under a synchronous PMTest
    session yields the report the diagnosis is matched against. *)

module Report = Pmtest_core.Report
module Event = Pmtest_trace.Event

type category =
  | Ordering  (** Missing or misplaced ordering enforcement (low-level). *)
  | Writeback  (** Missing or misplaced writeback (low-level). *)
  | Perf_writeback  (** Redundant writeback (low-level performance). *)
  | Backup  (** Missing or misplaced backup of persistent objects. *)
  | Completion  (** Incomplete transactions. *)
  | Perf_log  (** Redundant undo-log entries (transaction performance). *)

type provenance =
  | Synthetic  (** Injected for the suite (Table 5). *)
  | Reproduced of string  (** Known bug from a commit history (Table 6). *)
  | New_bug of string  (** Bug PMTest found (Table 6). *)

type runner = ?observer:(Event.t array -> unit) -> unit -> Report.t
(** A case program under a PMTest session. [observer] sees every trace
    section the session sends (see {!Pmtest_core.Pmtest.on_section}) —
    how the static lint gets raw op streams out of the catalog. *)

type t = {
  id : string;
  category : category;
  provenance : provenance;
  description : string;
  expected : Report.kind;
  run : runner;  (** The buggy program under a PMTest session. *)
  run_clean : runner;
      (** The same program with the bug switched off — the false-positive
          control. *)
}

val category_name : category -> string

type outcome = {
  case : t;
  detected : bool;  (** Buggy run reports the expected kind. *)
  clean : bool;  (** Bug-free run reports nothing. *)
  report : Report.t;
}

val execute : t -> outcome

val trace : t -> Event.t array
(** Run the buggy program and return the full concatenated trace it
    sent, in section order. *)

val trace_clean : t -> Event.t array
(** Same for the bug-free twin. *)
