(** Diagnostics produced by the checking engine.

    The engine reports [FAIL] for crash-consistency bugs and [WARN] for
    performance bugs, each with the source location of the offending
    checker or operation (paper §4.1). *)

open Pmtest_util

type severity = Warn | Fail

type kind =
  | Not_persisted  (** [isPersist] failed: the range may not be durable. *)
  | Not_ordered  (** [isOrderedBefore] failed: persist intervals overlap. *)
  | Unnecessary_writeback  (** [clwb] of a range with no pending write. *)
  | Duplicate_writeback  (** Second [clwb] of the same pending range. *)
  | Missing_log  (** In-transaction write without a prior [TX_ADD] backup. *)
  | Duplicate_log  (** [TX_ADD] of an already-logged range. *)
  | Incomplete_tx
      (** Transaction updates not durable at [TX_CHECKER_END], or the
          transaction never terminated. *)
  | Invalid_op  (** Operation outside the persistency model's ISA. *)
  | Lint_unflushed_write
      (** Static lint: a store still dirty (no writeback) at end of trace. *)
  | Lint_unfenced_flush
      (** Static lint: a writeback whose fence never arrives. *)
  | Lint_redundant_fence
      (** Static lint: a fence with no writeback pending since the last one. *)
  | Lint_write_after_flush
      (** Static lint: a store to a range with a flushed-but-unfenced
          writeback pending — the torn-update hazard. *)
  | Lint_unmatched_exclude
      (** Static lint: an [Exclude] never re-[Include]d by end of trace. *)

val kind_severity : kind -> severity
(** Performance bugs ({!Unnecessary_writeback}, {!Duplicate_writeback},
    {!Duplicate_log}) and the advisory lint kinds warn; everything else
    fails. *)

type diagnostic = { kind : kind; loc : Loc.t; message : string }

type t = {
  diagnostics : diagnostic list;  (** In trace order. *)
  entries : int;  (** Trace entries examined. *)
  ops : int;  (** PM operations among them. *)
  checkers : int;  (** Checker entries among them. *)
}

val empty : t
val merge : t -> t -> t

val is_clean : t -> bool
val has_fail : t -> bool
val fails : t -> diagnostic list
val warns : t -> diagnostic list
val count : kind -> t -> int
val find : kind -> t -> diagnostic option

val summarize : t -> (kind * Pmtest_util.Loc.t * string * int) list
(** Diagnostics grouped by (kind, location): representative message and
    occurrence count, ordered by decreasing count — how a workload-scale
    report stays readable when one buggy line fires thousands of times. *)

val pp_summary : Format.formatter -> t -> unit
(** Like {!pp} but prints the grouped summary. *)

val severity_string : severity -> string
val kind_string : kind -> string
val pp_diagnostic : Format.formatter -> diagnostic -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
