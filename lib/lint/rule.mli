(** The lint rule registry.

    Every diagnostic the static lint can produce belongs to exactly one
    rule. Rules carry an identifier (used on the command line and in
    inline [LINT_OFF] suppressions), a severity inherited from the
    {!Pmtest_core.Report.kind} they map onto, and a default-enabled
    flag. Rule selection is a bitmask ({!set}), so carrying a
    configuration through the single-pass analysis costs nothing. *)

module Report := Pmtest_core.Report

type t =
  | Write_never_flushed
      (** A store whose bytes are still dirty (no writeback, or no
          [dfence] under HOPS) when the trace ends. *)
  | Flush_without_fence
      (** A writeback that no later fence completes: durability of the
          flushed line is never guaranteed. *)
  | Redundant_fence
      (** An [sfence] with no writeback pending since the previous
          ordering point ([dfence] back-to-back under HOPS). *)
  | Duplicate_flush
      (** A second writeback of a range whose pending write was already
          flushed — maps onto {!Report.Duplicate_writeback}. *)
  | Unnecessary_flush
      (** A writeback covering bytes no store dirtied — maps onto
          {!Report.Unnecessary_writeback}. Under eADR, every writeback. *)
  | Write_after_flush
      (** A store into a range with a flushed-but-unfenced writeback
          pending: the line may persist either value. *)
  | Unlogged_tx_write
      (** An in-transaction store not covered by a prior [TX_ADD] —
          maps onto {!Report.Missing_log}, found without checkers. *)
  | Unbalanced_tx
      (** [TX_BEGIN] without a matching commit/abort by end of trace,
          or a commit with no transaction open. *)
  | Unmatched_exclude
      (** An [EXCLUDE] never re-[INCLUDE]d by end of trace. Disabled by
          default: long-lived exclusions (allocator metadata) are
          routine. *)

val all : t list
(** Every rule, in a fixed order. *)

val id : t -> string
(** Stable kebab-case identifier, e.g. ["write-never-flushed"]. *)

val of_id : string -> t option

val doc : t -> string
(** One-line description for [--rules help] style listings. *)

val report_kind : t -> Report.kind
(** The report kind findings of this rule are filed under; engine kinds
    are reused where the dynamic checker reports the same defect. *)

val severity : t -> Report.severity

val default_enabled : t -> bool
(** All rules except {!Unmatched_exclude}. *)

(** {1 Rule selection} *)

type set

val none : set
val everything : set
val default : set

val mem : set -> t -> bool
val enable : set -> t -> set
val disable : set -> t -> set
val to_list : set -> t list

val of_spec : string -> (set, string) result
(** Parse a comma-separated selection spec. Tokens: [all], [none],
    [default], [+rule] / [rule] (enable), [-rule] (disable). A spec
    that starts with a bare rule name selects only the listed rules;
    one that starts with [+]/[-] modifies the default set. An unknown
    token yields an error that lists every valid rule id. *)

val help : unit -> string
(** One line per rule ([id], {!doc}, default flag) — the body of the
    CLI's [--rules help] listing. *)
