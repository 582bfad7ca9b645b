(** Random annotated PM programs for differential fuzzing.

    Two program shapes are produced:

    - {e full} programs ({!generate}): weighted mixes of writes,
      writebacks and fences valid under the requested persistency model,
      flat transactions wrapped in checker scopes, exclusion holes,
      [isPersist]/[isOrderedBefore] checker placements and multi-thread
      interleavings — arbitrary addresses and sizes. These feed the
      checker-vs-checker contracts whose ground truth is another tool.
    - {e oracle} programs ({!oracle_program}): straight-line op streams
      over a handful of cache lines, every write line-aligned with a
      fixed size, so each write can be replayed with a distinguishable
      payload and validated against exhaustive crash-state enumeration
      (the Yat model). The oracle property tests reuse these.

    Generation is driven by the repo's deterministic {!Pmtest_util.Rng}:
    the same seed always yields the same program, which is what makes a
    printed failing seed a complete reproducer. *)

open Pmtest_util
open Pmtest_model
open Pmtest_trace

type program = {
  model : Model.kind;
  pm_size : int;  (** Every range in [events] fits in [\[0, pm_size)]. *)
  events : Event.t array;
}

type cfg = {
  model : Model.kind;
  lines : int;  (** Cache lines of simulated PM in play. *)
  min_ops : int;
  max_ops : int;
  tx : bool;  (** Allow flat transaction blocks (wrapped in TX checkers). *)
  exclusions : bool;  (** Allow [Exclude]/[Include] holes. *)
  threads : int;  (** Entries carry thread ids in [\[0, threads)]. *)
  checker_freq : int;  (** Roughly one checker per this many ops; [0] = none. *)
}

val default_cfg : Model.kind -> cfg
(** 8 lines, 4–40 ops, transactions and exclusions on, 2 threads, a
    checker every ~6 ops. *)

val oracle_cfg : Model.kind -> cfg
(** 4 lines, 1–14 ops, straight-line (no tx, no exclusions, 1 thread). *)

val generate : cfg -> Rng.t -> program
(** A full random program. Invariants: every op is valid under
    [cfg.model]; every range lies inside [\[0, pm_size)]; transactions
    are balanced and never nested; [TX_ADD] only appears inside a
    transaction; every event carries a unique location [fuzz:<index>]. *)

val oracle_program : ?with_checkers:bool -> cfg -> Rng.t -> program
(** A straight-line, line-aligned program: writes of {!write_size} bytes
    at line starts, writebacks (x86), fences. With [with_checkers]
    (default [false]), [isPersist] / [isOrderedBefore] checkers over
    whole previously written lines are interspersed. *)

val write_size : int
(** Byte size of every oracle-program write (8). *)

val oracle_eligible : program -> bool
(** Whether the program is in the shape {!Oracle.evaluate} supports:
    no transaction or control entries, and every write/writeback
    line-aligned of {!write_size} bytes. Shrunk oracle programs stay
    eligible, so eligibility is recomputed from the events, not stored. *)

(** {1 Introspection used by contract gating and printing} *)

val has_exclusion : program -> bool
val has_lint_control : program -> bool

val pp_program : Format.formatter -> program -> unit
(** Compact one-line rendering ([w0x40+8;f0x40+8;s;cp0x40+8;…]) for
    QCheck counterexample printing and campaign logs. *)

val program_to_string : program -> string
