(** Pairwise differential contracts between the checkers.

    Each pair is compared only where the tools' documented precision
    contracts overlap; everything else is reported as [Skip] with the
    reason, never silently dropped.

    The contracts share one {!analysis} per program, each field computed
    when a contract first reads it: the boxed report and final shadow
    snapshot (one [Engine.check_with_snapshot]; every contract but serve
    reads the report, pmemcheck and crashtest the snapshot), the lint
    under the default rules (lint, and repair's first round) and the
    packed report (packed). The contracts:

    - {b engine/naive}: identical diagnostic (kind, loc) sequences on
      every trace — {!Pmtest_baseline.Naive_engine} is a semantic twin.
    - {b engine/lint}: the lint documents that [Duplicate_flush] and
      [Unnecessary_flush] reproduce the engine's performance
      diagnostics exactly (same models, same exclusion holes), so those
      counts must match; [Missing_log] counts must match when the trace
      has no exclusion holes and every transaction is inside a TX
      checker scope (the engine only checks logging inside a scope).
      Skipped when lint suppression controls are present.
    - {b engine/pmemcheck}: x86, in-bounds, no exclusions. The byte set
      pmemcheck holds not-yet-durable must equal the bytes of engine
      shadow ranges whose persist interval is still open; [Missing_log]
      (when TX-scoped) and [Duplicate_log] counts must match. Warning
      {e kinds} for writebacks are not compared — the tools classify
      redundant-vs-unnecessary differently by design.
    - {b engine/oracle}: on {!Gen.oracle_eligible} programs with
      exhaustive enumeration, every checker verdict must equal the
      {!Oracle} ground truth (isPersist/isOrderedBefore sound {e and}
      complete).
    - {b engine/crashtest}: not under eADR (the simulated device keeps
      stores volatile). Every durable image [Crashtest.explore] yields
      at the final crash point of the replayed program must contain the
      content of every range the engine claims persisted; earlier
      points carry no claim and are not explored. Exclusion
      holes are covered: the engine's shadow now records writes across
      holes (exclusion gates diagnostics, not history), so no stale
      pre-exclusion claim can outlive the data it described — the
      regression corpus pins the shrunk reproducer of the staleness gap
      this contract once had to skip around.
    - {b engine/packed}: on every trace, checking the packed encoding
      with [Engine.check_packed] must produce a report identical to the
      boxed [Engine.check] — same diagnostic (kind, loc, message)
      sequence and same entry/op/checker counts. Both paths share one
      dispatcher and one shadow, so this pins the arena codec and the
      cursor (location ids included) to the boxed path.
    - {b engine/serve}: on every trace and model, driving the program
      through a fresh session on a shared in-process [pmtestd] daemon
      (sections over the framed wire protocol, exclusion preambles as
      [Prelude] frames) must yield a report identical — diagnostics
      (kind, loc, message) and entry/op/checker counts — to an
      in-process packed session flushing at the same boundaries. This
      pins the whole service stack: wire codecs, per-session
      aggregation callbacks, prelude deduplication. The daemon is
      started lazily on a temp socket and drained at process exit.
    - {b engine/repair}: applies to {e every} program on every model —
      the only pair that never skips. [Repair.fixpoint] must converge
      and [Repair.verify_static] must prove the outcome (the repaired
      trace lints clean for the repairable rules, the plan over it is
      empty, no new engine Fail diagnostics, packed and boxed engines
      agree on it). When both the original and the repaired trace are
      additionally {!Gen.oracle_eligible} with exhaustive enumeration,
      the crash-state differential must also hold: the final volatile
      image is untouched, no reachable crash state is lost, a
      deletion-only repair leaves the reachable set exactly unchanged,
      and the repaired trace ends fully durable on an image that was
      already reachable at the original's final crash point. *)

open Pmtest_trace

type pair =
  | Engine_vs_naive
  | Engine_vs_lint
  | Engine_vs_pmemcheck
  | Engine_vs_oracle
  | Engine_vs_crashtest
  | Engine_vs_packed
  | Engine_vs_serve
  | Engine_vs_repair

type outcome =
  | Agree
  | Disagree of string  (** Human-readable mismatch description. *)
  | Skip of string  (** Why the contract does not apply to this program. *)

val all_pairs : pair list
val pair_name : pair -> string

type analysis

val analyse : Gen.program -> analysis
(** Runs nothing until a contract reads a field. *)

val compare_analysis : pair -> analysis -> outcome
(** {!compare_pair} on the analysed program, whatever read it before. *)

val compare_pair : pair -> Gen.program -> outcome
(** Deterministic: depends only on the program. Analyses it afresh. *)

val run : Gen.program -> (pair * outcome) list
(** Every pair in {!all_pairs} order, over one shared analysis. *)

val disagrees : pair -> Gen.program -> bool
(** [compare_pair] is [Disagree _] — the predicate handed to
    {!Shrink.minimize}, so a shrink step that makes the contract
    inapplicable ([Skip]) does not count as preserving the bug. *)

val tx_scoped : Event.t array -> bool
(** Every [Tx_begin] opens inside a TX checker scope — the precondition
    for comparing [Missing_log] across tools (the engine only enforces
    logging inside a scope). *)
