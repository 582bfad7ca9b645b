(** A reimplementation of the Pmemcheck cost and checking model — the
    "state of the art" tool PMTest is compared against (paper §2.2, §6.2).

    Pmemcheck is a Valgrind tool: it instruments {e every} store at byte
    granularity and keeps a per-byte state machine
    (dirty → flushed → persisted). That per-byte processing — rather than
    PMTest's per-range interval arithmetic over a trace — is where its
    order-of-magnitude overhead comes from, and we reproduce the cost
    model honestly: each operation loops over the bytes it touches.

    Checks performed (matching the real tool's diagnostics):
    - stores never flushed/fenced by the end of the run ([Not_persisted]);
    - redundant flush of an already-flushed range ([Duplicate_writeback]);
    - flush of bytes that were never stored ([Unnecessary_writeback]);
    - within a transaction, stores to bytes not covered by an undo-log
      entry ([Missing_log]).

    Unlike PMTest it is {e not} programmable: there are no placeable
    checkers and no persistency-model parameter (x86 only), which is the
    flexibility gap Table 1 shows. Checker entries in the trace are
    ignored. *)

open Pmtest_trace
module Report = Pmtest_core.Report

type t

val create : size:int -> t
(** Shadow the PM address range [\[0, size)]. *)

val sink : t -> Sink.t
(** Attach to an instrumented program; processes operations inline (on
    the program's critical path, as binary instrumentation does). *)

val result : t -> Report.t
(** Finalize: sweep the shadow for bytes still not persisted and return
    all diagnostics. *)

val unpersisted_ranges : t -> (int * int) list
(** Maximal runs [(addr, size)] of bytes that are not guaranteed durable
    at this point (still dirty, or flushed with no fence yet) — the byte
    set behind the final {!Report.Not_persisted} sweep, exposed so the
    differential fuzzer can compare it against the engine's
    persist-interval table without parsing messages. *)
