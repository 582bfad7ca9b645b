(** Axiomatic litmus tests for the persistency models.

    A litmus test is a tiny straight-line program over a few cache
    lines plus its expected outcomes under one persistency model:

    - {e checker expectations} — the verdict ([pass]/[FAIL]) of each
      embedded [isPersist]/[isOrderedBefore] assertion;
    - {e state expectations} — post-crash memory states that must be
      reachable ({e allowed}) or unreachable ({e forbidden}), either at
      some crash point ({!Any}) or when crashing after the last event
      ({!Final}).

    The runner validates every expectation against three independent
    implementations at once: the checking {e engine} (interval
    deduction), the {e oracle} (exhaustive per-model crash-state
    enumeration) and the {e crashtest} harness (step-wise crash
    injection on the simulated device). A model implementation that
    admits a forbidden state or loses an allowed one fails the test. *)

open Pmtest_model
open Pmtest_trace
module Gen = Pmtest_fuzz.Gen
module Oracle = Pmtest_fuzz.Oracle

type expect = Allowed | Forbidden
type scope = Any | Final

type state_check = {
  expect : expect;
  scope : scope;
  cells : (int * int) list;
      (** [(line, ordinal)] pairs: cache line [line] holds the payload
          of the [ordinal]-th write of the program (1-based, program
          order), or the initial zeroes for ordinal 0. *)
}

type checker_expect = { index : int; pass : bool }

type t = {
  name : string;
  model : Model.kind;
  doc : string;
  events : Event.t array;
  states : state_check list;
  checkers : checker_expect list;
  lines : int;  (** Cache lines of simulated PM the program touches. *)
}

val payload_of_ordinal : int -> char
(** The byte value the [n]-th write stores (the oracle's payload
    convention); ordinal 0 is the zeroed initial content. *)

(** {1 Building tests}

    Programs are written against a builder: [w] appends a line-aligned
    write (returning its 1-based ordinal), [clwb]/[sfence]/[ofence]/
    [dfence]/[gpf] append the corresponding op, [check_*] embed an
    assertion with its expected verdict, and [allowed]/[forbidden]
    record state expectations. *)

type builder

val w : builder -> int -> int
(** [w b line] writes {!Gen.write_size} bytes at the start of [line];
    returns the write's ordinal for use in state expectations. *)

val clwb : builder -> int -> unit
val sfence : builder -> unit
val ofence : builder -> unit
val dfence : builder -> unit
val gpf : builder -> unit
val check_persist : builder -> int -> pass:bool -> unit
val check_ordered : builder -> int -> int -> pass:bool -> unit
val allowed : builder -> (int * int) list -> unit
val forbidden : builder -> (int * int) list -> unit
val allowed_final : builder -> (int * int) list -> unit
val forbidden_final : builder -> (int * int) list -> unit

val make : name:string -> model:Model.kind -> doc:string -> (builder -> unit) -> t
(** Raises [Invalid_argument] if the program uses an op that is invalid
    under [model]. *)

val program_of : t -> Gen.program
val with_events : t -> Event.t array -> t
(** The same expectations over a replacement event array (used by the
    save/load round-trip property). *)

(** {1 Running tests} *)

type failure = { leg : string; message : string }
(** [leg] is ["engine"], ["oracle"] or ["crashtest"]. *)

type outcome = { test : t; failures : failure list }

val passed : outcome -> bool

val run_test : ?sim:(Gen.program -> Oracle.sim) -> t -> outcome
(** Run one test against all three implementations. [sim] substitutes
    the oracle leg's model simulation (fresh per call) — deliberately
    broken simulations must be caught, which is how the harness itself
    is validated. *)

val outcomes_digest : outcome list -> string
(** Hex digest over test names, verdicts and per-leg failure messages,
    in order — the farm coordinator compares it across job attempts
    over the same {!Suite.slice}. *)
