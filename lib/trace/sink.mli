(** Where instrumented programs send their trace entries.

    The simulated CCS substrates (PMDK, Mnemosyne, PMFS, …) are
    instrumented exactly once — every PM operation they execute is also
    reported to a sink. Plugging in different sinks yields the different
    test configurations of the paper's evaluation:

    - the {!null} sink for uninstrumented baseline runs,
    - PMTest's trace builder,
    - the Pmemcheck baseline's per-store state machine. *)

open Pmtest_util

type t = { emit : Event.kind -> Loc.t -> unit }

val null : t
(** Discards everything; its [emit] is a constant-time no-op so the
    "original program" timings are not polluted by tracking cost. *)

val counting : unit -> t * (unit -> int)
(** A sink that just counts entries; returns the sink and a reader. *)

val observed : Pmtest_obs.Obs.t -> t -> t
(** Counts every entry into the collector's events-traced counter before
    forwarding. With a disabled collector this returns the input sink
    itself, so the uninstrumented emit path is completely unchanged. *)

val emit : t -> ?loc:Loc.t -> Event.kind -> unit
val write : t -> ?loc:Loc.t -> addr:int -> size:int -> unit -> unit
val clwb : t -> ?loc:Loc.t -> addr:int -> size:int -> unit -> unit
val sfence : t -> ?loc:Loc.t -> unit -> unit
val ofence : t -> ?loc:Loc.t -> unit -> unit
val dfence : t -> ?loc:Loc.t -> unit -> unit
val gpf : t -> ?loc:Loc.t -> unit -> unit
