(** Fuzzing campaigns: generate, cross-check, shrink, report.

    A campaign is fully determined by its configuration: program [i]
    is generated from seed [cfg.seed + i], so a finding's printed seed
    plus the model is a complete reproducer ({!program_for_seed}). *)

open Pmtest_model
open Pmtest_trace

type cfg = {
  model : Model.kind;
  count : int;  (** Programs to generate. *)
  seed : int;  (** Base seed; program [i] uses [seed + i]. *)
  gen : Gen.cfg;  (** Full-program generator configuration. *)
  oracle_share : int;
      (** One in this many programs is straight-line oracle-shaped (with
          embedded checkers) so the engine/oracle contract gets dense
          coverage; [0] disables oracle-shaped programs. *)
  shrink : bool;  (** Minimize disagreeing programs (default on). *)
}

val default_cfg : Model.kind -> cfg
(** [count = 1000], [seed = 0], default generator, every 3rd program
    oracle-shaped, shrinking on. *)

type finding = {
  found_seed : int;  (** Pass to {!program_for_seed} to regenerate. *)
  pair : Cross.pair;
  detail : string;
  program : Gen.program;
  shrunk : Event.t array;
}

type stats = {
  programs : int;
  events : int;  (** Total trace entries generated. *)
  applied : (Cross.pair * int) list;
  skipped : (Cross.pair * int) list;
  findings : finding list;
  gen_seconds : float;  (** Monotonic wall time spent generating programs. *)
  pair_seconds : (Cross.pair * float) list;
      (** ... and in each checker pair; each field of a program's
          shared {!Cross.analysis} is charged to the first pair that
          forces it, so the pairs sum to the whole cross-check. *)
}

val program_for_seed : cfg -> int -> Gen.program
(** The program a campaign over [cfg] derives from this absolute seed. *)

val run : ?obs:Pmtest_obs.Obs.t -> ?on_program:(int -> unit) -> cfg -> stats
(** [on_program] is called with each index before it is processed
    (progress reporting). [obs] (default disabled) profiles campaign
    throughput: each program is recorded as one section — generation
    feeds the trace counters, the cross-check pass brackets the check
    span — so [pmtest-cli fuzz --profile] can report programs/s and
    check-latency distribution. *)

val run_range :
  ?obs:Pmtest_obs.Obs.t -> ?on_program:(int -> unit) -> cfg -> lo:int -> hi:int -> stats
(** One campaign chunk: programs for absolute seeds [\[lo, hi)],
    ignoring [cfg.seed]/[cfg.count]. Chunks of one campaign compose:
    running [\[lo, mid)] and [\[mid, hi)] examines exactly the programs
    of [\[lo, hi)]. Raises [Invalid_argument] when [hi < lo]. *)

val digest : stats -> string
(** Hex digest over everything result equality is judged on — counts,
    per-pair outcomes, findings with their shrunk traces — excluding
    wall-clock fields, so re-running the same chunk yields the same
    digest. The farm coordinator compares digests across attempts of
    one job to flag nondeterminism. *)

val pp_stats : Format.formatter -> stats -> unit
