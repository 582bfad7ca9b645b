(** Systematic crash-state exploration for the PM file systems.

    One driver runs a seeded syscall workload ({!Workload}) against a
    live {!Pmtest_pmfs.Fs} or {!Pmtest_nova.Nova} instance on a
    version-tracked {!Pmtest_pmem.Machine}, snapshots the reachable
    durable images at every persist boundary (each [clwb]/fence the file
    system issues), remounts every {e distinct} image and runs recovery
    plus fsck-style invariants ({!Fsck}) and a committed-state oracle
    ({!check_image}): operations completed before the crash must be
    intact, and the one in flight must be atomic (PMFS metadata) or
    absent/whole (NOVA log commits), with PMFS's documented torn-data
    window for the in-flight XIP write.

    The committed state is one immutable map from file name to
    contents, advanced by one pure transition both after a live op
    returns [Ok] and for the op in flight at a crash. What differs per
    file system is a small internal record: mkfs geometry and the seeded
    fault, the op primitives, the file-contents model and how a write
    changes it, the exact and in-flight file checks, and recovery (fsck
    plus mount).

    State-space bounding, in the spirit of the HOPS epoch enumerator in
    [lib/fuzz/oracle.ml]: two boundaries with no intervening store are
    epoch-equivalent (a fence that drained nothing new cannot enlarge
    the reachable image set), so only persist-order-distinct boundaries
    are enumerated, and byte-identical images are deduplicated before
    the (comparatively expensive) remount — the recovered state is a
    pure function of the image. Yat-style enumeration at every store,
    by contrast, is the product over dirty lines of the store versions
    each line could have persisted. Each explored boundary goes through
    {!Pmtest_crashtest.Crashtest.explore}: up to 96 images are
    enumerated, beyond that 12 are sampled. A run stops after four
    failures. *)

type fs_kind = Pmfs | Nova

val fs_kind_name : fs_kind -> string
val fs_kind_of_string : string -> fs_kind option

type config = {
  fs : fs_kind;
  model : Pmtest_model.Model.kind;
      (** Enumeration semantics: [X86] (and [Hops], whose fences drain
          the same way at machine level) enumerate per-dirty-line store
          versions; [Eadr] takes the volatile snapshot (caches are in
          the persistence domain). [Cxl] is rejected — the file systems
          are written against flush/fence primitives; [Gpf]-based
          programs are covered by the crashtest litmus/CXL tests. *)
  max_ops : int;  (** Operations per generated workload. *)
  fault : string option;
      (** The seeded fault, by canonical name ({!fault_names}); [None]
          runs the stock file system. *)
  boundary_filter : (int -> bool) option;
      (** Testing hook: boundaries where this returns [false] are marked
          explored but nothing is enumerated — a deliberately broken
          enumerator for the catch-proof tests. [None] explores all. *)
}

val default_config : fs_kind -> config

val fault_names : fs_kind -> string list
(** Canonical fault switch names accepted by {!with_fault}. *)

val with_fault : config -> string -> (config, string) result
(** Set the seeded fault by canonical name (["none"] clears it). *)

val make_config :
  ?max_ops:int -> ?fault:string -> fs_kind -> Pmtest_model.Model.kind -> (config, string) result
(** {!default_config} under [model], with [max_ops] and the seeded fault
    (by canonical name, as {!with_fault}) when given; [Error] for
    {!Pmtest_model.Model.Cxl}, which {!run_ops} cannot run. Every
    campaign config — CLI, farm job, corpus case — is built here. *)

(** {1 Single-run harness} *)

type failure = {
  op_index : int;  (** Index of the in-flight op; [-1] = live/final check. *)
  boundary : int;  (** Persist boundary at which the image was taken. *)
  message : string;
}

type stats = {
  ops : int;  (** Operations attempted. *)
  applied : int;  (** Operations that returned [Ok]. *)
  boundaries : int;  (** Persist boundaries seen (plus the final one). *)
  explored : int;  (** Boundaries actually enumerated. *)
  images : int;  (** Crash images enumerated (including duplicates). *)
  recoveries : int;  (** Distinct images remounted and checked. *)
  avoided : float;
      (** States skipped by the bounding: epoch-equivalent boundaries
          contribute their class size, duplicate images one each. *)
  failures : failure list;
}

val pruned_ratio : stats -> float
(** [avoided / (avoided + recoveries)] — the fraction of candidate crash
    states that never reached the remount-and-check path. *)

val run_ops : config -> seed:int -> Workload.op array -> stats
(** Run one workload under crash exploration. [seed] drives the sampler
    (and nothing else), so runs are deterministic. Raises
    [Invalid_argument] for a {!Pmtest_model.Model.Cxl} config or a
    [fault] the file system does not have. *)

val check_image :
  config ->
  committed:Workload.op list ->
  pending:Workload.op option ->
  bytes ->
  (unit, string) result
(** The check {!run_ops} makes of every distinct crash image: recover
    the image (fsck plus mount), then compare it with the committed
    state that [committed] leaves (ops that would fail leave it as it
    was), allowing the outcomes of the [pending] op. Only [config.fs]
    is read. *)

val gen_ops : config -> seed:int -> Workload.op array
(** The workload a campaign run with this seed executes. *)

val shrink : config -> seed:int -> Workload.op array -> Workload.op array
(** ddmin the op sequence (plus operand simplification) to a 1-minimal
    sequence that still fails under {!run_ops}, with the fuzzer's
    {!Pmtest_util.Ddmin.pass}. Raises [Invalid_argument] if the input
    survives. *)

(** {1 Campaigns} *)

type finding = {
  f_seed : int;
  f_ops : Workload.op array;
  f_shrunk : Workload.op array;
  f_failure : failure;
}

type campaign = { runs : int; total : stats; findings : finding list }

val run_campaign :
  config -> count:int -> seed:int -> ?progress:(int -> unit) -> unit -> campaign
(** [count] independent runs; run [i] generates its workload from
    [seed + i] and explores with the same seed. Failing runs are shrunk
    (the first four of them). *)

val run_range : config -> lo:int -> hi:int -> ?progress:(int -> unit) -> unit -> campaign
(** One campaign chunk: runs for absolute seeds [\[lo, hi)]. Raises
    [Invalid_argument] when [hi < lo]. Note the cap of four shrunk
    findings applies {e per chunk}, so chunked campaigns may shrink more
    findings than one monolithic run — each chunk is still individually
    deterministic, which is what farm replay verification needs. *)

val campaign_digest : campaign -> string
(** Hex digest over the campaign outcome — run/op/boundary/image counts,
    findings with their shrunk workloads. Every contributing field is a
    pure function of (config, seed range), so re-running a chunk yields
    the same digest; the farm coordinator compares digests across job
    attempts to flag nondeterminism. *)

val pp_summary : Format.formatter -> campaign -> unit

(** {1 Reproducers}

    [.pmt]-style crashfs cases: a [# pmtest-crashfs-case v1] header
    (fs, model, seed, optional fault, expected outcome) followed by one
    serial {!Workload} op per line. Stored under [fuzz/corpus/crashfs/]
    and replayed by the test suite and [pmtest-cli crashfs --corpus]. *)

module Repro : sig
  type case = {
    name : string;
    fs : fs_kind;
    model : Pmtest_model.Model.kind;
    seed : int;
    fault : string option;
    expect_failure : bool;
    ops : Workload.op array;
  }

  val config_of_case : case -> config
  val of_finding : config -> finding -> case
  (** Named [<fs>-<fault or clean>-seed<seed>]; the shrunk ops. *)

  val to_text : case -> string
  val of_text : name:string -> string -> (case, string) result
  val save : dir:string -> case -> string
  (** Atomic write of [dir/<name>.pmt] (creating [dir] if needed);
      returns the path. *)

  val load_dir : string -> (case list, string) result
  (** Every [*.pmt] in the directory, sorted by name; a missing
      directory is an empty corpus. *)

  val replay : case -> (stats, string) result
  (** Re-run and compare the outcome against [expect_failure]. *)
end
