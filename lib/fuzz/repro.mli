(** Reproducers and the on-disk regression corpus.

    Every shrunk counterexample is emitted in two forms: the
    {!Pmtest_trace.Serial} trace (replayable by [pmtest-cli check-trace]
    and by the corpus loader here) and a generated OCaml snippet that
    reconstructs the trace with [Event.make] and runs the engine — ready
    to paste into a unit test.

    A corpus case is a [.pmt] serial file whose leading comment block
    carries the metadata:

    {v
    # pmtest-fuzz-case v1
    # name: hops-ofence-ordering
    # model: hops
    # pm_size: 256
    # check: agree engine/oracle
    # check: flag lint missing-log
    v}

    [check: agree <pair>] asserts the pair's contract applies and agrees
    on replay — a [Skip] is an error, so a stale case that stopped
    exercising its contract fails loudly instead of rotting.
    [check: flag <tool> <kind>] asserts the tool still reports at least
    one diagnostic of the given {!Pmtest_core.Report.kind_string}. *)

module Report := Pmtest_core.Report

type tool = Engine | Naive | Lint | Pmemcheck

type check =
  | Agree of Cross.pair
  | Flag of { tool : tool; kind : Report.kind }

type case = {
  name : string;
  program : Gen.program;
  checks : check list;
  notes : (string * string) list;
      (** Header fields this format does not read, such as free-text
          comments, in file order: written after the case's own, so a
          loaded case writes back unchanged. *)
}

val tool_name : tool -> string
val tool_of_name : string -> tool option
val pair_of_name : string -> Cross.pair option
val kind_of_name : string -> Report.kind option

val serial_text : Gen.program -> string
(** The {!Pmtest_trace.Serial} lines, no metadata header. *)

val ocaml_snippet : Gen.program -> string
(** A standalone OCaml fragment rebuilding the trace and running
    [Engine.check] under the program's model. *)

val tool_report : tool -> Gen.program -> Report.t

val case_text : case -> string
(** The full [.pmt] file text — metadata comment block plus serial
    lines — exactly as {!save} writes it. This is what farm workers ship
    inside [Job_result] frames. *)

val case_digest : case -> string
(** Hex digest of the case's identity: its event array and the model
    those events are judged under. The name (which embeds a
    campaign-specific seed) does not contribute, so the same bug found
    by different campaigns dedupes. *)

val of_finding : Campaign.finding -> case
(** The shrunk program, named [<model>-seed<seed>-<pair>], checking that
    the pair agrees. *)

val save : dir:string -> case -> string
(** Write [dir/<name>.pmt] (creating [dir] if needed); returns the
    path. If a case with the same {!case_digest} already exists in
    [dir], nothing is written and the existing path is returned. *)

val load_file : string -> (case, string) result
val load_dir : string -> (case list, string) result
(** Every [*.pmt] in [dir], sorted by file name; missing directory is an
    empty corpus. *)

val replay : case -> (unit, string) result
(** Run every check; [Error] describes the first failing one. *)
