(** Trace serialization: record a program's trace to a file and check it
    offline later (or on another machine) — the workflow a kernel module
    uses when its traces are exported through a FIFO (paper §4.5).

    The format is line-oriented text, one entry per line:

    {v
    <kind>\t<thread>\t<file>\t<line>\t<args...>
    v}

    with kinds [w]rite, [f]lush (clwb), [s]fence, [o]fence, [d]fence, [g]pf,
    [cp] (isPersist), [co] (isOrderedBefore), [tb]/[tc]/[ta] (TX begin /
    commit / abort), [tA] (TX_ADD), [ts]/[te] (TX checker start / end),
    [xe]/[xi] (exclude / include), [lo]/[li] (lint off / on). Numeric
    fields are decimal. Tabs in file names are replaced by spaces when
    writing.

    A file is in the {!Pmtest_util.Files} text shape: an optional
    header of [# key: value] lines (a recorded trace carries
    [# model: <name>], the persistency model that judges it; fuzz cases
    add a banner and their metadata, see [Pmtest_fuzz.Repro]), then one
    entry per body line. Blank lines and [#] lines after the header are
    skipped. *)

val entry_to_line : Event.t -> string
val entry_of_line : string -> (Event.t, string) result
(** Fails on an unknown kind, a malformed field, or a range whose size is
    not positive. *)

val lines : Event.t array -> string Seq.t
(** {!entry_to_line} of each entry, in order: a file's body. *)

val entries_of_body : (int * string) list -> (Event.t array, string) result
(** Decode the numbered body lines of a {!Pmtest_util.Files.text}; fails
    with a message naming the first malformed line's number. *)

val save_file : ?header:Pmtest_util.Files.header -> string -> Event.t array -> unit
(** [header] (none by default), then the entries. Atomic: writes to a
    temporary file in the same directory and renames it over [path], so
    a crash mid-write never leaves a half-written trace behind. *)

val load_file : string -> (Event.t array, string) result
(** The entries of a trace file, its header ignored; an unreadable file
    is an [Error] too. *)

val recording_sink : unit -> Sink.t * (unit -> Event.t array)
(** A sink that accumulates everything it sees; the closure returns (and
    keeps) the entries recorded so far. *)
