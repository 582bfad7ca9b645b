(** Crash-safe file writes shared by every on-disk save, and the [.pmt]
    corpus directories the fuzz and crashfs reproducers live in. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents (mode [0o755]). *)

val write_atomic : string -> (out_channel -> unit) -> unit
(** [write_atomic path write] runs [write] on a fresh temp file beside
    [path], [fsync]s it, renames it over [path] and [fsync]s the
    directory, so a returned save survives a crash. A crash mid-write
    leaves at worst a stray [<name>.XXXXXX.tmp] sibling, never a torn
    [path]. The temp name is unique, so concurrent saves of one name
    never share it. If [write] or the file's [fsync] raises, the temp
    file is removed and the exception re-raised. *)

val corpus_files : string -> string list
(** Paths of the [*.pmt] files in [dir], sorted by name; subdirectories
    are skipped and a missing [dir] has none. Raises [Sys_error] if
    [dir] exists but cannot be listed. *)

val load_corpus : string -> (string -> ('a, string) result) -> ('a list, string) result
(** [load_corpus dir load] loads {!corpus_files} in order and stops at
    the first [Error]; a [Sys_error] from listing or loading becomes an
    [Error] too. A missing [dir] is an empty corpus. *)

val header_field : string -> (string * string) option
(** Split a reproducer header line [key: value] (its [#] prefix already
    removed) into trimmed [(key, value)]; [None] without a colon. *)
