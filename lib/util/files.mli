(** Crash-safe file writes shared by every on-disk save. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents (mode [0o755]). *)

val write_atomic : string -> (out_channel -> unit) -> unit
(** [write_atomic path write] runs [write] on a fresh temp file beside
    [path], then renames it over [path]. A crash mid-write leaves at
    worst a stray [<name>.XXXXXX.tmp] sibling, never a torn [path]. The
    temp name is unique, so concurrent saves of one name never share it.
    If [write] raises, the temp file is removed and the exception
    re-raised. No [fsync]: the rename is atomic, not durable. *)
