(** Crash-safe file writes shared by every on-disk save, the [.pmt]
    corpus directories the fuzz and crashfs reproducers live in, and the
    one text shape every such file is written in. *)

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

(** {1 The text-file shape}

    Every [.pmt] file (recorded traces, fuzz and crashfs reproducers),
    every farm triage finding and the farm checkpoint share one shape:

    {v
    # <banner>
    # <key>: <value>
    ...
    <body line>
    ...
    v}

    The {e header} is the block of [#] lines before the first body line.
    Its first line is the {e banner} when it has no colon; every other
    header line is a {e field}, split at its first colon with both sides
    trimmed. A line with no colon is free text: a field whose key is
    [""]. Blank lines, and [#] lines after the first body line, are
    skipped. Each format keeps its own banner, field rules and body
    decoder; this module only splits and joins the shape. *)

type header = { banner : string option; fields : (string * string) list }
(** [fields] in file order; a key may repeat. *)

type text = { header : header; body : (int * string) list }
(** [body] lines in file order, each with its 1-based line number in
    the file, for error messages. *)

val no_header : header

val render : header -> string Seq.t -> string
(** The file text: [# <banner>], then [# <key>: <value>] per field
    ([# <value>] for the key [""]), then each body line, every line
    ending in a newline. A newline inside the banner or a field is
    written as a space. *)

val output_text : out_channel -> header -> string Seq.t -> unit
(** {!render} written straight to a channel. *)

val parse_text : string -> text
(** Never fails. {!render} of its header and body lines gives back [s]
    when [s] ends in a newline and has no blank lines, no [#] lines after the
    first body line, and no spaces around a field's colon or at a header
    line's end. *)

val read_text : string -> (text, string) result
(** {!parse_text} on the file's contents, in one read; a [Sys_error]
    becomes [Error]. *)
