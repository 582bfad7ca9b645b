(** Syscall-level workload generation for the PM file systems.

    Seeded, weighted sequences of create/write/unlink/fsync/readdir
    calls over a small name pool, in the style of {!Pmtest_fuzz.Gen}:
    the same seed yields the same operation stream, which makes crashfs
    campaigns and their shrunk reproducers replayable byte-for-byte.

    Operations are file-system neutral: crashfs reads [Write.off] as a
    byte offset (PMFS) or a page offset (NOVA), so one serial format
    covers both file systems. *)

open Pmtest_util

type op =
  | Create of string
  | Write of { name : string; off : int; len : int; fill : char }
      (** Write [len] bytes of [fill] at [off] (PMFS: byte offset into
          the file; NOVA: [off] is the page offset, [len] the in-page
          length). *)
  | Unlink of string
  | Fsync of string
  | Readdir

type cfg = {
  max_ops : int;
  names : string array;  (** Name pool; small so ops collide naturally. *)
  create_w : int;
  write_w : int;
  unlink_w : int;
  fsync_w : int;
  readdir_w : int;
  max_off : int;  (** Exclusive bound on [Write.off]. *)
  max_len : int;  (** Inclusive bound on [Write.len] (minimum 1). *)
}

val pmfs_cfg : max_ops:int -> cfg
(** Byte-offset writes spanning up to two data blocks, so multi-block
    transactions and hole-creating extensions are generated. *)

val nova_cfg : max_ops:int -> cfg
(** Page-offset writes of at most one page. *)

val generate : cfg -> Rng.t -> op array
(** Deterministic weighted stream of [cfg.max_ops] operations. *)

val op_to_string : op -> string
(** One tab-separated serial line per op ([c]/[w]/[u]/[f]/[r] tags). *)

val op_of_string : string -> (op, string) result
val pp_op : Format.formatter -> op -> unit
