(** Simulated PMDK object pool (libpmemobj).

    A pool is a region of the simulated PM device with a small metadata
    header, a persistent undo-log area and an object heap. It provides the
    failure-atomic transaction protocol the real library implements:

    - [TX_ADD] copies the object's current bytes into the undo log and
      persists the entry {e before} the object may be modified;
    - at outermost [TX_END] commit, every range modified inside the
      transaction is written back and fenced, then the log is truncated;
    - recovery after a crash rolls back any valid log entries, restoring
      the pre-transaction image.

    All PM operations go through {!Pmtest_pmem.Instr}, so attaching a sink
    makes the pool's every write/clwb/sfence — and its [TX_*] annotations —
    visible to a testing tool. The metadata and log areas are announced to
    the tool as excluded ranges (the library's own bookkeeping is not the
    application's crash-consistency obligation).

    The allocator is first-fit over a volatile free list plus a persistent
    bump pointer; like the real library's runtime state, the free list is
    rebuilt conservatively (leaked blocks are not reclaimed) after a
    crash. *)

open Pmtest_trace
module Machine = Pmtest_pmem.Machine
module Instr = Pmtest_pmem.Instr

type t

val source_file : string
(** File name under which the pool reports its operations ("pmdk/pool.c"). *)

val create :
  ?track_versions:bool -> ?model:Pmtest_model.Model.kind -> ?size:int -> sink:Sink.t -> unit -> t
(** Fresh pool on a fresh machine (default 16 MiB). [model] selects the
    persistency model the pool enforces durability with (paper Fig. 2):
    x86 (default) issues [clwb]+[sfence]; HOPS issues [dfence] for
    durability points and [ofence] for ordering-only points. *)

val model : t -> Pmtest_model.Model.kind

val of_machine : machine:Machine.t -> sink:Sink.t -> t
(** Run recovery on an existing device (e.g. a crash image booted with
    {!Machine.of_image}) and open the pool: valid undo-log entries are
    rolled back. *)

val machine : t -> Machine.t
val instr : t -> Instr.t
val recovered_entries : t -> int
(** Undo-log entries rolled back when the pool was opened (0 for a fresh
    pool or a clean shutdown). *)

(** {1 Root object} *)

val root : t -> int
(** Offset of the application root object, 0 if unset. *)

val set_root : t -> int -> unit
(** Persistently record the root offset (write + flush + fence). *)

(** {1 Allocation} *)

val alloc : t -> int -> int
(** [alloc t size] returns the offset of a zeroed, cache-line-aligned
    block. Raises [Out_of_memory] if the heap is exhausted. *)

val free : t -> off:int -> size:int -> unit
(** Return a block to the (volatile) free list. *)

(** {1 Transactions} *)

exception Tx_aborted

val tx_begin : t -> unit
val tx_commit : t -> unit
val tx_abort : t -> unit
(** Roll back every logged range and terminate the transaction. *)

val tx_active : t -> bool
val tx_depth : t -> int

val tx : t -> (unit -> 'a) -> 'a
(** [tx t f] wraps [f] in [tx_begin]/[tx_commit]; aborts (and re-raises)
    if [f] raises. *)

val tx_add : ?line:int -> t -> off:int -> size:int -> unit
(** Snapshot the range into the undo log (PMDK [TX_ADD_RANGE]). Must be
    called inside a transaction. Always appends a new log entry, even if
    the range was already snapshotted — a second call is the
    duplicate-log performance bug the tools flag. *)

val tx_add_once : ?line:int -> t -> off:int -> size:int -> unit
(** Like {!tx_add} but skips ranges already fully covered by this
    transaction's log (or by a fresh allocation), as the real library's
    range tracking does; this is what correct code calls. *)

(** {1 PM accesses}

    Stores made inside a transaction are tracked and written back at
    commit; loads are plain. [line] is the simulated source line reported
    to the testing tool. *)

val store_i64 : ?line:int -> t -> off:int -> int64 -> unit
val store_int : ?line:int -> t -> off:int -> int -> unit
val store_u8 : ?line:int -> t -> off:int -> int -> unit
val store_bytes : ?line:int -> t -> off:int -> bytes -> unit
val store_string : ?line:int -> t -> off:int -> len:int -> string -> unit
val load_i64 : t -> off:int -> int64
val load_int : t -> off:int -> int
val load_u8 : t -> off:int -> int
val load_bytes : t -> off:int -> len:int -> bytes
val load_string : t -> off:int -> len:int -> string

val persist : ?line:int -> t -> off:int -> size:int -> unit
(** Non-transactional durability: clwb + sfence (pmem_persist). *)

val flush : ?line:int -> t -> off:int -> size:int -> unit
(** clwb only (pmem_flush). *)

val drain : ?line:int -> t -> unit
(** sfence only (pmem_drain). *)

(** {1 Checker annotations}

    Convenience emitters for programs annotated with the transaction
    checkers: these only produce trace entries, they have no effect on the
    pool. *)

val tx_checker_start : ?line:int -> t -> unit
val tx_checker_end : ?line:int -> t -> unit
val is_persist : ?line:int -> t -> off:int -> size:int -> unit
val is_ordered_before :
  ?line:int -> t -> a_off:int -> a_size:int -> b_off:int -> b_size:int -> unit

(** {1 Fault injection for the bug suite} *)

type fault =
  | Skip_commit_writeback
      (** Commit does not write modified ranges back (transaction
          completion bug). *)
  | Skip_commit_fence  (** Commit writes back but omits the fence. *)

val set_fault : t -> fault option -> unit
val heap_start : t -> int
