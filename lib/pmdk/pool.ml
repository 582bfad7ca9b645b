open Pmtest_trace
open Pmtest_itree
module Machine = Pmtest_pmem.Machine
module Instr = Pmtest_pmem.Instr
module Access = Pmtest_pmem.Access

let source_file = "pmdk/pool.c"
let magic = 0x504D444B_4F43616DL (* "PMDKOCam" *)

(* Header layout. *)
let off_magic = 0x00
let off_size = 0x08
let off_root = 0x10
let off_heap_top = 0x18
let log_base = 0x40
let log_size = 1 lsl 18 (* 256 KiB undo log *)
let entries_base = log_base + 64 (* persistent entry count, then entries *)
let heap_base = log_base + log_size

type fault = Skip_commit_writeback | Skip_commit_fence

type tx_state = {
  mutable depth : int;
  mutable modified : unit Interval_map.t;
  mutable logged : unit Interval_map.t; (* ranges already snapshotted *)
  mutable log_tail : int; (* next free offset inside the log area *)
}

type t = {
  instr : Instr.t;
  model : Pmtest_model.Model.kind;
  mutable free_list : (int * int) list; (* volatile, like PMDK runtime state *)
  mutable heap_top : int; (* cached copy of the persistent bump pointer *)
  tx : tx_state;
  mutable fault : fault option;
  mutable recovered : int;
}

exception Tx_aborted

let machine t = Instr.machine t.instr
let instr t = t.instr
let model t = t.model

(* Durability and ordering points, spelled in the pool's persistency
   model: x86 writes back the range then fences; HOPS has no explicit
   writeback — dfence makes everything durable, ofence only orders; CXL
   has no writeback either — the global persist barrier drains all. *)
let hw_persist t ~line ~off ~size =
  match t.model with
  | Pmtest_model.Model.X86 -> Instr.persist_barrier t.instr ~line ~addr:off ~size
  | Pmtest_model.Model.Hops -> Instr.dfence t.instr ~line
  | Pmtest_model.Model.Cxl -> Instr.gpf t.instr ~line
  | Pmtest_model.Model.Eadr -> () (* stores are already durable *)

let hw_flush t ~line ~off ~size =
  match t.model with
  | Pmtest_model.Model.X86 -> Instr.clwb t.instr ~line ~addr:off ~size
  | Pmtest_model.Model.Hops | Pmtest_model.Model.Eadr | Pmtest_model.Model.Cxl -> ()

let hw_drain t ~line =
  match t.model with
  | Pmtest_model.Model.X86 -> Instr.sfence t.instr ~line
  | Pmtest_model.Model.Hops -> Instr.dfence t.instr ~line
  | Pmtest_model.Model.Cxl -> Instr.gpf t.instr ~line
  | Pmtest_model.Model.Eadr -> ()
let recovered_entries t = t.recovered
let heap_start _ = heap_base

(* Raw accesses: pool-internal bookkeeping, not transaction-tracked. *)
let raw_store_i64 t ~line ~off v = Instr.store_i64 t.instr ~line ~addr:off v
let raw_store_bytes t ~line ~off b = Instr.store_bytes t.instr ~line ~addr:off b
let raw_persist t ~line ~off ~size = hw_persist t ~line ~off ~size

let announce_exclusions t =
  (* The header and undo log are library bookkeeping: tools should not
     hold the application responsible for them. *)
  Instr.control t.instr ~line:1 (Event.Exclude { addr = 0; size = heap_base })

let fresh_tx () =
  {
    depth = 0;
    modified = Interval_map.empty;
    logged = Interval_map.empty;
    log_tail = entries_base;
  }

let create ?(track_versions = false) ?(model = Pmtest_model.Model.X86)
    ?(size = 16 * 1024 * 1024) ~sink () =
  if size <= heap_base + Pmtest_model.Model.cache_line then
    invalid_arg "Pool.create: pool too small";
  let machine = Machine.create ~track_versions ~size () in
  let instr = Instr.make ~machine ~sink ~file:source_file in
  let t =
    {
      instr;
      model;
      free_list = [];
      heap_top = heap_base;
      tx = fresh_tx ();
      fault = None;
      recovered = 0;
    }
  in
  announce_exclusions t;
  raw_store_i64 t ~line:10 ~off:off_magic magic;
  raw_store_i64 t ~line:11 ~off:off_size (Int64.of_int size);
  raw_store_i64 t ~line:12 ~off:off_root 0L;
  raw_store_i64 t ~line:13 ~off:off_heap_top (Int64.of_int heap_base);
  raw_persist t ~line:14 ~off:0 ~size:0x20;
  t

(* Undo log: a persistent entry count at [log_base] (the only truncation
   point), then entries of {off(8) | size(8) | data (8-aligned)} from
   [log_base + 64]. A count rather than per-entry valid flags is
   essential: with valid flags, a stale still-valid entry from the
   previous transaction could be replayed when a crash lands between a
   new transaction's first and second snapshot — a bug the crash-
   injection harness found in an earlier version of this file. *)
let entry_header = 16
let align8 n = (n + 7) land lnot 7

let log_scan machine =
  let n = Access.get_int machine log_base in
  let rec go off acc remaining =
    if remaining = 0 || off + entry_header > log_base + log_size then List.rev acc
    else
      let target = Access.get_int machine off in
      let size = Access.get_int machine (off + 8) in
      let data = Access.get_bytes machine (off + entry_header) size in
      go (off + entry_header + align8 size) ((off, target, size, data) :: acc) (remaining - 1)
  in
  go entries_base [] n

let rollback t =
  let entries = log_scan (machine t) in
  (* Newest-first: later snapshots may overlap earlier ones; applying in
     reverse restores the oldest (pre-transaction) bytes last. *)
  List.iter
    (fun (_, target, size, data) ->
      raw_store_bytes t ~line:30 ~off:target data;
      hw_flush t ~line:31 ~off:target ~size)
    (List.rev entries);
  hw_drain t ~line:32;
  (* Truncate the log: invalidating the first entry hides the rest. *)
  raw_store_i64 t ~line:33 ~off:log_base 0L;
  raw_persist t ~line:34 ~off:log_base ~size:8;
  t.tx.log_tail <- entries_base;
  List.length entries

let of_machine ~machine ~sink =
  let instr = Instr.make ~machine ~sink ~file:source_file in
  if Access.get_i64 machine off_magic <> magic then invalid_arg "Pool.of_machine: bad magic";
  let t =
    {
      instr;
      model = Pmtest_model.Model.X86;
      free_list = [];
      heap_top = 0;
      tx = fresh_tx ();
      fault = None;
      recovered = 0;
    }
  in
  announce_exclusions t;
  t.recovered <- rollback t;
  t.heap_top <- Access.get_int machine off_heap_top;
  t

let root t = Access.get_int (machine t) off_root

let set_root t off =
  raw_store_i64 t ~line:40 ~off:off_root (Int64.of_int off);
  raw_persist t ~line:41 ~off:off_root ~size:8

(* --- Transactions ------------------------------------------------------ *)

let tx_active t = t.tx.depth > 0
let tx_depth t = t.tx.depth
let set_fault t f = t.fault <- f

let track_store t ~off ~size =
  if tx_active t && size > 0 then
    t.tx.modified <- Interval_map.set t.tx.modified ~lo:off ~hi:(off + size) ()

let tx_begin t =
  Instr.tx_event t.instr ~line:50 Event.Tx_begin;
  if t.tx.depth = 0 then begin
    t.tx.modified <- Interval_map.empty;
    t.tx.logged <- Interval_map.empty;
    t.tx.log_tail <- entries_base
  end;
  t.tx.depth <- t.tx.depth + 1

let tx_add ?(line = 60) t ~off ~size =
  if not (tx_active t) then invalid_arg "Pool.tx_add: no active transaction";
  if size <= 0 then invalid_arg "Pool.tx_add: empty range";
  let entry = t.tx.log_tail in
  let stride = entry_header + align8 size in
  if entry + stride > log_base + log_size then failwith "Pool: undo log full";
  Instr.tx_event t.instr ~line Event.(Tx_add { addr = off; size });
  (* 1. Entry body (old data) durable first... *)
  let old = Access.get_bytes (machine t) off size in
  raw_store_i64 t ~line:(line + 1) ~off:entry (Int64.of_int off);
  raw_store_i64 t ~line:(line + 2) ~off:(entry + 8) (Int64.of_int size);
  raw_store_bytes t ~line:(line + 3) ~off:(entry + entry_header) old;
  raw_persist t ~line:(line + 4) ~off:entry ~size:(entry_header + size);
  (* 2. ...then publish it by bumping the persistent entry count. *)
  let n = Access.get_int (machine t) log_base in
  raw_store_i64 t ~line:(line + 5) ~off:log_base (Int64.of_int (n + 1));
  raw_persist t ~line:(line + 6) ~off:log_base ~size:8;
  t.tx.log_tail <- entry + stride;
  t.tx.logged <- Interval_map.set t.tx.logged ~lo:off ~hi:(off + size) ()

let tx_add_once ?line t ~off ~size =
  if not (tx_active t) then invalid_arg "Pool.tx_add_once: no active transaction";
  if not (Interval_map.covered t.tx.logged ~lo:off ~hi:(off + size)) then
    tx_add ?line t ~off ~size

let commit_outermost t =
  let skip_wb = t.fault = Some Skip_commit_writeback in
  let skip_fence = t.fault = Some Skip_commit_fence in
  if not skip_wb then begin
    Interval_map.iter (fun lo hi () -> hw_flush t ~line:70 ~off:lo ~size:(hi - lo)) t.tx.modified;
    if not skip_fence then hw_drain t ~line:71
  end;
  (* Truncate the log only after the updates are durable. Under the
     missing-fence fault the developer forgot the drain entirely, so the
     truncation is not fenced either (a fence here would silently make
     the earlier writebacks durable and mask the bug). *)
  raw_store_i64 t ~line:72 ~off:log_base 0L;
  (* Under either commit fault the developer forgot the durability point
     entirely, so the truncation is not fenced either — a fence here would
     silently make the earlier updates durable and mask the bug (under
     HOPS any dfence is global, so this matters for both faults). *)
  if skip_fence || skip_wb then hw_flush t ~line:73 ~off:log_base ~size:8
  else raw_persist t ~line:73 ~off:log_base ~size:8;
  t.tx.modified <- Interval_map.empty;
  t.tx.log_tail <- entries_base

let tx_commit t =
  if not (tx_active t) then invalid_arg "Pool.tx_commit: no active transaction";
  t.tx.depth <- t.tx.depth - 1;
  (* PMDK semantics (paper §7.1): updates are guaranteed durable only when
     the *outermost* transaction ends. *)
  if t.tx.depth = 0 then commit_outermost t;
  Instr.tx_event t.instr ~line:74 Event.Tx_commit

let tx_abort t =
  if not (tx_active t) then invalid_arg "Pool.tx_abort: no active transaction";
  ignore (rollback t);
  t.tx.depth <- 0;
  t.tx.modified <- Interval_map.empty;
  t.tx.logged <- Interval_map.empty;
  Instr.tx_event t.instr ~line:75 Event.Tx_abort

let tx t f =
  tx_begin t;
  match f () with
  | v ->
    tx_commit t;
    v
  | exception e ->
    tx_abort t;
    raise e

(* --- Accessors ---------------------------------------------------------- *)

let store_i64 ?(line = 80) t ~off v =
  track_store t ~off ~size:8;
  Instr.store_i64 t.instr ~line ~addr:off v

let store_int ?line t ~off v = store_i64 ?line t ~off (Int64.of_int v)

let store_u8 ?(line = 81) t ~off v =
  track_store t ~off ~size:1;
  Instr.store_u8 t.instr ~line ~addr:off v

let store_bytes ?(line = 82) t ~off b =
  track_store t ~off ~size:(Bytes.length b);
  Instr.store_bytes t.instr ~line ~addr:off b

let store_string ?(line = 83) t ~off ~len s =
  track_store t ~off ~size:len;
  Instr.store_string t.instr ~line ~addr:off ~len s

let load_i64 t ~off = Instr.load_i64 t.instr ~addr:off
let load_int t ~off = Instr.load_int t.instr ~addr:off
let load_u8 t ~off = Instr.load_u8 t.instr ~addr:off
let load_bytes t ~off ~len = Instr.load_bytes t.instr ~addr:off ~len
let load_string t ~off ~len = Instr.load_string t.instr ~addr:off ~len

let persist ?(line = 84) t ~off ~size = hw_persist t ~line ~off ~size
let flush ?(line = 85) t ~off ~size = hw_flush t ~line ~off ~size
let drain ?(line = 86) t = hw_drain t ~line

let tx_checker_start ?(line = 87) t = Instr.tx_event t.instr ~line Event.Tx_checker_start
let tx_checker_end ?(line = 88) t = Instr.tx_event t.instr ~line Event.Tx_checker_end

let is_persist ?(line = 89) t ~off ~size =
  Instr.checker t.instr ~line Event.(Is_persist { addr = off; size })

let is_ordered_before ?(line = 93) t ~a_off ~a_size ~b_off ~b_size =
  Instr.checker t.instr ~line
    Event.(Is_ordered_before { a_addr = a_off; a_size; b_addr = b_off; b_size })

(* --- Allocator ---------------------------------------------------------- *)

let align64 n = (n + 63) land lnot 63

let zero_block t ~off ~size =
  (* TX_ZNEW semantics: fresh objects are zeroed; inside a transaction the
     zeroing is tracked (and hence flushed at commit), outside it is
     persisted immediately. *)
  let zeros = Bytes.make size '\000' in
  if tx_active t then store_bytes ~line:90 t ~off zeros
  else begin
    raw_store_bytes t ~line:91 ~off zeros;
    raw_persist t ~line:92 ~off ~size
  end

let alloc t size =
  if size <= 0 then invalid_arg "Pool.alloc: size must be positive";
  let size = align64 size in
  let off =
    let rec first_fit acc = function
      | [] -> None
      | (o, s) :: rest when s >= size ->
        t.free_list <- List.rev_append acc rest;
        Some o
      | blk :: rest -> first_fit (blk :: acc) rest
    in
    match first_fit [] t.free_list with
    | Some o -> o
    | None ->
      let o = t.heap_top in
      if o + size > Machine.size (machine t) then raise Out_of_memory;
      t.heap_top <- o + size;
      raw_store_i64 t ~line:95 ~off:off_heap_top (Int64.of_int t.heap_top);
      raw_persist t ~line:96 ~off:off_heap_top ~size:8;
      o
  in
  (* A fresh allocation inside a transaction is recoverable by
     construction (rollback frees it), which PMDK's checkers model by
     registering the range like a log entry. *)
  if tx_active t then begin
    (* A freed block re-allocated within the same transaction is already
       registered as recoverable: announcing it again would read as a
       duplicate snapshot to the checkers. *)
    if not (Interval_map.covered t.tx.logged ~lo:off ~hi:(off + size)) then
      Instr.tx_event t.instr ~line:97 Event.(Tx_add { addr = off; size });
    t.tx.logged <- Interval_map.set t.tx.logged ~lo:off ~hi:(off + size) ()
  end;
  zero_block t ~off ~size;
  off

let free t ~off ~size = t.free_list <- (off, align64 size) :: t.free_list
