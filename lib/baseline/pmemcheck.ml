open Pmtest_util
open Pmtest_trace
module Model = Pmtest_model.Model
module Report = Pmtest_core.Report

(* Per-byte shadow states, one char per PM byte. *)
let st_clean = '\000' (* never stored, or store persisted *)
let st_dirty = '\001' (* stored, no flush yet *)
let st_flushed = '\002' (* flushed, fence pending *)

type t = {
  shadow : Bytes.t;
  (* Bytes covered by undo-log entries of the open transaction. *)
  logged : Bytes.t;
  (* Ranges in the flushed state, cleared at the next fence — the real
     tool's pending-store list. *)
  flushed_ranges : (int * int) Vec.t;
  diags : Report.diagnostic Vec.t;
  mutable entries : int;
  mutable ops : int;
  mutable tx_depth : int;
  mutable last_store_loc : Loc.t;
}

let create ~size =
  {
    shadow = Bytes.make size st_clean;
    logged = Bytes.make size '\000';
    flushed_ranges = Vec.create ();
    diags = Vec.create ();
    entries = 0;
    ops = 0;
    tx_depth = 0;
    last_store_loc = Loc.none;
  }

let diag t kind loc fmt =
  Format.kasprintf (fun message -> Vec.push t.diags { Report.kind; loc; message }) fmt

let in_range t addr size = addr >= 0 && size > 0 && addr + size <= Bytes.length t.shadow

let on_store t loc ~addr ~size =
  if in_range t addr size then begin
    t.last_store_loc <- loc;
    let missing_log = ref false in
    for i = addr to addr + size - 1 do
      if t.tx_depth > 0 && Bytes.get t.logged i = '\000' then missing_log := true;
      Bytes.set t.shadow i st_dirty
    done;
    if !missing_log then
      diag t Report.Missing_log loc
        "store to [0x%x,+%d) inside a transaction without an undo-log backup" addr size
  end

let on_flush t loc ~addr ~size =
  if in_range t addr size then begin
    let redundant = ref false and unneeded = ref false in
    for i = addr to addr + size - 1 do
      let s = Bytes.get t.shadow i in
      if s = st_dirty then Bytes.set t.shadow i st_flushed
      else if s = st_flushed then redundant := true
      else unneeded := true
    done;
    Vec.push t.flushed_ranges (addr, size);
    if !redundant then
      diag t Report.Duplicate_writeback loc "redundant flush of [0x%x,+%d)" addr size;
    if !unneeded then
      diag t Report.Unnecessary_writeback loc "flush of unmodified bytes in [0x%x,+%d)" addr
        size
  end

let on_fence t =
  (* Walk the pending-flush list, byte by byte, like the real tool's
     per-store processing at fences. *)
  Vec.iter
    (fun (addr, size) ->
      for i = addr to addr + size - 1 do
        if Bytes.get t.shadow i = st_flushed then Bytes.set t.shadow i st_clean
      done)
    t.flushed_ranges;
  Vec.clear t.flushed_ranges

let on_tx_add t loc ~addr ~size =
  if in_range t addr size then begin
    let dup = ref true in
    for i = addr to addr + size - 1 do
      if Bytes.get t.logged i = '\000' then dup := false;
      Bytes.set t.logged i '\001'
    done;
    if !dup then diag t Report.Duplicate_log loc "range [0x%x,+%d) logged twice" addr size
  end

let on_entry t kind loc =
  t.entries <- t.entries + 1;
  match (kind : Event.kind) with
  | Event.Op op -> begin
    t.ops <- t.ops + 1;
    match op with
    | Model.Write { addr; size } -> on_store t loc ~addr ~size
    | Model.Clwb { addr; size } -> on_flush t loc ~addr ~size
    | Model.Sfence | Model.Dfence | Model.Gpf -> on_fence t
    | Model.Ofence -> ()
  end
  | Event.Tx Event.Tx_begin -> t.tx_depth <- t.tx_depth + 1
  | Event.Tx (Event.Tx_add { addr; size }) -> on_tx_add t loc ~addr ~size
  | Event.Tx (Event.Tx_commit | Event.Tx_abort) ->
    t.tx_depth <- max 0 (t.tx_depth - 1);
    if t.tx_depth = 0 then Bytes.fill t.logged 0 (Bytes.length t.logged) '\000'
  | Event.Tx (Event.Tx_checker_start | Event.Tx_checker_end)
  | Event.Checker _ | Event.Control _ ->
    (* Pmemcheck has no programmable checkers: annotations are ignored. *)
    ()

let sink t = { Sink.emit = (fun kind loc -> on_entry t kind loc) }

let unpersisted_ranges t =
  let runs = ref [] in
  let n = Bytes.length t.shadow in
  let i = ref 0 in
  while !i < n do
    if Bytes.get t.shadow !i <> st_clean then begin
      let start = !i in
      while !i < n && Bytes.get t.shadow !i <> st_clean do
        incr i
      done;
      runs := (start, !i - start) :: !runs
    end
    else incr i
  done;
  List.rev !runs

let result t =
  (* Final sweep: anything still dirty or flushed-but-not-fenced was never
     made durable. Report contiguous runs, like the real tool's
     "N bytes not made persistent" summary. *)
  let diags = Vec.create () in
  Vec.iter (fun d -> Vec.push diags d) t.diags;
  let n = Bytes.length t.shadow in
  let i = ref 0 in
  while !i < n do
    if Bytes.get t.shadow !i <> st_clean then begin
      let start = !i in
      while !i < n && Bytes.get t.shadow !i <> st_clean do
        incr i
      done;
      Vec.push diags
        {
          Report.kind = Report.Not_persisted;
          loc = t.last_store_loc;
          message =
            Printf.sprintf "%d byte(s) at [0x%x,+%d) not made persistent by end of run"
              (!i - start) start (!i - start);
        }
    end
    else incr i
  done;
  { Report.diagnostics = Vec.to_list diags; entries = t.entries; ops = t.ops; checkers = 0 }
