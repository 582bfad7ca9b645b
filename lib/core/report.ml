open Pmtest_util

type severity = Warn | Fail

type kind =
  | Not_persisted
  | Not_ordered
  | Unnecessary_writeback
  | Duplicate_writeback
  | Missing_log
  | Duplicate_log
  | Incomplete_tx
  | Invalid_op
  | Lint_unflushed_write
  | Lint_unfenced_flush
  | Lint_redundant_fence
  | Lint_write_after_flush
  | Lint_unmatched_exclude

let kind_severity = function
  | Unnecessary_writeback | Duplicate_writeback | Duplicate_log -> Warn
  | Lint_redundant_fence | Lint_write_after_flush | Lint_unmatched_exclude -> Warn
  | Not_persisted | Not_ordered | Missing_log | Incomplete_tx | Invalid_op -> Fail
  | Lint_unflushed_write | Lint_unfenced_flush -> Fail

type diagnostic = { kind : kind; loc : Loc.t; message : string }
type t = { diagnostics : diagnostic list; entries : int; ops : int; checkers : int }

let empty = { diagnostics = []; entries = 0; ops = 0; checkers = 0 }

let merge a b =
  {
    diagnostics = a.diagnostics @ b.diagnostics;
    entries = a.entries + b.entries;
    ops = a.ops + b.ops;
    checkers = a.checkers + b.checkers;
  }

let is_clean t = t.diagnostics = []
let has_fail t = List.exists (fun d -> kind_severity d.kind = Fail) t.diagnostics
let fails t = List.filter (fun d -> kind_severity d.kind = Fail) t.diagnostics
let warns t = List.filter (fun d -> kind_severity d.kind = Warn) t.diagnostics
let count kind t = List.length (List.filter (fun d -> d.kind = kind) t.diagnostics)
let find kind t = List.find_opt (fun d -> d.kind = kind) t.diagnostics

let summarize t =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun d ->
      let key = (d.kind, d.loc) in
      match Hashtbl.find_opt tbl key with
      | Some (msg, n) -> Hashtbl.replace tbl key (msg, n + 1)
      | None ->
        Hashtbl.replace tbl key (d.message, 1);
        order := key :: !order)
    t.diagnostics;
  List.stable_sort
    (fun (_, _, _, a) (_, _, _, b) -> Int.compare b a)
    (List.rev_map
       (fun (kind, loc) ->
         let msg, n = Hashtbl.find tbl (kind, loc) in
         (kind, loc, msg, n))
       !order)

let severity_string = function Warn -> "WARN" | Fail -> "FAIL"

let kind_string = function
  | Not_persisted -> "not-persisted"
  | Not_ordered -> "not-ordered"
  | Unnecessary_writeback -> "unnecessary-writeback"
  | Duplicate_writeback -> "duplicate-writeback"
  | Missing_log -> "missing-log"
  | Duplicate_log -> "duplicate-log"
  | Incomplete_tx -> "incomplete-transaction"
  | Invalid_op -> "invalid-operation"
  | Lint_unflushed_write -> "write-never-flushed"
  | Lint_unfenced_flush -> "flush-without-fence"
  | Lint_redundant_fence -> "redundant-fence"
  | Lint_write_after_flush -> "write-after-flush"
  | Lint_unmatched_exclude -> "unmatched-exclude"

let pp_diagnostic ppf d =
  Format.fprintf ppf "@[<h>%s [%s] %s @@ %a@]"
    (severity_string (kind_severity d.kind))
    (kind_string d.kind) d.message Loc.pp d.loc

let pp ppf t =
  if is_clean t then
    Format.fprintf ppf "clean (%d entries, %d PM ops, %d checkers)" t.entries t.ops t.checkers
  else begin
    Format.fprintf ppf "@[<v>%d diagnostic(s) over %d entries:" (List.length t.diagnostics)
      t.entries;
    List.iter (fun d -> Format.fprintf ppf "@,  %a" pp_diagnostic d) t.diagnostics;
    Format.fprintf ppf "@]"
  end

let pp_summary ppf t =
  if is_clean t then pp ppf t
  else begin
    let groups = summarize t in
    Format.fprintf ppf "@[<v>%d diagnostic(s) at %d site(s) over %d entries:"
      (List.length t.diagnostics) (List.length groups) t.entries;
    List.iter
      (fun (kind, loc, msg, n) ->
        Format.fprintf ppf "@,  %s [%s] (x%d) %s @@ %a"
          (severity_string (kind_severity kind))
          (kind_string kind) n msg Pmtest_util.Loc.pp loc)
      groups;
    Format.fprintf ppf "@]"
  end

let to_string t = Format.asprintf "%a" pp t
