module Report = Pmtest_core.Report

type t =
  | Write_never_flushed
  | Flush_without_fence
  | Redundant_fence
  | Duplicate_flush
  | Unnecessary_flush
  | Write_after_flush
  | Unlogged_tx_write
  | Unbalanced_tx
  | Unmatched_exclude

let all =
  [
    Write_never_flushed;
    Flush_without_fence;
    Redundant_fence;
    Duplicate_flush;
    Unnecessary_flush;
    Write_after_flush;
    Unlogged_tx_write;
    Unbalanced_tx;
    Unmatched_exclude;
  ]

let index = function
  | Write_never_flushed -> 0
  | Flush_without_fence -> 1
  | Redundant_fence -> 2
  | Duplicate_flush -> 3
  | Unnecessary_flush -> 4
  | Write_after_flush -> 5
  | Unlogged_tx_write -> 6
  | Unbalanced_tx -> 7
  | Unmatched_exclude -> 8

let id = function
  | Write_never_flushed -> "write-never-flushed"
  | Flush_without_fence -> "flush-without-fence"
  | Redundant_fence -> "redundant-fence"
  | Duplicate_flush -> "duplicate-flush"
  | Unnecessary_flush -> "unnecessary-flush"
  | Write_after_flush -> "write-after-flush"
  | Unlogged_tx_write -> "unlogged-tx-write"
  | Unbalanced_tx -> "unbalanced-tx"
  | Unmatched_exclude -> "unmatched-exclude"

let of_id s = List.find_opt (fun r -> id r = s) all

let doc = function
  | Write_never_flushed -> "a store is still dirty (never written back) when the trace ends"
  | Flush_without_fence -> "a writeback is never completed by a fence"
  | Redundant_fence -> "a fence with no writeback pending since the previous ordering point"
  | Duplicate_flush -> "a range whose pending write was already flushed is flushed again"
  | Unnecessary_flush -> "a writeback covers bytes no store dirtied"
  | Write_after_flush -> "a store lands in a range with a flushed-but-unfenced writeback"
  | Unlogged_tx_write -> "an in-transaction store has no covering TX_ADD backup"
  | Unbalanced_tx -> "TX_BEGIN and TX_END/TX_ABORT do not balance"
  | Unmatched_exclude -> "an EXCLUDE is never re-INCLUDEd"

let report_kind = function
  | Write_never_flushed -> Report.Lint_unflushed_write
  | Flush_without_fence -> Report.Lint_unfenced_flush
  | Redundant_fence -> Report.Lint_redundant_fence
  | Duplicate_flush -> Report.Duplicate_writeback
  | Unnecessary_flush -> Report.Unnecessary_writeback
  | Write_after_flush -> Report.Lint_write_after_flush
  | Unlogged_tx_write -> Report.Missing_log
  | Unbalanced_tx -> Report.Incomplete_tx
  | Unmatched_exclude -> Report.Lint_unmatched_exclude

let severity r = Report.kind_severity (report_kind r)
let default_enabled = function Unmatched_exclude -> false | _ -> true

type set = int

let none = 0
let everything = (1 lsl List.length all) - 1

let default =
  List.fold_left (fun s r -> if default_enabled r then s lor (1 lsl index r) else s) none all

let mem s r = s land (1 lsl index r) <> 0
let enable s r = s lor (1 lsl index r)
let disable s r = s land lnot (1 lsl index r)
let to_list s = List.filter (mem s) all

let of_spec spec =
  let tokens =
    String.split_on_char ',' spec |> List.map String.trim |> List.filter (fun t -> t <> "")
  in
  (* A spec that leads with a bare rule name means "only these rules";
     +/- tokens tweak the default set instead. *)
  let base =
    match tokens with
    | [] -> default
    | tok :: _ -> (
      match tok with
      | "all" | "none" | "default" -> default
      | _ when tok.[0] = '+' || tok.[0] = '-' -> default
      | _ -> none)
  in
  List.fold_left
    (fun acc tok ->
      match acc with
      | Error _ -> acc
      | Ok s -> (
        match tok with
        | "all" -> Ok everything
        | "none" -> Ok none
        | "default" -> Ok default
        | _ ->
          let add, name =
            if tok.[0] = '+' then (true, String.sub tok 1 (String.length tok - 1))
            else if tok.[0] = '-' then (false, String.sub tok 1 (String.length tok - 1))
            else (true, tok)
          in
          (match of_id name with
          | None ->
            Error
              (Printf.sprintf "unknown lint rule %S (valid rules: %s)" name
                 (String.concat ", " (List.map id all)))
          | Some r -> Ok (if add then enable s r else disable s r))))
    (Ok base) tokens

let help () =
  String.concat "\n"
    (List.map
       (fun r ->
         Printf.sprintf "%-21s %s%s" (id r) (doc r)
           (if default_enabled r then "" else " [off by default]"))
       all)
