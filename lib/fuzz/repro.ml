open Pmtest_model
open Pmtest_trace
module Files = Pmtest_util.Files
module Report = Pmtest_core.Report
module Engine = Pmtest_core.Engine
module Naive_engine = Pmtest_baseline.Naive_engine
module Pmemcheck = Pmtest_baseline.Pmemcheck
module Lint = Pmtest_lint.Lint

type tool = Engine | Naive | Lint | Pmemcheck
type check = Agree of Cross.pair | Flag of { tool : tool; kind : Report.kind }
type case = {
  name : string;
  program : Gen.program;
  checks : check list;
  notes : (string * string) list;
}

let tool_name = function
  | Engine -> "engine"
  | Naive -> "naive"
  | Lint -> "lint"
  | Pmemcheck -> "pmemcheck"

let tool_of_name = function
  | "engine" -> Some Engine
  | "naive" -> Some Naive
  | "lint" -> Some Lint
  | "pmemcheck" -> Some Pmemcheck
  | _ -> None

let pair_of_name name = List.find_opt (fun p -> Cross.pair_name p = name) Cross.all_pairs

let all_kinds =
  [
    Report.Not_persisted;
    Report.Not_ordered;
    Report.Unnecessary_writeback;
    Report.Duplicate_writeback;
    Report.Missing_log;
    Report.Duplicate_log;
    Report.Incomplete_tx;
    Report.Invalid_op;
    Report.Lint_unflushed_write;
    Report.Lint_unfenced_flush;
    Report.Lint_redundant_fence;
    Report.Lint_write_after_flush;
    Report.Lint_unmatched_exclude;
  ]

let kind_of_name name = List.find_opt (fun k -> Report.kind_string k = name) all_kinds

let serial_text (p : Gen.program) = Files.render Files.no_header (Serial.lines p.Gen.events)

let snippet_kind buf (e : Event.t) =
  let p fmt = Printf.bprintf buf fmt in
  (match e.Event.kind with
  | Event.Op (Model.Write { addr; size }) ->
    p "Event.Op (Model.Write { addr = 0x%x; size = %d })" addr size
  | Event.Op (Model.Clwb { addr; size }) ->
    p "Event.Op (Model.Clwb { addr = 0x%x; size = %d })" addr size
  | Event.Op Model.Sfence -> p "Event.Op Model.Sfence"
  | Event.Op Model.Ofence -> p "Event.Op Model.Ofence"
  | Event.Op Model.Dfence -> p "Event.Op Model.Dfence"
  | Event.Op Model.Gpf -> p "Event.Op Model.Gpf"
  | Event.Checker (Event.Is_persist { addr; size }) ->
    p "Event.Checker (Event.Is_persist { addr = 0x%x; size = %d })" addr size
  | Event.Checker (Event.Is_ordered_before { a_addr; a_size; b_addr; b_size }) ->
    p
      "Event.Checker (Event.Is_ordered_before { a_addr = 0x%x; a_size = %d; b_addr = 0x%x; \
       b_size = %d })"
      a_addr a_size b_addr b_size
  | Event.Tx Event.Tx_begin -> p "Event.Tx Event.Tx_begin"
  | Event.Tx Event.Tx_commit -> p "Event.Tx Event.Tx_commit"
  | Event.Tx Event.Tx_abort -> p "Event.Tx Event.Tx_abort"
  | Event.Tx (Event.Tx_add { addr; size }) ->
    p "Event.Tx (Event.Tx_add { addr = 0x%x; size = %d })" addr size
  | Event.Tx Event.Tx_checker_start -> p "Event.Tx Event.Tx_checker_start"
  | Event.Tx Event.Tx_checker_end -> p "Event.Tx Event.Tx_checker_end"
  | Event.Control (Event.Exclude { addr; size }) ->
    p "Event.Control (Event.Exclude { addr = 0x%x; size = %d })" addr size
  | Event.Control (Event.Include { addr; size }) ->
    p "Event.Control (Event.Include { addr = 0x%x; size = %d })" addr size
  | Event.Control (Event.Lint_off { rule }) ->
    p "Event.Control (Event.Lint_off { rule = %S })" rule
  | Event.Control (Event.Lint_on { rule }) ->
    p "Event.Control (Event.Lint_on { rule = %S })" rule);
  if e.Event.thread <> 0 then p " (* thread %d *)" e.Event.thread

let model_constructor = function
  | Model.X86 -> "Model.X86"
  | Model.Hops -> "Model.Hops"
  | Model.Eadr -> "Model.Eadr"
  | Model.Cxl -> "Model.Cxl"

let ocaml_snippet (p : Gen.program) =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "let trace =\n  [|\n";
  Array.iter
    (fun e ->
      Buffer.add_string buf "    Event.make (";
      snippet_kind buf e;
      Buffer.add_string buf ");\n")
    p.Gen.events;
  Printf.bprintf buf "  |]\n\nlet report = Engine.check ~model:%s trace\n"
    (model_constructor p.Gen.model);
  Buffer.contents buf

let tool_report tool (p : Gen.program) =
  match tool with
  | Engine -> Engine.check ~model:p.Gen.model p.Gen.events
  | Naive -> Naive_engine.check ~model:p.Gen.model p.Gen.events
  | Lint -> Lint.report_of (Lint.run ~model:p.Gen.model p.Gen.events)
  | Pmemcheck ->
    let pc = Pmemcheck.create ~size:p.Gen.pm_size in
    let sink = Pmemcheck.sink pc in
    Array.iter (fun (e : Event.t) -> sink.Sink.emit e.Event.kind e.Event.loc) p.Gen.events;
    Pmemcheck.result pc

let check_field = function
  | Agree pair -> ("check", "agree " ^ Cross.pair_name pair)
  | Flag { tool; kind } ->
    ("check", Printf.sprintf "flag %s %s" (tool_name tool) (Report.kind_string kind))

let banner = "pmtest-fuzz-case v1"

let header_of_case c =
  {
    Files.banner = Some banner;
    fields =
      [
        ("name", c.name);
        ("model", Model.kind_name c.program.Gen.model);
        ("pm_size", string_of_int c.program.Gen.pm_size);
      ]
      @ List.map check_field c.checks
      @ c.notes;
  }

let case_text c = Files.render (header_of_case c) (Serial.lines c.program.Gen.events)

(* Identity of a reproducer is its event array (plus the model those
   events are judged under) — not its name, which carries a seed that
   differs across campaign runs finding the same bug. *)
let case_digest c =
  Digest.to_hex
    (Digest.string (Model.kind_name c.program.Gen.model ^ "\n" ^ serial_text c.program))

let ( let* ) = Result.bind

let known_keys = [ "name"; "model"; "pm_size"; "check" ]

let add_field acc (key, value) =
  match acc with
  | Error _ as e -> e
  | Ok (name, model, pm_size, checks) -> (
    match key with
    | "name" -> Ok (Some value, model, pm_size, checks)
    | "model" -> (
      match Model.kind_of_string value with
      | Some m -> Ok (name, Some m, pm_size, checks)
      | None -> Error (Printf.sprintf "unknown model %S" value))
    | "pm_size" -> (
      match int_of_string_opt value with
      | Some n when n > 0 -> Ok (name, model, Some n, checks)
      | _ -> Error (Printf.sprintf "bad pm_size %S" value))
    | "check" -> (
      match String.split_on_char ' ' value with
      | [ "agree"; pair ] -> (
        match pair_of_name pair with
        | Some p -> Ok (name, model, pm_size, Agree p :: checks)
        | None -> Error (Printf.sprintf "unknown pair %S" pair))
      | [ "flag"; tool; kind ] -> (
        match (tool_of_name tool, kind_of_name kind) with
        | Some t, Some k -> Ok (name, model, pm_size, Flag { tool = t; kind = k } :: checks)
        | None, _ -> Error (Printf.sprintf "unknown tool %S" tool)
        | _, None -> Error (Printf.sprintf "unknown diagnostic kind %S" kind))
      | _ -> Error (Printf.sprintf "malformed check %S" value))
    | _ -> acc)

let load_file path =
  let decode { Files.header; body } =
    let* events = Serial.entries_of_body body in
    let* fields = List.fold_left add_field (Ok (None, None, None, [])) header.Files.fields in
    let notes = List.filter (fun (k, _) -> not (List.mem k known_keys)) header.Files.fields in
    Ok (fields, notes, events)
  in
  match Files.read_text path with
  | Error _ as e -> e
  | Ok t -> (
    match decode t with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok ((name, model, pm_size, checks), notes, events) ->
      let name =
        match name with
        | Some n -> n
        | None -> Filename.remove_extension (Filename.basename path)
      in
      (match (model, checks) with
      | None, _ -> Error (Printf.sprintf "%s: missing 'model:' header" path)
      | _, [] -> Error (Printf.sprintf "%s: no 'check:' headers" path)
      | Some model, checks ->
        let default_size =
          Array.fold_left
            (fun acc (e : Event.t) ->
              match e.Event.kind with
              | Event.Op (Model.Write { addr; size } | Model.Clwb { addr; size })
              | Event.Tx (Event.Tx_add { addr; size })
              | Event.Checker (Event.Is_persist { addr; size }) ->
                max acc (addr + size)
              | Event.Checker (Event.Is_ordered_before { a_addr; a_size; b_addr; b_size }) ->
                max acc (max (a_addr + a_size) (b_addr + b_size))
              | _ -> acc)
            Model.cache_line events
        in
        let pm_size = Option.value pm_size ~default:default_size in
        Ok
          {
            name;
            program = { Gen.model; pm_size; events };
            checks = List.rev checks;
            notes;
          }))

let load_dir dir = Files.load_corpus dir load_file

(* Dedupe bookkeeping for [save]: digest -> path, one table per corpus
   directory, built by scanning the directory once per process and kept
   current by [save] itself.  Rescanning (and re-parsing) every .pmt on
   each call made corpus saves O(n^2) over a campaign.  Files written
   behind our back by another process are not seen until the next
   process start — the cost is a duplicate reproducer, never a lost
   one. *)
let digest_index : (string, (string, string) Hashtbl.t) Hashtbl.t = Hashtbl.create 4

let index_for dir =
  match Hashtbl.find_opt digest_index dir with
  | Some idx -> idx
  | None ->
    let idx = Hashtbl.create 64 in
    List.iter
      (fun path ->
        match load_file path with
        | Ok c -> Hashtbl.replace idx (case_digest c) path
        | Error _ -> ())
      (Files.corpus_files dir);
    Hashtbl.replace digest_index dir idx;
    idx

let save ~dir c =
  Files.mkdir_p dir;
  let idx = index_for dir in
  let digest = case_digest c in
  match Hashtbl.find_opt idx digest with
  | Some path when Sys.file_exists path -> path
  | _ ->
    let path = Filename.concat dir (c.name ^ ".pmt") in
    Serial.save_file ~header:(header_of_case c) path c.program.Gen.events;
    Hashtbl.replace idx digest path;
    path

let of_finding (f : Campaign.finding) =
  let program = { f.Campaign.program with Gen.events = f.Campaign.shrunk } in
  let name =
    Printf.sprintf "%s-seed%d-%s" (Model.kind_name program.Gen.model) f.Campaign.found_seed
      (String.map (fun c -> if c = '/' then '-' else c) (Cross.pair_name f.Campaign.pair))
  in
  { name; program; checks = [ Agree f.Campaign.pair ]; notes = [] }

let run_check c = function
  | Agree pair -> (
    match Cross.compare_pair pair c.program with
    | Cross.Agree -> Ok ()
    | Cross.Disagree d ->
      Error (Printf.sprintf "%s: pair %s disagrees again: %s" c.name (Cross.pair_name pair) d)
    | Cross.Skip why ->
      Error
        (Printf.sprintf "%s: pair %s no longer applies (%s) — stale corpus case" c.name
           (Cross.pair_name pair) why))
  | Flag { tool; kind } ->
    if Report.count kind (tool_report tool c.program) > 0 then Ok ()
    else
      Error
        (Printf.sprintf "%s: %s no longer reports %s" c.name (tool_name tool)
           (Report.kind_string kind))

let replay c =
  List.fold_left
    (fun acc check -> match acc with Error _ -> acc | Ok () -> run_check c check)
    (Ok ()) c.checks
