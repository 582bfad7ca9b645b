open Pmtest_util
module Model = Pmtest_model.Model

let sanitize file = String.map (fun c -> if c = '\t' || c = '\n' then ' ' else c) file

let entry_to_line (e : Event.t) =
  let loc_part =
    Printf.sprintf "%d\t%s\t%d" e.Event.thread
      (sanitize (if Loc.is_none e.Event.loc then "-" else (e.Event.loc :> Loc.t).Loc.file))
      (e.Event.loc :> Loc.t).Loc.line
  in
  let tail =
    match e.Event.kind with
    | Event.Op (Model.Write { addr; size }) -> Printf.sprintf "w\t%s\t%d\t%d" loc_part addr size
    | Event.Op (Model.Clwb { addr; size }) -> Printf.sprintf "f\t%s\t%d\t%d" loc_part addr size
    | Event.Op Model.Sfence -> Printf.sprintf "s\t%s" loc_part
    | Event.Op Model.Ofence -> Printf.sprintf "o\t%s" loc_part
    | Event.Op Model.Dfence -> Printf.sprintf "d\t%s" loc_part
    | Event.Op Model.Gpf -> Printf.sprintf "g\t%s" loc_part
    | Event.Checker (Event.Is_persist { addr; size }) ->
      Printf.sprintf "cp\t%s\t%d\t%d" loc_part addr size
    | Event.Checker (Event.Is_ordered_before { a_addr; a_size; b_addr; b_size }) ->
      Printf.sprintf "co\t%s\t%d\t%d\t%d\t%d" loc_part a_addr a_size b_addr b_size
    | Event.Tx Event.Tx_begin -> Printf.sprintf "tb\t%s" loc_part
    | Event.Tx Event.Tx_commit -> Printf.sprintf "tc\t%s" loc_part
    | Event.Tx Event.Tx_abort -> Printf.sprintf "ta\t%s" loc_part
    | Event.Tx (Event.Tx_add { addr; size }) -> Printf.sprintf "tA\t%s\t%d\t%d" loc_part addr size
    | Event.Tx Event.Tx_checker_start -> Printf.sprintf "ts\t%s" loc_part
    | Event.Tx Event.Tx_checker_end -> Printf.sprintf "te\t%s" loc_part
    | Event.Control (Event.Exclude { addr; size }) ->
      Printf.sprintf "xe\t%s\t%d\t%d" loc_part addr size
    | Event.Control (Event.Include { addr; size }) ->
      Printf.sprintf "xi\t%s\t%d\t%d" loc_part addr size
    | Event.Control (Event.Lint_off { rule }) -> Printf.sprintf "lo\t%s\t%s" loc_part (sanitize rule)
    | Event.Control (Event.Lint_on { rule }) -> Printf.sprintf "li\t%s\t%s" loc_part (sanitize rule)
  in
  tail

let entry_of_line line =
  match String.split_on_char '\t' line with
  | kind :: thread :: file :: lineno :: args -> (
    match (int_of_string_opt thread, int_of_string_opt lineno) with
    | Some thread, Some lineno -> (
      let loc = if file = "-" && lineno = 0 then Loc.none else Loc.make ~file ~line:lineno in
      let ints () = List.filter_map int_of_string_opt args in
      let mk kind = Ok (Event.make ~thread ~loc kind) in
      (* Every range needs a positive size, as in [Packed.validate]. *)
      let sized sizes kind =
        if List.for_all (fun n -> n > 0) sizes then mk kind
        else Error (Printf.sprintf "non-positive range size in %S" line)
      in
      match (kind, args) with
      | "lo", [ rule ] -> mk (Event.Control (Event.Lint_off { rule }))
      | "li", [ rule ] -> mk (Event.Control (Event.Lint_on { rule }))
      | _ -> (
      match (kind, ints ()) with
      | "w", [ addr; size ] -> sized [ size ] (Event.Op (Model.Write { addr; size }))
      | "f", [ addr; size ] -> sized [ size ] (Event.Op (Model.Clwb { addr; size }))
      | "s", [] -> mk (Event.Op Model.Sfence)
      | "o", [] -> mk (Event.Op Model.Ofence)
      | "d", [] -> mk (Event.Op Model.Dfence)
      | "g", [] -> mk (Event.Op Model.Gpf)
      | "cp", [ addr; size ] -> sized [ size ] (Event.Checker (Event.Is_persist { addr; size }))
      | "co", [ a_addr; a_size; b_addr; b_size ] ->
        sized [ a_size; b_size ]
          (Event.Checker (Event.Is_ordered_before { a_addr; a_size; b_addr; b_size }))
      | "tb", [] -> mk (Event.Tx Event.Tx_begin)
      | "tc", [] -> mk (Event.Tx Event.Tx_commit)
      | "ta", [] -> mk (Event.Tx Event.Tx_abort)
      | "tA", [ addr; size ] -> sized [ size ] (Event.Tx (Event.Tx_add { addr; size }))
      | "ts", [] -> mk (Event.Tx Event.Tx_checker_start)
      | "te", [] -> mk (Event.Tx Event.Tx_checker_end)
      | "xe", [ addr; size ] -> sized [ size ] (Event.Control (Event.Exclude { addr; size }))
      | "xi", [ addr; size ] -> sized [ size ] (Event.Control (Event.Include { addr; size }))
      | _ -> Error (Printf.sprintf "unknown or malformed entry %S" line)))
    | _ -> Error (Printf.sprintf "bad thread/line fields in %S" line))
  | _ -> Error (Printf.sprintf "too few fields in %S" line)

let lines entries = Seq.map entry_to_line (Array.to_seq entries)

let entries_of_body body =
  let entries = Vec.create () in
  let rec go = function
    | [] -> Ok (Vec.to_array entries)
    | (lineno, line) :: rest -> (
      match entry_of_line line with
      | Ok e ->
        Vec.push entries e;
        go rest
      | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go body

(* A crash (or a SIGKILLed [attach --record]) mid-write never leaves a
   truncated [.pmt] that a later corpus replay would trip over. *)
let save_file ?(header = Files.no_header) path entries =
  Files.write_atomic path (fun oc -> Files.output_text oc header (lines entries))

let load_file path = Result.bind (Files.read_text path) (fun t -> entries_of_body t.Files.body)

let recording_sink () =
  let buf = Vec.create () in
  let sink =
    { Sink.emit = (fun kind loc -> Vec.push buf { Event.kind; loc; thread = 0 }) }
  in
  (sink, fun () -> Vec.to_array buf)
