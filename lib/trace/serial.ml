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

let write_channel ?(header = []) oc entries =
  List.iter
    (fun h ->
      output_string oc "# ";
      output_string oc (String.map (fun c -> if c = '\n' then ' ' else c) h);
      output_char oc '\n')
    header;
  Array.iter
    (fun e ->
      output_string oc (entry_to_line e);
      output_char oc '\n')
    entries

let is_comment line = String.length line > 0 && line.[0] = '#'

let read_channel ic =
  let entries = Vec.create () in
  let rec go lineno =
    match input_line ic with
    | exception End_of_file -> Ok (Vec.to_array entries)
    | "" -> go (lineno + 1)
    | line when is_comment line -> go (lineno + 1)
    | line -> (
      match entry_of_line line with
      | Ok e ->
        Vec.push entries e;
        go (lineno + 1)
      | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1

(* A crash (or a SIGKILLed [attach --record]) mid-write never leaves a
   truncated [.pmt] that a later corpus replay would trip over. *)
let save_file ?header path entries =
  Files.write_atomic path (fun oc -> write_channel ?header oc entries)

let load_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)

let strip_comment_prefix line =
  let body = String.sub line 1 (String.length line - 1) in
  if String.length body > 0 && body.[0] = ' ' then String.sub body 1 (String.length body - 1)
  else body

let load_file_with_header path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let header = Vec.create () in
      let rec skim () =
        match input_line ic with
        | exception End_of_file -> ()
        | line when is_comment line ->
          Vec.push header (strip_comment_prefix line);
          skim ()
        | _ -> ()
      in
      (* First pass collects the leading comment block only. *)
      skim ();
      seek_in ic 0;
      match read_channel ic with
      | Ok entries -> Ok (Vec.to_list header, entries)
      | Error e -> Error e)

let recording_sink () =
  let buf = Vec.create () in
  let sink =
    { Sink.emit = (fun kind loc -> Vec.push buf { Event.kind; loc; thread = 0 }) }
  in
  (sink, fun () -> Vec.to_array buf)
