let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    Sys.mkdir dir 0o755
  end

let write_atomic path write =
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname path) (Filename.basename path ^ ".") ".tmp"
  in
  match
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        write oc;
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc))
  with
  | () ->
    Sys.rename tmp path;
    (* The rename lives in the directory: sync it too, or a crash can
       bring back the old [path]. *)
    let dir = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close dir) (fun () -> Unix.fsync dir)
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let corpus_files dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".pmt" && not (Sys.is_directory (Filename.concat dir f)))
    |> List.sort compare
    |> List.map (Filename.concat dir)

let load_corpus dir load =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | path :: rest -> (
      match load path with
      | Ok c -> go (c :: acc) rest
      | Error _ as e -> e
      | exception Sys_error e -> Error e)
  in
  match corpus_files dir with exception Sys_error e -> Error e | files -> go [] files

type header = { banner : string option; fields : (string * string) list }
type text = { header : header; body : (int * string) list }

let no_header = { banner = None; fields = [] }

(* --- Writer ----------------------------------------------------------------- *)

let emit add { banner; fields } body =
  let comment s =
    add "# ";
    add (String.map (fun c -> if c = '\n' then ' ' else c) s);
    add "\n"
  in
  Option.iter comment banner;
  List.iter (fun (key, value) -> comment (if key = "" then value else key ^ ": " ^ value)) fields;
  Seq.iter
    (fun line ->
      add line;
      add "\n")
    body

let output_text oc header body = emit (output_string oc) header body

let render header body =
  let b = Buffer.create 256 in
  emit (Buffer.add_string b) header body;
  Buffer.contents b

(* --- Reader ----------------------------------------------------------------- *)

(* A header line with its [#] and one following space removed, split at
   its first colon; free text (no colon) has the key [""]. *)
let header_line line =
  let n = String.length line in
  let from = if n > 1 && line.[1] = ' ' then 2 else 1 in
  let line = String.sub line from (n - from) in
  match String.index_opt line ':' with
  | None -> ("", String.trim line)
  | Some i ->
    let value = String.sub line (i + 1) (String.length line - i - 1) in
    (String.trim (String.sub line 0 i), String.trim value)

let parse_text s =
  let rec go lineno banner fields body = function
    | [] -> { header = { banner; fields = List.rev fields }; body = List.rev body }
    | line :: rest when String.trim line = "" -> go (lineno + 1) banner fields body rest
    | line :: rest when line.[0] <> '#' ->
      go (lineno + 1) banner fields ((lineno, line) :: body) rest
    | _ :: rest when body <> [] -> go (lineno + 1) banner fields body rest
    | line :: rest -> (
      match header_line line with
      | "", free when banner = None && fields = [] -> go (lineno + 1) (Some free) fields body rest
      | field -> go (lineno + 1) banner (field :: fields) body rest)
  in
  go 1 None [] [] (String.split_on_char '\n' s)

let read_text path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok (parse_text s)
  | exception Sys_error e -> Error e
