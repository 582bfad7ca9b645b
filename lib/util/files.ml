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

let header_field line =
  match String.index_opt line ':' with
  | None -> None
  | Some i ->
    let value = String.sub line (i + 1) (String.length line - i - 1) in
    Some (String.trim (String.sub line 0 i), String.trim value)
