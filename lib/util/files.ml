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
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc)
  with
  | () -> Sys.rename tmp path
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
